"""Deterministic discrete-event engine for replicated lane sets.

The engine advances an integer microsecond clock over a heap of typed
events. Nothing is scheduled after the horizon: the event pusher, the one
place that compares an instant with it, refuses such an event, so the run
pops every event pushed and ends when the heap drains. Ties at one
instant resolve by a fixed kind order (activations before completions
before releases before votes before the recovery machinery), then by
payload key, then by insertion order, so a scenario replays
byte-identically on every run. Within one kind every key is an
int or a tuple of ints, comparable as pushed. ``Readmit`` is keyed
``(0, copy_id)`` for a copy and ``(1, app, lane)`` for a sensor channel,
so copies go first; ``TaskComplete`` is keyed by the ``(lane, proc)`` of
its set's first member (below), since at one instant only the wake-up of
the set's current generation acts and stale ones return before charging
anything.

Releases and ``DeadlineCheck`` act on a release group: the initial
copies of one ``(app, task)``, which share one spec and have consecutive
copy ids, or one rebuilt copy alone, since it has a phase of its own. A
``DeadlineCheck`` is keyed by its group's first copy id. Releases go by
instant: the release calendar maps an instant to the groups due then, and
one ``TaskRelease`` event runs them all, in first copy id order, each one's
copies in copy id order. No two groups' id ranges overlap and a rebuilt
copy's id is above every initial one, so the copies are handled in the
order one event per copy would give. The event files every job first and
then lets each set that a filed job can change choose once: choosing after
each group ends on the same best ready job and start, but pushes a wake-up
that a later group of the instant may replace. A rebuilt copy is spawned
by an event of a later rank than ``TaskRelease``, so its first instant's
groups have run already: it gets a calendar entry and an event of its own,
which pops next.

Each event carries the object its handler acts on:

    FaultActivate, FaultClear     the FaultSpec
    TaskComplete                  (set, generation)
    DeadlineCheck                 (copies released, release_us), pushed only
                                  where a job may miss (below)
    BITCheck                      None: one event a period tests every place,
                                  pushed only once the proof ends (below)
    TaskRelease                   None: the calendar holds the instant's groups
    VoteRound                     the ApplicationSpec, pushed only once the
                                  proof ends (below)
    Classify, SelectionDone       None: the work is the pending list
    InstallDone, StateTransferDone  the recovery episode (one handler for both)
    PilotApproval                 the Approval
    Readmit                       the copy, or the (app, lane) sensor channel

A (lane, processor) place is its coordinates: the engine files its copies
and its set under that tuple. Its schedule is its set's: the one
deadline-monotonic :class:`lanesim.processor.Processor` state (admitted
set and ranks, one job table with background work in it, what runs,
failed and dead) that the set's members share.
Time is charged lazily whenever an event touches the set, and completion
events carry the set's generation so a preempted or killed job's stale
completion is simply dropped. Every lane starts with one copy of each
task on the task's ``initial_proc``, so each processor index starts as one
set of all its lanes' places, and a lane set in lockstep costs one lane's
schedule. A set's release, completion and deadline act once: a job is
owned by the tuple of its members' copies, and each copy gets its own
deadline miss, in copy id order. A completion keeps one entry per finished job, with its owner
tuple; ``SimResult.completions``, one record per owning copy in
``(finish, lane, proc)`` order, is built from these on first read.

The first event that would treat a member differently splits it out into
a set of its own, which gets a clone of every job (remaining work, start,
release time, its own copy as owner) and runs on from there. These split
a place: a non-sensor fault activating over it (its clear finds the place
split already), a shutdown that withdraws a copy from it or kills it, a
spare admission on it, and a spawn or history replay on it. Sets never
merge again, so the members of a set of more than one are places no fault
or recovery has touched. No two records share ``(finish, lane, proc)``:
a place has one set, a set finishes at most one job an instant, and a
background job writes no record. So one sort gives the order one
schedule per place would.

A job on a set whose admitted set passes the response-time test
(``ProcessorState.proven``) cannot miss its deadline, so a release pushes
its group's ``DeadlineCheck`` only when a set it released on is unproven.
The mode-change rule covers a set that changes: when spare selection grows
a proven set, each task job still pending on it gets its check then, one
per job for the copies that own it. Growth is the one change to check:
a withdrawal only takes load away, but a withdrawal followed by a growth
within one job's window can load it beyond what either set allows (a task
withdrawn and placed again releases on two phases).

Before any fault, with every set proven, no vote can flag: every copy is
active and emits the reference, a proven copy completes its first job by
its deadline, and ``cross_monitor`` flags no equal values under either
consensus, so a round would vote no task at all. While that proof holds
nothing implicates a copy: no round votes and built-in test finds no
fault. So no shutdown comes first, and the first fault is the proof's one
end. A proven start therefore schedules no ``VoteRound`` and no
``BITCheck``: the first ``FaultActivate`` counts each application's rounds
before its instant as run, and pushes each application's next round and
the next sweep at or after it, which pop after the fault events of that
instant by their rank. A run the proof holds to the horizon counts its
rounds at wrap-up, so ``vote_rounds`` always counts every period's round.
An unproven start schedules both from the first period. From the first
fault on, every round votes every task in full: a per-task cache of quiet
votes skipped only 7.7% of the ``fault_storm`` benchmark's task votes, for
no measured gain.

The recovery pipeline is driven end to end by events: a vote round (or a
built-in test) implicates copies, one classification per instant folds
the evidence into shutdown directives, selection plans spare placements
the same instant, the bus serializes code install and state snapshot
transfers, and policing at later vote rounds readmits the new copies.
The bus queue holds episodes: the head is installing until its ``t_s_us``
is set, then moves its state. Under the pilot gate a restabilized copy or
sensor channel is readmitted at its earliest matching approval, never
before it is ready.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter

from . import coverage as cov
from . import timebase
from .fault import (_BYZANTINE, _SENSOR, _TASK_TARGET, _TRANSIENT, SCOPE_KINDS,
                    bit_detects, bit_visible, classify, cross_monitor,
                    exchange_vote, median, police_matches)
from .model import (Architecture, ApplicationSpec, InvalidModel, StateStrategy,
                    SystemModel, Violation)
from .processor import Job, Processor
from .reconfig import (_ACTIVE, _POLICED, _RESTABILIZING, _SHUTDOWN, Copy,
                       Health, Outcome, ReconfigRecord, recovery_rank,
                       select_spare)
from .timing import (BusState, ProcessorState, available_transfer_bandwidth,
                     transfer_time)


class ScenarioInvalid(InvalidModel):
    """The scenario parsed but cannot be brought into initial service."""


class EventKind(Enum):
    # Declaration order is the tie-break rank at one instant.
    FAULT_ACTIVATE = "FaultActivate"
    FAULT_CLEAR = "FaultClear"
    TASK_COMPLETE = "TaskComplete"
    DEADLINE_CHECK = "DeadlineCheck"
    BIT_CHECK = "BITCheck"
    TASK_RELEASE = "TaskRelease"
    VOTE_ROUND = "VoteRound"
    CLASSIFY = "Classify"
    SELECTION = "SelectionDone"
    INSTALL_DONE = "InstallDone"
    STATE_TRANSFER_DONE = "StateTransferDone"
    PILOT_APPROVAL = "PilotApproval"
    READMIT = "Readmit"


# Each kind carries its rank, so pushing an event hashes no Enum.
for _rank, _kind in enumerate(EventKind):
    _kind.rank = _rank
del _rank, _kind

# Each member read once: reading one off its Enum class costs about ten
# times a global's read, and a run reads a kind on every push. So does each
# Health, FaultKind and TargetKind member a function in sim, coverage,
# reconfig or fault reads, beside its Enum (tests/test_enum_reads.py).
_FAULT_ACTIVATE = EventKind.FAULT_ACTIVATE
_FAULT_CLEAR = EventKind.FAULT_CLEAR
_TASK_COMPLETE = EventKind.TASK_COMPLETE
_DEADLINE_CHECK = EventKind.DEADLINE_CHECK
_BIT_CHECK = EventKind.BIT_CHECK
_TASK_RELEASE = EventKind.TASK_RELEASE
_VOTE_ROUND = EventKind.VOTE_ROUND
_CLASSIFY = EventKind.CLASSIFY
_SELECTION = EventKind.SELECTION
_INSTALL_DONE = EventKind.INSTALL_DONE
_STATE_TRANSFER_DONE = EventKind.STATE_TRANSFER_DONE
_PILOT_APPROVAL = EventKind.PILOT_APPROVAL
_READMIT = EventKind.READMIT


# The rows a SimResult lists (these three and coverage.CoverageSample) are
# plain slotted dataclasses, not frozen ones: a frozen __init__ stores each
# field through object.__setattr__, which made a row about four times as
# dear to build. A run builds a coverage sample per change; the others are
# built from what the run keeps when they are first read. They compare by
# value; being mutable, they are not hashable.
@dataclass(slots=True)
class TraceEvent:
    """One row of the run trace; None fields render as '-'."""

    time_us: int
    kind: str
    lane: int | None = None
    proc: int | None = None
    app: int | None = None
    task: int | None = None
    detail: str = ""


def _vote_round(silent, flagged, ambiguous) -> str:
    text = ""       # each word after a space
    for word, places in ((" silent=", silent), (" flagged=", flagged)):
        if places:
            text += word + ",".join([f"{lane}.{proc}" for lane, proc in sorted(places)])
    return (text + " ambiguous" if ambiguous else text)[1:]


# Each row text by name, with the renderer of the facts that Engine._row
# stores after the row's (time, text, lane, proc, app, task). A name is its
# row's kind, then a variant after a dot where the kind has more than one
# text. A fact is a snapshot (an int, an enum member, a Fraction or a
# tuple), so a row renders the same detail whenever it is read. An enum
# reads as its plain attribute ``_value_``: ``.value`` is a dearer property.
# A shutdown scope is a key, and its rows keep the key's length, which
# names the scope's kind (fault.SCOPE_KINDS).
ROW_TEXTS = {
    "ReplayDone": "history backlog cleared".format,
    "DeadlineMiss": "released at {}us, {}us of work left".format,
    "FaultActivate": lambda fault_id, kind, t: f"fault {fault_id}: {kind._value_} {t._value_}",
    "FaultClear": "fault {} cleared".format,
    "Detection.bit": lambda kind, fault_id, target: (
        f"bit caught {kind._value_} fault {fault_id} ({target._value_} granularity)"),
    "Detection.sensor": ("input voting isolated sensor channel "
                         "(fault {}, sensor granularity)").format,
    "Detection.consensus": lambda size: (
        f"cross-monitor consensus ({SCOPE_KINDS[size]._value_} granularity)"),
    "VoteRound": _vote_round,
    "PoliceRound.replay": "replay outstanding".format,
    "PoliceRound.vote": lambda matched, count, required: (
        f"{'match' if matched else 'deviation'} {min(count, required)}/{required}"),
    "PilotApproval": lambda sensor: "sensor scope" if sensor else "",
    "Readmit.channel": "sensor channel restored".format,
    "Readmit.copy": "copy readmitted to the active set".format,
    "ShutdownApplied": lambda size, transient, cause_ids: SCOPE_KINDS[size]._value_ + (
        " shutdown, restabilize in place" if transient else " shutdown, withdrawn") + (
        f", faults {list(cause_ids)}" if cause_ids else ""),
    "Abandoned": "no surviving active copy to recover from".format,
    "SpareSelected": lambda u: f"resulting utilization {float(u):.4f}",
    "DegradeToDuplex.no_spare": "no spare could admit the copy".format,
    "DegradeToDuplex.spare_dead": "spare shut down before the copy started".format,
    "TransferStall": lambda installing, payload: (
        f"{'install' if installing else 'state'} transfer of {payload} units "
        f"waits for bus bandwidth"),
    "InstallDone": lambda task_ids: f"code image installed for tasks {list(task_ids)}",
    "StateTransferDone": lambda strategy, starts: f"{strategy._value_} state ready; " + (
        "policing starts" if starts else "no copy starts, every chosen spare is shut down"),
    "RecoveryClosed": lambda record_id, outcome: f"record {record_id}: {outcome._value_}",
}


def render(row: tuple) -> tuple:
    """A raw row as its TraceEvent's fields: time, kind, scope, detail."""
    at, text, lane, proc, app, task, *facts = row
    return at, text.partition(".")[0], lane, proc, app, task, ROW_TEXTS[text](*facts)


@dataclass(slots=True)
class DeadlineMissRecord:
    time_us: int
    lane: int
    proc: int
    app: int
    task: int
    release_us: int


@dataclass(slots=True)
class CompletionRecord:
    finish_us: int
    start_us: int
    release_us: int
    lane: int
    proc: int
    app: int
    task: int


@dataclass
class SimResult:
    seed: int
    horizon_us: int
    records: list = field(default_factory=list)
    # the trace as raw rows, in event order (ROW_TEXTS)
    rows: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    risk: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    final_coverage: dict = field(default_factory=dict)
    # one (finish_us, start_us, release_us, owner) per finished task job
    finished: list = field(default_factory=list, repr=False, compare=False)

    @cached_property
    def trace(self) -> list:
        """One TraceEvent per row, built on first read (not by the writer)."""
        return [TraceEvent(*render(row)) for row in self.rows]

    @cached_property
    def deadline_misses(self) -> list:
        """One DeadlineMissRecord per DeadlineMiss row, built on first read."""
        return [DeadlineMissRecord(row[0], *row[2:7]) for row in self.rows
                if row[1] == "DeadlineMiss"]

    @cached_property
    def completions(self) -> list:
        """One CompletionRecord per copy that owned a finished job, in
        (finish, lane, proc) order, built on first read: no report writer
        reads them."""
        recs = [CompletionRecord(finish, start, release, *rt.place, *rt.key)
                for finish, start, release, owner in self.finished
                for rt in owner]
        recs.sort(key=_finish_lane_proc)
        return recs

    def outcome_counts(self) -> dict:
        counts = {o: 0 for o in Outcome}
        for rec in self.records:
            counts[rec.outcome] += 1
        return counts

    def summary(self) -> str:
        counts = self.outcome_counts()
        return (f"{counts[Outcome.READMITTED]} readmitted, "
                f"{counts[Outcome.DEGRADED_DUPLEX]} degraded, "
                f"{counts[Outcome.ABANDONED]} abandoned; "
                f"{self.counters['deadline_misses']} deadline misses; "
                f"{len(self.rows)} trace events over "
                f"{self.horizon_us / timebase.US_PER_MS:g} ms")


class _ProcSet(Processor):
    """The one schedule that a set of places with one processor index share.

    The members are the (lane, proc) places, in lane order. The engine
    keys jobs (app_id, task_id) and runs history replay as background work
    keyed by copy id. A job's owner is the tuple of its copies, one per
    member, in lane order. A processor holds at most one copy of a task,
    so the key names each member's copy.

    Every member hosts the same tasks, and no fault or recovery has touched
    any of them, unless the set has one member. A set wakes under its first
    member's place. A split-out set starts from the admitted set and ranks of
    the set it left: both are values, which ``admit`` replaces and nothing
    changes in place. ``proven`` holds the admitted set's proof, tested once.
    """

    __slots__ = ("members", "admitted", "proven", "push")

    def __init__(self, members: list, push, admitted: ProcessorState, prios: dict):
        super().__init__()
        self.members = members
        self.admitted = admitted
        self.prios = prios
        self.proven = admitted.proven()   # no job of the set can miss
        self.push = push        # the engine's event push

    def wake(self, at_us: int):
        self.push(at_us, _TASK_COMPLETE, self.members[0],
                  (self, self.gen))

    def admit(self, state: ProcessorState):
        """Take state as the admitted set, with its deadline-monotonic ranks."""
        self.admitted = state
        self.prios = state.priorities()
        self.proven = state.proven()

    def split(self, place: tuple, now: int) -> _ProcSet:
        """Give place a set of its own, with a clone of every job (remaining
        work, start, release time) owned by place's copy alone, and return
        it; the jobs left here lose that copy. What runs here runs there,
        woken at the same instant. A set of more than one member has no
        background work: replay runs on a spare, which its admission split
        out."""
        if len(self.members) == 1:
            return self
        self.charge(now)
        self.members.remove(place)
        own = _ProcSet([place], self.push, self.admitted, self.prios)
        own.failed, own.dead, own.since, own.gen = self.failed, self.dead, now, self.gen
        for key, job in self.jobs.items():
            clone = own.jobs[key] = Job(
                tuple(rt for rt in job.owner if rt.place == place),
                key, job.release_us, job.remaining_us, job.start_us)
            job.owner = tuple(rt for rt in job.owner if rt.place != place)
            if job is self.running:
                own.running = clone
        if own.running is not None:
            own.wake(now + own.running.remaining_us)
        return own


class Engine:
    def __init__(self, scenario):
        self.sc = scenario
        self.model: SystemModel = scenario.model
        self.cfg = self.model.timing
        self.voter = scenario.voter
        self.settings = scenario.settings
        self.policies = scenario.policies
        self.horizon = self.settings.horizon_us

        self.now = 0
        self._heap: list = []
        self._push = _event_pusher(self._heap, self.horizon)
        # instant -> the release groups due then, while its TaskRelease
        # event has not popped (_release_at)
        self._calendar: dict = {}

        self.rows: list = []            # see SimResult.rows
        self.samples: list = []
        self.finished: list = []        # see SimResult.finished
        self.counters: dict = {
            "releases": 0, "completions": 0, "deadline_misses": 0,
            "vote_rounds": 0, "detections": 0, "shutdowns": 0,
            "transfers": 0, "readmissions": 0,
        }

        self.sets: dict = {}            # (lane, proc) -> the _ProcSet that runs it
        self._lane_places: dict = {}    # lane -> [(lane, proc)] in spec order
        # the copies in service: _set_health takes a withdrawn one out
        # app_id -> task id -> [Copy] by copy id; every task of the app has
        # an entry, even one with no copy left, so the keys are its tasks
        self.groups: dict = {}
        self._proc_copies: dict = {}    # (lane, proc) -> [Copy] by copy id
        self.channels: dict = {}        # app_id -> {lane: healthy}
        self.bus = None                 # BusState, set by _init_topology

        self._copy_ids = itertools.count(1)
        self._episodes: list = []       # by record id; they are the records
        self._pending_implicated: set = set()
        self._pending_selection: list = []
        self._bus_queue: list = []      # episodes, FIFO
        self._bus_busy = False
        self._stall_traced = False      # the head's stall has a trace row
        self._bit_detected: set = set()
        self._any_withdrawn = False     # has any copy been shut down for good?
        # app_id -> its last coverage sample's triple: its coverage now,
        # since each handler that changes a copy's health or a sensor
        # channel samples the application before it returns
        self._last_cov: dict = {}

        # each fault active now, held once by the activate and clear handlers
        # in one of two indexes, each keyed by what reads it; a fault's
        # scenario rank is keyed by its id(), so that no FaultSpec is hashed
        self._fault_rank = {id(f): i for i, f in enumerate(scenario.faults)}
        self._faults_at: dict = {}      # target key -> the active non-sensor
                                        # faults on it, in scenario order
        self._sensor_on: dict = {}      # app_id -> its active sensor faults,
                                        # in scenario order (none: no entry)

        self._apps: dict = {}           # app_id -> ApplicationSpec
        self._vote_period: dict = {}    # app_id -> its shortest task period
        self._init_topology()
        # every set proven and no fault yet: no vote can flag and no sweep
        # can find a fault, so neither is scheduled; the first
        # FaultActivate ends it and starts them (_start_checks)
        self._proof = all(ps.proven for ps in self.sets.values())

    @cached_property
    def rng(self) -> random.Random:
        """Built on first draw: only a BIT detection probability below 1 draws."""
        return random.Random(self.settings.seed)

    # -- setup ---------------------------------------------------------------

    def _init_topology(self):
        # every lane starts mirrored: each task's copies share its
        # initial_proc, so each processor id starts as one set of its
        # lanes' places, with one admitted set, one ranking and one schedule.
        # The sums are exact, so the admitted sets and the bus load equal
        # the totals of admitting the copies one at a time.
        model = self.model
        proc_copies = self._proc_copies
        members = {p.proc_id: [] for p in model.lanes[0].processors}
        for lane in model.lanes:
            places = self._lane_places[lane.lane_id] = [
                (lane.lane_id, p.proc_id) for p in lane.processors]
            for place in places:
                proc_copies[place] = []
                members[place[1]].append(place)
        for places in members.values():
            places.sort()       # lane order
        self._spares = model.spare_positions()

        # a task's copies, one per member of its processor's set in lane
        # order, share its key tuple with its admission entry, and each
        # takes that member as place
        entries = {proc: {} for proc in members}
        lane_ids = model.lane_ids
        copy_ids = self._copy_ids
        for app in sorted(model.applications, key=_app_id):
            copies = {}
            self._apps[app.app_id] = app
            self._vote_period[app.app_id] = app.shortest_period_us
            self.groups[app.app_id] = copies
            self.channels[app.app_id] = dict.fromkeys(lane_ids, True)
            for task in sorted(app.tasks, key=_task_id):
                key = (app.app_id, task.task_id)
                entries[task.initial_proc][key] = (
                    task.wcet_us, task.period_us, task.deadline_us)
                rts = copies[task.task_id] = []
                for place in members[task.initial_proc]:
                    rt = Copy(next(copy_ids), key, place, task)
                    rts.append(rt)
                    proc_copies[place].append(rt)
        sets = {}           # processor id -> the set of its lanes' places
        for proc, held in entries.items():
            state = ProcessorState(held)
            sets[proc] = _ProcSet(members[proc], self._push, state,
                                  state.priorities())
        self.sets = {place: sets[place[1]] for place in proc_copies}
        # every lane sends every message; the bus keeps the pair load/per
        load, per = timebase.lcm_sum(m.demand_ratio for app in model.applications
                                     for t in app.tasks for m in t.messages)
        load *= len(model.lanes)
        self.bus = BusState(model.bus.max_load)._at(load, per)
        # U > bound and load > max_load in integers; a float only for a
        # refusal's text
        violations = []
        if self.settings.enforce_admission:
            bound = self.cfg.utilization_bound
            over = {}
            for proc, ps in sets.items():
                num, den = ps.admitted.utilization_ratio
                if num * bound.denominator > bound.numerator * den:
                    over[proc] = num / den
            for lane, proc in self.sets:
                if proc in over:
                    violations.append(Violation(
                        "AdmissionExceeded",
                        f"lane {lane} processor {proc} starts at utilization "
                        f"{over[proc]:.4f} over the bound {float(bound):.2f}"))
        cap = self.bus.max_load
        if load * cap.denominator > cap.numerator * per:
            violations.append(Violation(
                "BusOverload",
                f"baseline message load {load / per:.4f} exceeds "
                f"bus capacity {float(cap):.4f}"))
        if violations:
            raise ScenarioInvalid(violations)

    def _add_copy(self, rt: Copy):
        app_id, task_id = rt.key
        self.groups[app_id][task_id].append(rt)
        self._proc_copies[rt.place].append(rt)

    def _split(self, place: tuple) -> _ProcSet:
        """The place's own set, split out of its shared one first if need
        be: after set-up, the one site where ``sets`` changes."""
        ps = self.sets[place] = self.sets[place].split(place, self.now)
        return ps

    def _by_set(self, copies: tuple):
        """(set, its copies) pairs for a release group's copies, by the set
        that runs them, in copy id order.

        Every member of a set holds one copy of the group: a member that
        lost its copy was split out by the shutdown that withdrew it. So a
        set with as many members as the group has copies runs them all."""
        sets = self.sets
        ps = sets[copies[0].place]
        if len(ps.members) == len(copies):
            return ((ps, copies),)
        owners: dict = {}
        for rt in copies:
            owners.setdefault(sets[rt.place], []).append(rt)
        return owners.items()

    def _copies_in(self, key: tuple) -> list:
        """Every copy in service inside a lane, processor or task scope,
        given by its key: place by place in the lane's spec order, in copy
        id order within a place."""
        if len(key) == 1:
            return [rt for place in self._lane_places[key[0]]
                    for rt in self._proc_copies[place]]
        return [rt for rt in self._proc_copies.get(key[:2], ())
                if len(key) == 2 or rt.key == key[2:]]

    def _places_in(self, key: tuple) -> list:
        """The places inside a lane or processor scope, given by its key,
        in spec order."""
        if len(key) == 1:
            return self._lane_places[key[0]]
        return [key] if len(key) == 2 else []

    def _hosted(self, place) -> set:
        """(app, task) of the active copies on one processor."""
        return {rt.key for rt in self._proc_copies[place] if rt.health is _ACTIVE}

    def _set_health(self, rt: Copy, health: Health):
        """The one place a copy's health changes (readmit, restabilize,
        withdraw). A withdrawn copy leaves its group's list and its place's
        at once, so that the lists hold the copies in service alone and no
        later scope takes it again. Coverage counts the active copies: the
        caller samples the copy's application before its handler returns."""
        rt.health = health
        if health is _SHUTDOWN:
            app_id, task_id = rt.key
            self.groups[app_id][task_id].remove(rt)
            self._proc_copies[rt.place].remove(rt)

    def _prime_events(self):
        for group in self.groups.values():
            for rts in group.values():
                self._release_at(0, tuple(rts))
        # under the proof a round votes nothing and a sweep finds nothing:
        # the first fault starts them (_on_fault_activate)
        if not self._proof:
            self._start_checks()
        # fault ids are distinct, so pop order does not depend on push order
        for f in self.sc.faults:
            self._push(f.at_us, _FAULT_ACTIVATE, f.fault_id, f)
            clears = f.clears_at_us
            if clears is not None:
                self._push(clears, _FAULT_CLEAR, f.fault_id, f)
        if self.policies.pilot_gate:
            for i, a in enumerate(self.policies.approvals):
                self._push(a.at_us, _PILOT_APPROVAL, i, a)
        # set-up gave every task one active copy per lane, and every sensor
        # channel starts healthy: each level is the lane count, with no
        # recount (model validation allows 2..4 lanes)
        level = cov.CoverageLevel(len(self.model.lanes))
        start = (level, level, level)
        for app_id in self.groups:
            self._last_cov[app_id] = start
            self.samples.append(cov.CoverageSample(0, app_id, *start))

    def _start_checks(self):
        """Start the vote rounds and the BIT sweeps: push each application's
        first round and the first sweep at or after now on its period's
        grid, never at 0, and count each round before now as run, since
        the proof held it quiet. One at now pops after the instant's fault
        events, by its rank."""
        now = self.now
        for app_id, period in self._vote_period.items():
            k = max(1, -(-now // period))     # the first round at or after now
            self.counters["vote_rounds"] += k - 1
            self._push(k * period, _VOTE_ROUND, app_id, self._apps[app_id])
        period = self.settings.bit_period_us
        self._push(max(1, -(-now // period)) * period, _BIT_CHECK, 0, None)

    # -- event plumbing --------------------------------------------------------

    def _row(self, text: str, lane=None, proc=None, app=None, task=None, *facts):
        """Note a trace row: its ROW_TEXTS name, scope and facts."""
        self.rows.append((self.now, text, lane, proc, app, task, *facts))

    def _handlers(self) -> tuple:
        """One bound handler per EventKind, in rank order: run dispatches
        an event by the rank its heap entry carries."""
        return (
            self._on_fault_activate,    # FaultActivate
            self._on_fault_clear,       # FaultClear
            self._on_complete,          # TaskComplete
            self._on_deadline_check,    # DeadlineCheck
            self._on_bit_check,         # BITCheck
            self._on_release,           # TaskRelease
            self._on_vote_round,        # VoteRound
            self._on_classify,          # Classify
            self._on_selection,         # SelectionDone
            self._on_transfer_done,     # InstallDone
            self._on_transfer_done,     # StateTransferDone
            self._on_pilot_approval,    # PilotApproval
            self._on_readmit,           # Readmit
        )

    def run(self) -> SimResult:
        self._prime_events()
        handlers = self._handlers()
        heap, pop = self._heap, heapq.heappop
        # the pusher refuses what falls after the horizon: the heap drains
        while heap:
            at, rank, _key, _seq, _kind, data = pop(heap)
            self.now = at
            handlers[rank](data)
        self.now = self.horizon
        return self._wrap_up()

    def _wrap_up(self) -> SimResult:
        if self._proof:
            # no fault came: every round due by the horizon was quiet
            self.counters["vote_rounds"] += sum(
                self.horizon // period for period in self._vote_period.values())
        for ep in self._episodes:
            if ep.outcome is None:
                ep.outcome = Outcome.ABANDONED
        self.counters["completions"] = sum(
            len(owner) for *_, owner in self.finished)
        return SimResult(
            seed=self.settings.seed,
            horizon_us=self.horizon,
            records=self._episodes,
            rows=self.rows,
            samples=self.samples,
            risk=cov.time_at_risk(self._episodes, self.horizon),
            counters=dict(self.counters),
            final_coverage=dict(self._last_cov),
            finished=self.finished,
        )

    # -- releases, completions, deadlines ---------------------------------------

    def _release_at(self, at: int, copies: tuple):
        """Schedule a release group at an instant: the one place a group is
        scheduled. The instant's first group pushes its one ``TaskRelease``
        event, and is filed only if the push is taken, so the calendar holds
        no instant after the horizon; later ones join its list."""
        groups = self._calendar.get(at)
        if groups is not None:
            groups.append(copies)
        elif self._push(at, _TASK_RELEASE, 0, None):
            self._calendar[at] = [copies]

    def _on_release(self, _data):
        # in first copy id order, the order one event per group would pop in;
        # every job is filed first, then each set that a job can change
        # chooses once, so a set pushes one wake-up for the instant
        groups = self._calendar.pop(self.now)
        groups.sort(key=_first_id)
        touched: dict = {}
        for copies in groups:
            self._release_group(copies, touched)
        now = self.now
        for ps in touched:
            ps.dispatch(now)

    def _release_group(self, copies: tuple, touched: dict):
        # a withdrawn copy never serves again; the group's tuple is kept
        # while none is, so a release allocates no new group, and no group
        # is scanned before the first withdrawal
        if self._any_withdrawn and any(
                rt.health is _SHUTDOWN for rt in copies):
            copies = tuple(rt for rt in copies if rt.health is not _SHUTDOWN)
            if not copies:
                return
        now, spec = self.now, copies[0].spec
        self._release_at(now + spec.period_us, copies)
        # one job per set, owned by the set's copies; the members of a set
        # of more than one are untouched by faults, so one copy answers
        # whether all of them run, and a copy in service never sits on a
        # dead place, so only a halt stops one. A job on a proven set
        # cannot miss, so the group's deadline is checked only if a set it
        # ran on is not.
        key, wcet = copies[0].key, spec.wcet_us
        faults_at = self._faults_at
        stopped = None
        unproven = False
        for ps, mine in self._by_set(copies):
            # halted as _emission tells, asked of the set's first copy
            if ps.failed or faults_at and _halts(faults_at.get(mine[0].place + key)):
                if stopped is None:
                    stopped = []
                stopped.append(ps)
                continue
            if ps.file(Job(tuple(mine), key, now, wcet), now):
                touched[ps] = None
            if not ps.proven:
                unproven = True
        released = copies if stopped is None else tuple(
            rt for rt in copies if self.sets[rt.place] not in stopped)
        if not released:
            return
        self.counters["releases"] += len(released)
        if unproven:
            self._push(now + spec.deadline_us, _DEADLINE_CHECK,
                       released[0].copy_id, (released, now))

    def _check_pending(self, ps: _ProcSet):
        """Push the deadline check of each task job pending on ps, a proven
        set about to grow: a job released while it was proven has none and
        may miss once it has grown (one that has a check gets a second,
        which finds nothing). One check per job, for the copies that own
        it, keyed by the first, so misses stay in copy id order."""
        for job in ps.jobs.values():
            if job.background:
                continue
            first = job.owner[0]
            self._push(job.release_us + first.spec.deadline_us, _DEADLINE_CHECK,
                       first.copy_id, (job.owner, job.release_us))

    def _on_complete(self, data):
        ps, gen = data
        now = self.now
        job = ps.finish(gen, now)
        if job is None:
            return
        if job.background:
            for rt in job.owner:
                self._row("ReplayDone", *rt.place, *rt.key)
            return
        owner = job.owner
        for rt in owner:
            rt.completed_ever = True
        self.finished.append((now, job.start_us, job.release_us, owner))

    def _on_deadline_check(self, data):
        copies, release_us = data
        now, key = self.now, copies[0].key
        # each set aborts its job once; the misses are written per copy, in
        # copy id order
        missed = {}
        for ps, _ in self._by_set(copies):
            job = ps.expire(key, release_us, now)
            if job is not None:
                missed[ps] = job
        if not missed:
            return
        for rt in copies:
            job = missed.get(self.sets[rt.place])
            if job is None:
                continue
            self.counters["deadline_misses"] += 1
            self._row("DeadlineMiss", *rt.place, *rt.key,
                      job.release_us, job.remaining_us)

    # -- faults ------------------------------------------------------------------

    # A halting fault is one that is neither byzantine nor on a sensor: it
    # stops what it targets. Lane, processor and task scopes nest, so the
    # copy or processor is halted iff a halting fault targets its own scope
    # or one around it: iff _faults_at holds one on a prefix of its key.
    # The fault handlers keep a set's failed flag equal to _halted of each
    # member, so a copy is halted iff its set has failed or its task is.

    def _halted(self, place: tuple) -> bool:
        """Is the processor at place halted by an active fault?"""
        at = self._faults_at
        return _halts(at.get(place)) or _halts(at.get(place[:1]))

    def _refresh_proc_failure(self, place: tuple):
        ps = self.sets[place]
        halted = self._halted(place)
        if halted and not ps.failed:
            ps.halt(self.now)
            ps.failed = True
        elif not halted and ps.failed:
            ps.failed = False
            ps.dispatch(self.now)

    def _on_fault_activate(self, f):
        if self._proof:
            self._proof = False
            self._start_checks()
        t = f.target
        self._row("FaultActivate", t.lane, t.proc, t.app, t.task,
                  f.fault_id, f.kind, t.kind)
        rank = self._rank
        if t.kind is _SENSOR:
            bisect.insort(self._sensor_on.setdefault(t.app, []), f, key=rank)
            return
        key = t.key
        bisect.insort(self._faults_at.setdefault(key, []), f, key=rank)
        # a task key's first two coordinates are its place
        for place in self._places_in(key[:2]):
            self._split(place)
        if f.kind is _BYZANTINE:
            return
        if t.kind is _TASK_TARGET:
            # the copy's executable halts; the processor carries on
            for rt in self._copies_in(key):
                self.sets[rt.place].drop(rt.key, self.now)
            return
        for place in self._places_in(key):
            self._refresh_proc_failure(place)

    def _rank(self, f) -> int:
        """The fault's position in the scenario."""
        return self._fault_rank[id(f)]

    def _on_fault_clear(self, f):
        t = f.target
        self._row("FaultClear", t.lane, t.proc, t.app, t.task, f.fault_id)
        if t.kind is _SENSOR:
            on = self._sensor_on[t.app]
            on.remove(f)
            if not on:
                del self._sensor_on[t.app]
            self._restore_channel(f)
            return
        at = self._faults_at[t.key]
        at.remove(f)
        if not at:
            del self._faults_at[t.key]
        # only a transient fault clears, and a transient fault halts; its
        # activation split out every place it covers
        for place in self._places_in(t.key):
            self._refresh_proc_failure(place)
        # a restabilizing copy runs again once the last of its causes clears
        for ep in self._episodes:
            if ep.uncleared and f.fault_id in ep.cause_ids:
                ep.uncleared -= 1
                if not ep.uncleared and ep.outcome is None:
                    ep.t_e_us = self.now

    def _restore_channel(self, fault):
        app_id, lane = fault.target.app, fault.target.lane
        if self.channels[app_id][lane]:
            return
        at = self._approved_at(lane=lane, app=app_id, sensor=True)
        if at == self.now:
            self._readmit_channel(app_id, lane)
        elif at is not None:    # else never approved; the channel stays out
            self._push(at, _READMIT, (1, app_id, lane), (app_id, lane))

    def _approved_at(self, **component) -> int | None:
        """When the pilot lets a restabilized component back in: now with
        the gate off, else at its earliest matching approval but not before
        now, or never (None)."""
        if not self.policies.pilot_gate:
            return self.now
        at = self.policies.approval_time(**component)
        return None if at is None else max(at, self.now)

    def _readmit_channel(self, app_id, lane):
        if any(f.target.lane == lane for f in self._sensor_faults(app_id)):
            return      # still faulty; the last fault's clear restores it
        self.channels[app_id][lane] = True
        self._row("Readmit.channel", lane=lane, app=app_id)
        self._sample(app_id)

    # -- built-in test -------------------------------------------------------------

    def _on_bit_check(self, _):
        """Every processor's built-in test: each live place with an active
        BIT-visible fault, in (lane, proc) order, one place after another."""
        self._push(self.now + self.settings.bit_period_us, _BIT_CHECK, 0, None)
        by_place: dict = {}
        for key, faults in self._faults_at.items():
            for f in faults:
                if bit_visible(f):
                    by_place.setdefault(key[:2], []).append(f)
        for place in sorted(by_place):
            if not self.sets[place].dead:
                self._bit_check(place, sorted(by_place[place], key=_fault_id))

    def _bit_check(self, place: tuple, faults: list):
        """Test one place's BIT-visible faults, in fault id order: catch at
        most one, and draw from rng only for a fault bit_detects passes."""
        hosted = self._hosted(place)
        for f in faults:
            if f.fault_id in self._bit_detected:
                continue
            if not bit_detects(f, place, hosted, self.now):
                continue
            p = self.settings.bit_detect_probability
            if p < 1.0 and self.rng.random() >= p:
                continue
            self._bit_detected.add(f.fault_id)
            t = f.target    # this processor or a copy it hosts: the shutdown
            self.counters["detections"] += 1
            self._row("Detection.bit", t.lane, t.proc, t.app, t.task,
                      f.kind, f.fault_id, t.kind)
            self._apply_directives([t.key])
            return

    # -- voting ---------------------------------------------------------------------

    def _emission(self, rt: Copy, ref: float) -> tuple:
        """The copy's byzantine fault, the first in scenario order of those
        on its lane, its processor and itself, and the value it puts on the
        exchange, or None for either: it is silent until it completes, while
        it replays (``_replaying``) and while halted. One look at each list
        finds both. A copy in service sits on no dead place."""
        byz, halted = None, False
        at = self._faults_at
        if at:
            place, rank = rt.place, self._fault_rank
            own = at.get(place + rt.key, ())
            for faults in (at.get(place[:1], ()), at.get(place, ()), own):
                for f in faults:        # in scenario order
                    if f.kind is _BYZANTINE:
                        if byz is None or rank[id(f)] < rank[id(byz)]:
                            byz = f
                        break
            halted = _halts(own)
        ps = self.sets[rt.place]
        if halted or ps.failed or not rt.completed_ever or rt.copy_id in ps.jobs:
            return byz, None
        value = ref if byz is None else ref + byz.value_skew
        if rt.converge_left > 0:
            value += 2.0 * self.voter.tolerance * rt.converge_left
        return byz, value

    def _on_vote_round(self, app: ApplicationSpec):
        self.counters["vote_rounds"] += 1
        self._push(self.now + self._vote_period[app.app_id], _VOTE_ROUND,
                   app.app_id, app)
        self._check_sensors(app)
        ref = self.settings.reference.value(self.now)
        # the group holds its tasks in task id order
        for task_id, rts in self.groups[app.app_id].items():
            self._vote_task(app.app_id, task_id, rts, ref)

    def _sensor_faults(self, app_id) -> list:
        """Active faults on the application's sensor channels, in scenario
        order: the list the fault handlers keep, which callers only read."""
        return self._sensor_on.get(app_id) or []

    def _check_sensors(self, app):
        for f in self._sensor_faults(app.app_id):
            lane = f.target.lane
            if self.channels[app.app_id][lane]:
                self.channels[app.app_id][lane] = False
                self.counters["detections"] += 1
                self._row("Detection.sensor", lane, None, app.app_id, None, f.fault_id)
                self._sample(app.app_id)

    def _vote_task(self, app_id, task_id, rts, ref: float):
        """Vote one task's copies: trace what the vote flags, queue the
        implicated copies for classification and police the rebuilt ones."""
        expected = []       # (copy, byzantine fault, value or None if silent)
        emitting = {}       # place -> value, of the expected copies that emit
        silent = []         # places of the expected copies that do not
        two_faced = False   # is a two-faced fault among the expected copies'?
        watched = []        # rebuilt copies policed against the consensus
        now = self.now
        for rt in rts:
            if rt.health is _ACTIVE:
                # expected from its first deadline on: one never completed
                # is set-up's, at phase 0 (readmission needs a completion)
                if rt.completed_ever or now >= rt.spec.deadline_us:
                    byz, value = self._emission(rt, ref)
                    if byz is not None and byz.per_receiver:
                        two_faced = True
                    expected.append((rt, byz, value))
                    if value is None:
                        silent.append(rt.place)
                    else:
                        emitting[rt.place] = value
            else:
                watched.append(rt)
        implicated = set(silent)

        flagged, ambiguous = frozenset(), False
        if len(emitting) >= 2:
            if two_faced:
                outcome = exchange_vote(self._exchange_matrix(expected, ref),
                                        self.voter)
            else:
                outcome = cross_monitor(emitting, self.voter)
            flagged, ambiguous = outcome.flagged, outcome.ambiguous
            if not ambiguous:
                # either voter flags only places that emit: a silent copy
                # is reported silent to every receiver, so it is out
                implicated.update(flagged)

        if implicated or flagged or ambiguous:
            self._row("VoteRound", None, None, app_id, task_id,
                      tuple(silent), tuple(flagged), ambiguous)
        if implicated:
            if not self._pending_implicated:
                self._push(self.now, _CLASSIFY, app_id, None)
            self._pending_implicated.update(
                (lane, proc, app_id, task_id) for lane, proc in implicated)

        if watched:
            self._police(watched, emitting, ref)

    def _exchange_matrix(self, expected, ref: float):
        """Build receiver x sender claims from this round's emitted values,
        including what two-faced senders and relays tell each receiver."""
        received: dict = {}
        for r, r_byz, r_value in expected:
            if r_value is None:
                continue
            relay_lies = r_byz is not None and r_byz.per_receiver
            claims: dict = {}
            for s, s_byz, value in expected:
                if value is not None and s is not r:
                    if s_byz is not None and s_byz.per_receiver:
                        value = ref + s_byz.value_skew * _two_faced_sign(r, s_byz)
                    if relay_lies:
                        # a two-faced relay also lies about what it heard
                        value += 1.5 * r_byz.value_skew * _two_faced_sign(s, r_byz)
                claims[s.place] = value
            received[r.place] = claims
        return received

    def _police(self, watched, emitting: dict, ref: float):
        """Compare each watched copy's value with the active consensus: the
        median of ``emitting``, the active copies' values by place, taken at
        the first copy that has a value to compare."""
        consensus = None
        for rt in watched:
            if self._replaying(rt):
                self._row("PoliceRound.replay", *rt.place, *rt.key)
                continue
            if not emitting:
                continue
            value = self._emission(rt, ref)[1]
            if value is None:
                continue
            if consensus is None:
                consensus = median([*emitting.values()])
            matched = police_matches(value, consensus, self.cfg)
            if rt.converge_left > 0:
                rt.converge_left -= 1
            rt.streak = rt.streak + 1 if matched else 0     # a deviation resets it
            self._row("PoliceRound.vote", *rt.place, *rt.key,
                      matched, rt.streak, self.cfg.police_rounds)
            # queued once, on the round the streak reaches its length
            if rt.streak == self.cfg.police_rounds:
                self._maybe_readmit(rt)

    def _replaying(self, rt: Copy) -> bool:
        """Is its history replay, background work until done, on its set?"""
        return rt.copy_id in self.sets[rt.place].jobs

    def _maybe_readmit(self, rt: Copy):
        # the pilot gates a copy restabilized in place, not a rebuilt one;
        # a copy withdrawn before its approval comes is not readmitted
        (lane, proc), (app, task) = rt.place, rt.key
        at = (self._approved_at(lane=lane, proc=proc, app=app, task=task)
              if rt.health is _RESTABILIZING else self.now)
        if at is not None:      # else it waits forever
            self._push(at, _READMIT, (0, rt.copy_id), rt)

    def _on_pilot_approval(self, a):
        # each readmission it gates was queued at its earliest approval
        self._row("PilotApproval", a.lane, a.proc, a.app, a.task, a.sensor)

    def _on_readmit(self, rt):
        if isinstance(rt, tuple):
            self._readmit_channel(*rt)     # an (app, lane) sensor channel
            return
        if rt.health is not _POLICED and rt.health is not _RESTABILIZING:
            return
        self._set_health(rt, _ACTIVE)
        self.counters["readmissions"] += 1
        self._row("Readmit.copy", *rt.place, *rt.key)
        self._sample(rt.key[0])
        ep = self._episodes[rt.episode - 1]     # it is policed or restabilizing
        if ep.outcome is None and all(c.health is _ACTIVE for c in ep.copies):
            ep.t_a_us = self.now
            self._close_episode(ep, Outcome.DEGRADED_DUPLEX
                                if ep.degraded_tasks else Outcome.READMITTED)

    # -- classification and shutdown ---------------------------------------------

    def _on_classify(self, _):
        implicated = self._pending_implicated
        self._pending_implicated = set()
        # classify reads the active copies of the implicated places, and of
        # the other places of a lane only whether they host any, and that
        # only for a lane with two implicated places or more
        hosted, places_on = {}, {}
        for copy in implicated:
            place = copy[:2]
            if place not in hosted:
                hosted[place] = self._hosted(place)
                places_on[place[0]] = places_on.get(place[0], 0) + 1
        proc_copies = self._proc_copies
        hosting = {lane: sum(_hosts(proc_copies[place])
                             for place in self._lane_places[lane])
                   for lane, n in places_on.items() if n >= 2}
        scopes = classify(implicated, hosted, hosting)
        for key in scopes:
            self.counters["detections"] += 1
            self._row("Detection.consensus", *_scope_fields(key), len(key))
        self._apply_directives(scopes)

    def _directive_causes(self, key: tuple):
        """Active faults that explain a shutdown scope, given by its key:
        inside it or around it, in an order no caller reads. One key
        prefixes the other: a task scope's are on its lane, its processor
        and itself; a wider scope's are its lane's and those it prefixes,
        which are on its lane too."""
        at = self._faults_at
        if len(key) == 4:
            keys = (key[:1], key[:2], key)
        else:
            lane = key[0]
            keys = [k for k in at if k[0] == lane and (len(k) == 1 or k[:len(key)] == key)]
        return [f for k in keys for f in at.get(k, ())]

    def _apply_directives(self, scopes):
        """Shut down each scope, given by its key, in order."""
        # one episode per application and origin: a copy restabilized in
        # place is not also replaced by a spare
        affected: dict = {}     # (app_id, transient) -> ([copies], {cause ids})
        abandoned: dict = {}    # record id -> open episode that lost a copy
        withdrawn: list = []    # every permanent victim, once
        lost: set = set()       # apps that lost an active copy: to sample
        handled = self._bit_detected
        for key in scopes:
            size = len(key)
            # in one pass: whether every cause is transient, their ids, and
            # which are handled: a fault inside the scope is; one around
            # it, whose key is shorter, is not
            causes = self._directive_causes(key)
            transient = bool(causes)
            ids = []
            for f in causes:
                if f.kind is not _TRANSIENT:
                    transient = False
                ids.append(f.fault_id)
                if len(f.target.key) >= size:
                    handled.add(f.fault_id)
            ids.sort()
            cause_ids = tuple(ids)
            victims = self._directive_victims(key, transient)
            lost.update(rt.key[0] for rt in victims if rt.health is _ACTIVE)
            self.counters["shutdowns"] += 1
            self._row("ShutdownApplied", *_scope_fields(key), size,
                      transient, cause_ids)
            if transient:
                for rt in victims:
                    self._set_health(rt, _RESTABILIZING)
                    rt.streak = 0
            else:
                self._mark_dead(key)
                for rt in victims:
                    # a restabilizing or policed copy belongs to an episode
                    if rt.health is not _ACTIVE:
                        ep = self._episodes[rt.episode - 1]
                        if ep.outcome is None:
                            abandoned[ep.record_id] = ep
                    # out of the lists now: no later scope takes it again
                    self._set_health(rt, _SHUTDOWN)
                withdrawn += victims
            for rt in victims:
                copies, causes = affected.setdefault(
                    (rt.key[0], transient), ([], set()))
                copies.append(rt)
                causes.update(cause_ids)
        self._withdraw(withdrawn)

        # a recovery that loses a copy it was rebuilding ends here; the
        # copy's replacement belongs to the new reconfiguration. Coverage is
        # sampled once per app that lost an active copy: an abandoned
        # recovery's app as it closes, in record id order, then by app.
        for record_id in sorted(abandoned):
            ep = abandoned[record_id]
            self._close_episode(ep, Outcome.ABANDONED)
            if ep.app_id in lost:
                lost.remove(ep.app_id)
                self._sample(ep.app_id)
        for app_id in sorted(lost):
            self._sample(app_id)
        # by application, the reconfiguration before the restabilization
        for app_id, transient in sorted(affected):
            self._open_episode(app_id, transient,
                               *affected[(app_id, transient)])
        # withdrawals may have freed bandwidth a stalled transfer was waiting
        # for; when a selection event is pending at this same instant, its own
        # pump runs after the new reservations instead
        if not self._pending_selection:
            self._pump_bus()

    def _directive_victims(self, key: tuple, transient: bool):
        """The copies a shutdown of the scope key acts on: a transient one
        restabilizes the active copies in scope, a permanent one withdraws
        every copy in service there, rebuilt or restabilizing ones too."""
        if transient:
            return [rt for rt in self._copies_in(key) if rt.health is _ACTIVE]
        return self._copies_in(key)

    def _mark_dead(self, key: tuple):
        for place in self._places_in(key):
            ps = self._split(place)
            if not ps.dead:
                ps.dead = True
                ps.halt(self.now)

    def _withdraw(self, copies: list):
        """Take shut-down copies out of service, once for every directive
        of one call, and give back their capacity (``_give_back``)."""
        if not copies:
            return
        self._any_withdrawn = True
        self._give_back([(rt.place, rt.key, rt.spec) for rt in copies])

    def _give_back(self, held: list):
        """Give back what (place, key, spec) triples hold: each place is
        split out once, drops the keys' jobs and is admitted once without
        them, and the bus gives back one ``lcm_sum`` of their messages'
        demand pairs. The sums are exact, so this equals one by one."""
        by_place: dict = {}
        for place, key, _spec in held:
            by_place.setdefault(place, []).append(key)
        for place, keys in by_place.items():
            ps = self._split(place)
            for key in keys:
                ps.drop(key, self.now)
            ps.admit(ps.admitted.without_tasks(keys))
        self.bus = self.bus.without_demand(timebase.lcm_sum(
            m.demand_ratio for _place, _key, spec in held for m in spec.messages))

    def _open_episode(self, app_id, transient: bool, copies: list, causes: set):
        if (self.model.architecture is Architecture.FEDERATED_QUADRUPLEX
                and not transient):
            # a federated lane set has nowhere to move work: the loss simply
            # stands, and only the coverage timeline records it
            return
        ep = ReconfigRecord(
            record_id=len(self._episodes) + 1,
            app_id=app_id,
            failed_copy_ids=tuple(sorted(rt.copy_id for rt in copies)),
            strategy=self._apps[app_id].state_model.strategy,
            outcome=None,
            t_f_us=self.now,
            cause_ids=tuple(sorted(causes)),
        )
        self._episodes.append(ep)
        if transient:
            ep.t_r_us = ep.t_i_us = ep.t_s_us = self.now
            ep.copies = copies
            for rt in ep.copies:
                rt.episode = ep.record_id
            ep.uncleared = len(causes)  # all active; the last to clear sets t_e
            return
        ep.lost = copies
        if not self._pending_selection:
            self._push(self.now, _SELECTION, app_id, None)
        self._pending_selection.append(ep)

    # -- selection and the transfer bus ---------------------------------------------

    def _on_selection(self, _):
        pending = self._pending_selection
        self._pending_selection = []
        apps = self._apps
        pending.sort(key=lambda ep: recovery_rank(apps[ep.app_id]))
        for ep in pending:
            self._select_for(ep)
        # transfers start only after every same-instant episode has reserved
        # its bandwidth, so durations never depend on processing order
        self._pump_bus()

    def _select_for(self, ep: ReconfigRecord):
        lost = {}
        for rt in ep.lost:
            lost.setdefault(rt.key[1], rt)
        # task id order, the one order select_spare plans in and
        # ep.placements keeps
        failed = [rt for _, rt in sorted(lost.items())]

        copies = self.groups[ep.app_id]
        for f in failed:
            if not any(rt.health is _ACTIVE for rt in copies[f.key[1]]):
                ep.t_r_us = self.now
                self._row("Abandoned", app=ep.app_id, task=f.key[1])
                self._close_episode(ep, Outcome.ABANDONED)
                return

        sets = self.sets
        spares = {place: sets[place].admitted for place in self._spares
                  if not (sets[place].failed or sets[place].dead)}
        restricted = self.model.architecture is Architecture.RESTRICTED_INTEGRATED
        plan = select_spare(failed, spares, self.bus, self.cfg, restricted)

        # the plan already holds the reservations: adopt them
        ep.t_r_us = self.now
        self.bus = plan.bus
        for d in plan.placements:
            ps = self._split(d.place)
            # the mode-change rule: a proven set that grows checks the jobs
            # it released unchecked (see the module docstring)
            if ps.proven:
                self._check_pending(ps)
            ps.admit(plan.states[d.place])
            ep.placements[d.task_id] = d.place
            self._row("SpareSelected", *d.place, ep.app_id, d.task_id,
                      d.admission.resulting_utilization)
        ep.degraded_tasks = tuple(plan.degraded)
        for task_id in plan.degraded:
            self._row("DegradeToDuplex.no_spare", app=ep.app_id, task=task_id)

        if ep.placements:
            self._bus_queue.append(ep)
        else:
            self._close_episode(ep, Outcome.DEGRADED_DUPLEX)

    def _transfer_payload(self, ep: ReconfigRecord):
        """What the episode moves next: its code images while it installs,
        then its state."""
        app = self._apps[ep.app_id]
        if ep.t_s_us is None:
            return sum((app.task(t).code_size for t in ep.placements), start=0)
        sm = app.state_model
        if sm.strategy is StateStrategy.TRANSFER:
            return sm.snapshot_size
        if sm.strategy is StateStrategy.HYBRID:
            return sm.min_state_size
        return 0

    def _pump_bus(self):
        while self._bus_queue and not self._bus_busy:
            ep = self._bus_queue[0]
            installing = ep.t_s_us is None
            payload = self._transfer_payload(ep)
            if payload == 0:
                self._finish_transfer(ep)
                continue
            avail = available_transfer_bandwidth(self.bus)
            if avail <= 0:
                if not self._stall_traced:
                    self._stall_traced = True
                    self._row("TransferStall", None, None, ep.app_id, None,
                              installing, payload)
                return
            self._stall_traced = False
            if installing:
                ep.t_i_us = self.now
                kind = _INSTALL_DONE
            else:
                kind = _STATE_TRANSFER_DONE
            duration = transfer_time(payload, avail)
            self.counters["transfers"] += 1
            self._bus_busy = True
            self._push(self.now + duration, kind, ep.record_id, ep)
            return

    def _finish_transfer(self, ep: ReconfigRecord):
        """The queue head's install or state transfer is done."""
        if ep.t_s_us is None:
            if ep.t_i_us is None:
                ep.t_i_us = self.now
            ep.t_s_us = self.now
        else:
            ep.t_e_us = self.now
            self._bus_queue.pop(0)
            self._spawn_copies(ep)

    def _on_transfer_done(self, ep: ReconfigRecord):
        self._bus_busy = False
        if ep.t_s_us is None:
            # a tuple: _spawn_copies pops a dead spare's task from the dict
            self._row("InstallDone", None, None, ep.app_id, None,
                      tuple(ep.placements))
        self._finish_transfer(ep)
        self._pump_bus()

    def _spawn_copies(self, ep: ReconfigRecord):
        app = self._apps[ep.app_id]
        sm = app.state_model
        # a spare shut down while its copy was in transfer gets no copy; no
        # spare dies in here, so the row can say whether any copy starts
        dead = [task_id for task_id, place in ep.placements.items()
                if self.sets[place].dead]
        self._row("StateTransferDone", None, None, ep.app_id, None,
                  sm.strategy, len(dead) < len(ep.placements))
        if dead:
            self._give_back([(ep.placements[task_id], (ep.app_id, task_id),
                              app.task(task_id)) for task_id in dead])
        for task_id in dead:
            place = ep.placements.pop(task_id)
            ep.degraded_tasks += (task_id,)
            self._row("DegradeToDuplex.spare_dead", *place, ep.app_id, task_id)
        for task_id, place in ep.placements.items():
            spec = app.task(task_id)
            rt = Copy(next(self._copy_ids), (ep.app_id, task_id), place, spec)
            rt.health = _POLICED
            rt.episode = ep.record_id
            self._add_copy(rt)
            ep.copies.append(rt)
            if sm.strategy is StateStrategy.TRANSFER and sm.history_len > 0:
                self._split(rt.place).release(
                    Job((rt,), rt.copy_id, self.now,
                        sm.history_len * spec.wcet_us, background=True),
                    self.now)
            if sm.strategy in (StateStrategy.CONVERGENCE, StateStrategy.HYBRID):
                rt.converge_left = sm.convergence_rounds
            # its own phase: a release group of one
            self._release_at(self.now, (rt,))
        if not ep.copies:
            self._close_episode(ep, Outcome.DEGRADED_DUPLEX)

    def _close_episode(self, ep: ReconfigRecord, outcome: Outcome):
        ep.outcome = outcome
        self._row("RecoveryClosed", None, None, ep.app_id, None, ep.record_id, outcome)

    # -- coverage sampling ------------------------------------------------------------

    def _coverage(self, app_id) -> tuple:
        """The application's functional, zonal and peripheral coverage now."""
        return (*cov.coverage(self.groups[app_id]),
                cov.peripheral_coverage(sum(self.channels[app_id].values())))

    def _sample(self, app_id):
        """Recount the application's coverage; a change is a new sample."""
        snap = self._coverage(app_id)
        if self._last_cov.get(app_id) != snap:
            self._last_cov[app_id] = snap
            self.samples.append(cov.CoverageSample(self.now, app_id, *snap))


_finish_lane_proc = attrgetter("finish_us", "lane", "proc")
_app_id = attrgetter("app_id")
_task_id = attrgetter("task_id")
_fault_id = attrgetter("fault_id")


def _first_id(copies: tuple) -> int:
    return copies[0].copy_id


def _hosts(copies) -> bool:
    """Do any of a place's copies serve actively?"""
    for rt in copies:
        if rt.health is _ACTIVE:
            return True
    return False


# the row fields (lane, proc, app, task) of a scope key, by its length
_PADDING = {1: (None, None, None), 2: (None, None), 4: ()}


def _scope_fields(key: tuple) -> tuple:
    return key + _PADDING[len(key)]


def _halts(faults) -> bool:
    """Does any of these faults (None: no fault) halt what it targets?"""
    for f in faults or ():
        if f.kind is not _BYZANTINE:
            return True
    return False


def _two_faced_sign(toward: Copy, fault) -> int:
    """Which way a two-faced fault bends what it tells the copy ``toward``."""
    return 1 if (toward.place[0] + fault.fault_id) % 2 == 0 else -1


def _event_pusher(heap: list, horizon: int):
    """Push (at, rank, key, seq, kind, data) onto heap, and tell whether
    it did: the one test of the horizon. An event after the horizon is
    refused, so nothing is scheduled that the run would not pop, and the
    heap drains. It closes over the heap, not the engine."""
    seq = itertools.count()

    def push(at_us: int, kind: EventKind, key, data) -> bool:
        if at_us > horizon:
            return False
        heapq.heappush(heap, (at_us, kind.rank, key, next(seq), kind, data))
        return True

    return push


def run(scenario) -> SimResult:
    """Simulate a parsed scenario to its horizon."""
    return Engine(scenario).run()

