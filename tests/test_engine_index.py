"""The engine's state and answers, checked against full scans.

``CheckedEngine`` runs the engine as it is, over the golden corpus (each
document with two faults or more also with fault ids reversed against its
list order), generated scenarios with faults and fuzzed documents, and
checks it against full scans: of every fault in ``scenario.faults``,
through ``FaultSpec.active_at`` and ``oracles.contains``, and of every
copy in service: the copies its lists hold, which the kept facts below
check against every copy ever made. It reads what the engine holds and
the events as they run. No check reads a heap entry or a release's
payload, and none names a handler.

Faults are compared through the answers they give, against the settled
scan: the faults ``active_at`` the current instant, less what the fault
events of this instant that have not run yet change. Inside a fault
handler the engine's index may lag ``active_at`` so: a fault that
activates later in the same instant is not in it yet, and one that clears
later in the same instant still is. The fault events the wrap has run
tell which; the answers where the plain ``active_at`` scan differs are
counted.

Invariants around every event. ``_handlers`` wraps each handler the
engine dispatches and picks its checks by the handler's position in the
tuple, the event's ``EventKind`` rank, never by its name. After every
event:

- capacity: the bus load and each place's admitted set and utilization
  equal a recount of the copies in service and the placements not yet
  spawned, and the bus load stays at or below its start-up baseline;
- service: no copy in service sits on a dead processor, which is why
  the engine's releases and emitted values test no dead flag, and an
  active copy that never completed is one set-up made, which is why a
  vote expects such a copy from its first deadline after 0;
- placement order: every recovery's placements are in task id order;
- records: each recovery record's timestamps are in order, and no
  application's coverage level exceeds the lane count;
- kept facts: the causes of each restabilization not cleared yet, the
  copy lists (each task's list in its group and each place's list hold
  exactly the copies ever made there that are not ``SHUTDOWN``, in copy
  id order), and the coverage last sampled for every application
  (``functional_coverage``, ``zonal_coverage`` and
  ``peripheral_coverage`` of it now): each handler samples what it
  changed, so no application is left stale;
- sets: places with one processor index share one schedule, their set,
  until an event treats them differently. Its members agree, by full
  scans of the copies, jobs and faults, on the admitted set, the jobs
  their copies own, the running job, failed and dead, and the faults that
  ever covered them, and each of its jobs is owned by one copy on each
  member. Its ``proven`` flag is the response-time test of its admitted
  set, and each task job's key is ranked in its ``prios``;
- the proof: it holds exactly while every start-up set is proven, by a
  recount, and no fault has activated.

By rank:

- deadlines, before every event: no task job is left in a set past the
  ``DeadlineCheck`` rank of its deadline. This stands in for each check
  the engine skips: a job on a proven set finishes by its deadline, and
  one on an unproven set finishes or its check aborts it. A
  ``DeadlineCheck`` event runs at the deadline of every job released on
  an unproven set, and at no other instant but the deadlines of the jobs
  pending on a proven set that spare selection grew (the mode-change
  rule);
- releases, after each ``TaskRelease`` and once an instant's release rank
  is passed: every copy in service whose phase ``origin + k·period_us``
  falls on the instant (its origin is where it was filed: 0 for set-up's
  copies, the instant ``_add_copy`` saw for a rebuilt one), on a live
  processor that no fault halts, has exactly one job released there,
  owned by it on its place, and no other copy has one. The releases
  counter rises by the copies released, and across the instant's events
  their copy ids rise. After each ``TaskRelease``, every set it released
  on runs its best ready job, as a scan of its job table finds it, and
  holds exactly one live wake-up, at the instant that job finishes, or
  none when nothing runs; every wake-up the event pushed is still live,
  so no set replaced a wake-up within the event;
- fault events, after each: the index of active faults is empty exactly
  when no non-sensor fault is active, and every copy's ``_emission``,
  every place's ``_halted`` and each set's failed flag answer as the scan
  does;
- built-in test, around each ``BITCheck``: the sweep offers exactly the
  live places that ``bit_detects`` finds an active fault on, in (lane,
  proc) order, each with those faults in fault id order;
- vote rounds: an instant holds one round of each application whose
  vote period divides it, in app id order. While the proof holds no round
  is served and none is counted. Each such instant is then a
  ``TaskRelease`` instant that releases every copy of the application's
  shortest-period task, and after that release ``cross_monitor`` flags no
  count of equal copies of the reference from two to the lane count, and
  the full vote of every task of the instant's due applications, run
  beside the engine, changes nothing (no trace row, no implicated copy,
  no event, no policing) and has every due copy emit the reference. The
  instants so voted are every round instant before the proof's end. Right
  after the first fault ends the proof, ``vote_rounds`` counts each
  round before its instant. From then on, around each ``VoteRound``, each
  round votes every task of its application in full, in task id order.

Per-call contracts, one override each:

- ``__init__``: capacity after set-up; each group holds its tasks in task
  id order; the start-up sets' proof, recounted. It wraps the push every
  set wakes through, to note each wake-up's instant and generation.
- ``_prime_events``: each application's starting coverage sample, and
  the coverage it keeps as last sampled, equal a recount of what set-up
  built.
- ``_handlers``: the wrap above.
- ``_add_copy``: notes the instant a recovery files a copy at, its
  phase's origin; set-up's copies start at 0.
- ``_release_group``: the first copy ids of an instant's release groups
  rise across the whole instant, within one ``TaskRelease`` event and
  across its events.
- ``_wrap_up``: the checks due by the horizon, before it counts the
  rounds of a run the proof held to its end.
- ``run``: as many rounds as the vote periods give.
- ``_halted``, ``_directive_causes``, ``_sensor_faults``: each answer is
  the settled scan's. A shutdown's causes, ``_directive_causes(key)`` of
  a scope's key, are compared in fault id order, since the engine
  promises no order there, with the faults whose target overlaps the
  scope the key names by coordinates.
- ``_emission``: a copy asks at most once a task vote. Its skew is the
  settled scan's first byzantine fault that contains the copy's scope,
  and so none while no fault is active. A copy that has completed and
  does not replay is silent exactly when the settled scan finds a
  halting fault that contains its scope (which its set's failed flag
  follows).
- ``_hosted``, ``_copies_in``: each answer is a full scan of the copies.
  ``_copies_in(key)`` gives the copies inside the scope the key names by
  coordinates, place by place, in the lanes' spec order, and in copy id
  order within a place.
- ``_directive_victims``: ``_directive_victims(key, transient)`` of a
  shutdown: a transient one restabilizes the active copies in the scope
  the key names, a permanent one withdraws every copy still in service
  there, and none applies while the proof holds.
- ``_bit_check``: a place is offered the faults the sweep's scan found,
  and the engine asks ``bit_detects`` of those alone.
- ``_vote_task``: the task's copies in copy id order and the reference
  now.
- ``_police``: the watched copies are the task's policed and restabilizing
  ones, the emitted values are the active copies' by place, and each
  ``PoliceRound.vote`` row the call writes matches exactly when its copy's
  emission is within tolerance of the median of those values.
- ``_select_for``: the failed tasks reach ``select_spare`` in task id
  order, and a plan made again with the spares offered reversed is equal:
  the same decisions, placements, degraded tasks and bus load, and each
  spare the same entries and utilization. Ranking by (utilization, lane,
  proc) is a total order, so the order of the spares must never show.
  Each adopted placement is a decision of its plan with both tests
  accepted, and its ``SpareSelected`` row gives that decision's
  ``admission.resulting_utilization``. It notes the jobs pending on each
  proven set, for the mode-change rule.
"""

import functools
import json
import math
import re
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lanesim import coverage as cov, sim
from lanesim.cli import trace_lines
from lanesim.fault import (Consensus, FaultKind, FaultTarget, TargetKind,
                           bit_detects, cross_monitor)
from lanesim.reconfig import Health
from lanesim.scenario import generate_scenario, load_scenario, parse_scenario
from lanesim.sim import Engine, EventKind
from lanesim.timing import ProcessorState

from metrics_oracle import metrics_document
from oracles import contains, message_demand, overlaps, task_utilization
from scenario_builders import (lane_fault, proc_fault, scenario_doc,
                               single_app_system)
from golden.generated import SEEDS, generated_scenario
from golden.rehash import SCENARIOS

# an event's rank is its kind's place in declaration order, and the
# position of its handler in Engine._handlers()
_RANK = {kind: rank for rank, kind in enumerate(EventKind)}
_ACTIVATE = _RANK[EventKind.FAULT_ACTIVATE]
_CLEAR = _RANK[EventKind.FAULT_CLEAR]
_DEADLINE = _RANK[EventKind.DEADLINE_CHECK]
_BIT = _RANK[EventKind.BIT_CHECK]
_RELEASE = _RANK[EventKind.TASK_RELEASE]
_VOTE = _RANK[EventKind.VOTE_ROUND]
_PAST_ALL = len(_RANK)      # after every rank of an instant


def _halting(faults, scope):
    return any(f.kind is not FaultKind.BYZANTINE and contains(f.target, scope)
               for f in faults)


def _copy_scope(rt):
    """The task scope of a copy, built from its coordinates."""
    return _task_scope(*rt.place, *rt.key)


@functools.cache
def _task_scope(lane, proc, app, task):
    return FaultTarget(TargetKind.TASK, lane=lane, proc=proc, app=app, task=task)


@functools.cache
def _scope(key):
    """The shutdown scope a key names, built from its coordinates: a
    lane's, a processor's or a task copy's."""
    kind = {1: TargetKind.LANE, 2: TargetKind.PROCESSOR, 4: TargetKind.TASK}[len(key)]
    return FaultTarget(kind, **dict(zip(("lane", "proc", "app", "task"), key)))


@functools.cache
def _place_scope(place):
    """The processor scope of a (lane, proc) place."""
    lane, proc = place
    return FaultTarget(TargetKind.PROCESSOR, lane=lane, proc=proc)


def _exact_sum(values):
    """The sum of Fractions, taken over one common denominator."""
    num, den = 0, 1
    for value in values:
        d = value.denominator
        lcm = den // math.gcd(den, d) * d
        num, den = num * (lcm // den) + value.numerator * (lcm // d), lcm
    return Fraction(num, den)


def _best_ready(ps):
    """The job a set should run, by a scan of its job table: none on a
    failed or dead set; else the ready task job of the lowest rank, else
    the ready background job of the lowest key."""
    if ps.failed or ps.dead:
        return None
    ready = [job for job in ps.jobs.values() if job.remaining_us > 0]
    tasks = [job for job in ready if not job.background]
    if tasks:
        return min(tasks, key=lambda job: ps.prios[job.key])
    return min(ready, key=lambda job: job.key, default=None)


def _job_key(job):
    return None if job is None else job.key


def _due(rt, origin, at):
    """Does the copy's phase, from origin, fall on instant at?"""
    return at >= origin and (at - origin) % rt.spec.period_us == 0


class CheckedEngine(Engine):
    """An Engine that checks its state around each event and its answers
    at each call against full scans, as the module docstring lists."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.checks = 0
        self.lagging = 0         # answers where the plain active_at scan differs
        self.skipped_checks = 0  # releases on proven sets, deadline in the run
        self.deadline_checks = 0   # DeadlineCheck events run
        self.proof_skips = 0     # task votes the proof skips, each checked
        self.full_votes = 0      # task votes run in full outside the proof
        self.rounds = []         # (instant, app, proof, tasks it skipped)
        self._emissions = {}     # copy id -> (copy, value), this task vote
        self._voted, self._policed = [], 0
        self._fault_events = set()   # (id(fault), rank) of each fault event run
        self._activated = []     # the faults whose activation has run
        self._killed = []        # the scopes of the permanent shutdowns
        self._bit_scan = {}      # live place -> its BIT faults, at a sweep
        self._offered = []       # the places the sweep has offered so far
        self._figures = {}       # id(spec) -> (bus demand, utilization)
        # the instant of the last event, and the copies it released so far
        self._instant, self._released, self._last_released = None, set(), 0
        self._release_open = None    # an instant whose releases are unchecked
        self._last_group = 0     # the first copy id of the instant's last group
        self._releases_before = 0
        self._filed = {}         # copy id -> the instant a recovery filed it
        self._made = self._copies_by_id()   # every copy ever made, by copy id
        # set -> its wake-ups (instant, generation), pruned to the live ones
        # when checked; and (set, generation) of those the current event
        # pushed. Split-out sets take their parent's push, so wrapping
        # set-up's sets reaches every set.
        self._wakes, self._event_wakes = {}, []
        push = self._push

        def push_wake(at_us, kind, key, data):
            ps, gen = data
            self._wakes.setdefault(ps, []).append((at_us, gen))
            self._event_wakes.append(data)
            push(at_us, kind, key, data)

        for ps in self.sets.values():
            ps.push = push_wake
        # instants a DeadlineCheck must still run at, and where one may
        self._checks_due, self._check_instants = set(), set()
        self._earliest_deadline = None   # (deadline, job) over every task job
        # the applications due to vote at the instant, and how many have
        self._app_order = sorted(self.model.applications, key=lambda a: a.app_id)
        self._due_apps, self._served, self._rounds_before = [], 0, 0
        self._vote_open = None       # an instant whose rounds are unchecked
        self._voted_beside = False   # the instant's due rounds, under the proof
        # a vote round walks the groups' tasks as kept: in task id order
        for app in self.model.applications:
            assert list(self.groups[app.app_id]) == sorted(
                t.task_id for t in app.tasks)
        # the start-up sets, recounted from each place's copies
        by_place = {}
        for rt in self._all_copies():
            by_place.setdefault(rt.place, []).append(rt)
        self._proven_at_start = all(ProcessorState({
            rt.key: (rt.spec.wcet_us, rt.spec.period_us, rt.spec.deadline_us)
            for rt in rts}).proven() for rts in by_place.values())
        # set-up builds the admitted sets and the bus load in one pass
        self._baseline_load = self.bus.current_load
        self._check_capacity(self._holders())
        # every (app, task): bit_detects given these as hosted sees every
        # BIT-visible fault on a place
        self._every_task = {(app.app_id, t.task_id)
                            for app in self.model.applications for t in app.tasks}

    def _prime_events(self):
        super()._prime_events()
        want = []
        for app_id, group in self.groups.items():
            healthy = sum(self.channels[app_id].values())
            want.append(cov.CoverageSample(
                0, app_id, cov.functional_coverage(group),
                cov.zonal_coverage(group), cov.peripheral_coverage(healthy)))
        assert self.samples == want, (
            f"starting samples {self.samples}, recounted {want}")
        assert self._last_cov == {
            s.app_id: (s.functional, s.zonal, s.peripheral) for s in want}
        self.checks += 1

    def _add_copy(self, rt):
        self._filed[rt.copy_id] = self.now
        self._made.append(rt)
        super()._add_copy(rt)

    def _origin(self, rt):
        """Where the copy's phase starts: where it was filed."""
        return self._filed.get(rt.copy_id, 0)

    # -- the references -------------------------------------------------

    def _scanned_faults(self):
        return [f for f in self.sc.faults if f.active_at(self.now)]

    def _settled_faults(self):
        """The scan, less what the fault events of this instant that have
        not run yet change."""
        now, ran = self.now, self._fault_events
        return [f for f in self.sc.faults if f.active_at(now) != (
            (f.at_us == now and (id(f), _ACTIVATE) not in ran)
            or (f.clears_at_us == now and (id(f), _CLEAR) not in ran))]

    def _agree(self, what, got, answer):
        """answer(faults) computed over the settled faults must equal got."""
        want = answer(self._settled_faults())
        assert got == want, f"{what} at {self.now}us: index {got!r}, scan {want!r}"
        if answer(self._scanned_faults()) != got:
            self.lagging += 1
        self.checks += 1

    def _all_copies(self):
        return [rt for group in self.groups.values()
                for rts in group.values() for rt in rts]

    def _copies_by_id(self):
        return sorted(self._all_copies(), key=lambda rt: rt.copy_id)

    def _copies_by_place(self):
        """Every copy, place by place in the lanes' spec order, in copy id
        order within a place: the order a scope's copies come in."""
        order = {(lane.lane_id, p.proc_id): i for i, (lane, p) in enumerate(
            (lane, p) for lane in self.model.lanes for p in lane.processors)}
        return sorted(self._all_copies(),
                      key=lambda rt: (order[rt.place], rt.copy_id))

    def _figures_of(self, spec):
        """A task's bus demand and utilization, each summed once: its spec
        is the model's, which outlives the run."""
        got = self._figures.get(id(spec))
        if got is None:
            got = self._figures[id(spec)] = (message_demand(spec), task_utilization(
                spec.wcet_us, spec.period_us, spec.deadline_us))
        return got

    # -- around every event ---------------------------------------------

    def _handlers(self):
        # each handler runs between the checks of its position in the
        # tuple, the rank of the events it handles
        def checked(rank, handler):
            def handle(data):
                self._before(rank, data)
                handler(data)
                self._after(rank)
            return handle
        return tuple(checked(rank, handler)
                     for rank, handler in enumerate(super()._handlers()))

    def _before(self, rank, data):
        now = self.now
        self._event_wakes = []
        self._pass(now, rank)
        if now != self._instant:
            self._arrive(now)
        if rank in (_ACTIVATE, _CLEAR):
            # a fault event's payload is its fault
            self._fault_events.add((id(data), rank))
            if rank == _ACTIVATE:
                self._activated.append(data)
        elif rank == _DEADLINE:
            assert now in self._check_instants, (
                f"a DeadlineCheck runs at {now}us, the deadline of no job "
                f"released on an unproven set or pending on a grown one")
            self._checks_due.discard(now)
            self.deadline_checks += 1
        elif rank == _BIT:
            self._scan_bit()
        elif rank == _RELEASE:
            self._releases_before = self.counters["releases"]

    def _after(self, rank):
        if rank in (_ACTIVATE, _CLEAR):
            self._sweep()
            if rank == _ACTIVATE and self._proven_at_start and len(self._activated) == 1:
                self._proof_ended()
        elif rank == _BIT:
            assert self._offered == list(self._bit_scan), (
                f"BIT sweep at {self.now}us offered {self._offered}, "
                f"scanned {list(self._bit_scan)}")
            self.checks += 1
        elif rank == _RELEASE:
            self._note_releases()
            if self._proof_holds() and self._due_apps and not self._voted_beside:
                self._voted_beside = True
                self._vote_beside()
        elif rank == _VOTE:
            self._check_rounds()
        holders = self._holders()
        self._check_capacity(holders)
        self._check_sets(holders)
        self._check_service()
        self._check_records()
        self._check_kept_facts()
        self._check_placements()
        proof = self._proof_holds()
        assert self._proof == proof, (
            f"proof flag {self._proof} at {self.now}us, recounted {proof}")

    def _proof_holds(self):
        """The proof, recounted: every start-up set proven, no activation."""
        return self._proven_at_start and not self._activated

    def _arrive(self, now):
        """The first event of an instant: what it must release and vote."""
        self._instant = now
        self._released, self._last_released = set(), 0
        self._release_open = now
        self._last_group = 0
        self._due_apps = [app for app in self._app_order
                          if now and now % app.shortest_period_us == 0]
        self._vote_open = now
        self._served, self._rounds_before = 0, self.counters["vote_rounds"]
        self._voted, self._voted_beside = [], False

    def _pass(self, at, rank):
        """What must be done before an event at (at, rank) runs: the
        releases and rounds of an instant whose rank is passed, the
        DeadlineChecks due, and every task job up to its deadline."""
        here = (at, rank)
        if self._release_open is not None and (self._release_open, _RELEASE) < here:
            self._check_released(self._release_open)
            self._release_open = None
        if self._vote_open is not None and (self._vote_open, _VOTE) < here:
            due = [app.app_id for app in self._due_apps]
            rounds = self.counters["vote_rounds"] - self._rounds_before
            if self._proof_holds():
                # none served; each due one voted beside the release
                assert rounds == 0 and (self._voted_beside or not due), (
                    f"{rounds} vote rounds at {self._vote_open}us under the "
                    f"proof, apps {due} due, voted beside {self._voted_beside}")
            else:
                assert self._served == rounds == len(due), (
                    f"{rounds} vote rounds at {self._vote_open}us, apps {due} due")
            self._vote_open = None
        late = sorted(t for t in self._checks_due if (t, _DEADLINE) < here)
        assert not late, (
            f"no DeadlineCheck ran at {late}us, where jobs released on "
            f"unproven sets reach their deadlines")
        if self._earliest_deadline is not None:
            deadline, job = self._earliest_deadline
            assert (deadline, _DEADLINE) >= here, (
                f"job {job.key} released at {job.release_us}us is pending at "
                f"{at}us, past its deadline {deadline}us")

    def _wrap_up(self):
        self._pass(self.horizon, _PAST_ALL)
        if self._proof_holds():
            self._check_beside(self.horizon + 1)
        return super()._wrap_up()

    def run(self):
        result = super().run()
        rounds = sum(self.horizon // app.shortest_period_us for app in self._app_order)
        assert result.counters["vote_rounds"] == rounds, (
            f"{result.counters['vote_rounds']} vote rounds, the periods give {rounds}")
        return result

    # -- releases -------------------------------------------------------

    def _note_releases(self):
        """The copies a release event released: each is due, in service on
        a live processor that no fault halts, and owns its new job alone on
        its place; the counter rises by them, and their ids rise past the
        instant's earlier releases. A deadline check must run at the
        deadline of each one released on an unproven set."""
        now = self.now
        new = []
        for rt in self._all_copies():
            if rt.copy_id in self._released:
                continue
            job = self.sets[rt.place].jobs.get(rt.key)
            if job is not None and job.release_us == now and rt in job.owner:
                new.append((rt, job))
        counted = self.counters["releases"] - self._releases_before
        ids = [rt.copy_id for rt, _ in new]
        assert counted == len(new), (
            f"{counted} releases counted at {now}us, new jobs for copies {ids}")
        assert not ids or min(ids) > self._last_released, (
            f"copies {ids} released at {now}us after copy {self._last_released}")
        settled = self._settled_faults()
        for rt, job in new:
            ps = self.sets[rt.place]
            assert (_due(rt, self._origin(rt), now) and not ps.dead
                    and not _halting(settled, _copy_scope(rt))), (
                f"copy {rt.copy_id} released at {now}us: phase "
                f"{self._origin(rt)}+k*{rt.spec.period_us}us, dead {ps.dead}")
            assert [o for o in job.owner if o.place == rt.place] == [rt], (
                f"copy {rt.copy_id}'s job at {now}us owned by "
                f"{[o.copy_id for o in job.owner]}")
            deadline = now + rt.spec.deadline_us
            if deadline > self.horizon:
                continue
            if ps.proven:
                self.skipped_checks += 1
            else:
                self._checks_due.add(deadline)
                self._check_instants.add(deadline)
        self._released.update(ids)
        self._last_released = max(ids, default=self._last_released)
        self._check_wakes({self.sets[rt.place]: None for rt, _ in new})
        # a copy spawned later in the instant releases after its rank
        self._release_open = now
        self.checks += 1

    def _check_wakes(self, released_on):
        """After a release event: each set it released on runs its best
        ready job and holds one live wake-up, when that job finishes (none
        if nothing runs); no wake-up the event pushed has gone stale."""
        for ps, gen in self._event_wakes:
            assert gen == ps.gen, (
                f"set of {ps.members} replaced a wake-up it pushed in the "
                f"release event at {self.now}us")
        for ps in released_on:
            best = _best_ready(ps)
            assert ps.running is best, (
                f"set of {ps.members} runs {_job_key(ps.running)} at "
                f"{self.now}us, its best ready job is {_job_key(best)}")
            live = self._wakes[ps] = [
                wake for wake in self._wakes.get(ps, ()) if wake[1] == ps.gen]
            want = [] if best is None else [(ps.since + best.remaining_us, ps.gen)]
            assert live == want, (
                f"set of {ps.members} at {self.now}us holds live wake-ups "
                f"{live}, wants {want}")
        self.checks += 1

    def _release_group(self, copies, touched):
        first = copies[0].copy_id
        assert first > self._last_group, (
            f"the group of copy {first} released at {self.now}us after "
            f"the group of copy {self._last_group}")
        self._last_group = first
        self.checks += 1
        super()._release_group(copies, touched)

    def _check_released(self, at):
        """Every copy due at the instant, in service on a live processor
        that no fault halts, was released there."""
        settled = None
        missed = []
        for rt in self._all_copies():
            if (rt.copy_id in self._released
                    or not _due(rt, self._origin(rt), at)
                    or self.sets[rt.place].dead):
                continue
            if settled is None:
                settled = self._settled_faults()
            if not _halting(settled, _copy_scope(rt)):
                missed.append(rt.copy_id)
        assert not missed, f"copies {missed} due at {at}us were not released"
        self.checks += 1

    # -- vote rounds ----------------------------------------------------

    def _vote_beside(self):
        """Under the proof, after the instant's release: it released every
        copy of each due application's shortest-period task, no count of
        equal copies of the reference may flag, and beside each task of
        the due applications the full vote changes nothing and every due
        copy emits the reference."""
        for app in self._due_apps:
            unreleased = [rt.copy_id for rts in self.groups[app.app_id].values()
                          for rt in rts if rt.spec.period_us == app.shortest_period_us
                          and rt.copy_id not in self._released]
            assert not unreleased, (
                f"app {app.app_id}'s round at {self.now}us is no release of its "
                f"shortest-period copies {unreleased}")
        ref = self.settings.reference.value(self.now)
        for n in range(2, len(self.model.lanes) + 1):
            assert not cross_monitor(dict.fromkeys(range(n), ref),
                                     self.voter).flagged, (
                f"{n} copies of the reference {ref!r} flagged at "
                f"{self.now}us under {self.voter}")
        for app in self._due_apps:
            for task_id, rts in self.groups[app.app_id].items():
                before = self._effects()
                self._vote_task(app.app_id, task_id, rts, ref)
                emitted = [v for _, v in self._emissions.values()]
                assert self._effects() == before and all(
                    v == ref for v in emitted), (
                    f"task {(app.app_id, task_id)} skipped by proof at "
                    f"{self.now}us, but its full vote emitted {emitted}")
            self.proof_skips += len(app.tasks)
            self.rounds.append((self.now, app.app_id, True, len(app.tasks)))
        self._voted = []

    def _check_beside(self, end):
        """The rounds voted beside the engine are every round before end."""
        want = sorted((at, app.app_id) for app in self._app_order
                      for at in range(app.shortest_period_us, end,
                                      app.shortest_period_us))
        got = [(at, app_id) for at, app_id, proof, _ in self.rounds if proof]
        assert got == want, (
            f"rounds voted beside the engine before {end}us: {got}, due {want}")
        self.checks += 1

    def _proof_ended(self):
        """Right after the first activation: every round before it was
        voted beside the engine and counts; the instant's rounds count on
        from here."""
        now = self.now
        self._check_beside(now)
        before = sum(len(range(app.shortest_period_us, now, app.shortest_period_us))
                     for app in self._app_order)
        assert self.counters["vote_rounds"] == before, (
            f"{self.counters['vote_rounds']} vote rounds counted as the proof "
            f"ends at {now}us, the periods give {before} before it")
        self._rounds_before = before
        self.checks += 1

    def _effects(self):
        """What a vote can write: rows, implicated copies, events, policing."""
        return (len(self.rows), frozenset(self._pending_implicated),
                len(self._heap), self._policed)

    def _check_rounds(self):
        """The rounds run so far this instant are the first due ones, in
        app id order, none under the proof, and each votes every task of
        its application, in task id order."""
        assert not self._proof_holds(), f"a round served at {self.now}us under the proof"
        rounds = self.counters["vote_rounds"] - self._rounds_before
        due = self._due_apps
        assert self._served < rounds <= len(due), (
            f"{rounds} vote rounds at {self.now}us, apps "
            f"{[app.app_id for app in due]} due")
        for app in due[self._served:rounds]:
            self.full_votes += len(app.tasks)
            self.rounds.append((self.now, app.app_id, False, 0))
        want = [(app.app_id, t.task_id) for app in due[:rounds]
                for t in sorted(app.tasks, key=lambda t: t.task_id)]
        assert self._voted == want, (
            f"apps {[app.app_id for app in due[:rounds]]} at {self.now}us: "
            f"voted {self._voted}")
        self._served = rounds
        self.checks += 1

    # -- after every event ----------------------------------------------

    def _holders(self):
        """place -> the (key, spec) of each copy in service there and each
        placement there not yet spawned."""
        holders = {place: [] for place in self.sets}
        for rt in self._all_copies():
            holders[rt.place].append((rt.key, rt.spec))
        for ep in self._bus_queue:      # placed, not yet spawned
            app = next(a for a in self.model.applications
                       if a.app_id == ep.app_id)
            for task_id, place in ep.placements.items():
                holders[place].append(((ep.app_id, task_id), app.task(task_id)))
        return holders

    def _check_capacity(self, holders):
        """Bus load and admitted sets equal a recount of what holds them."""
        load = _exact_sum(self._figures_of(spec)[0]
                          for held in holders.values() for _, spec in held)
        assert self.bus.current_load == load, (
            f"bus load at {self.now}us: kept {self.bus.current_load}, "
            f"recounted {load}")
        # each placement's demand follows the withdrawal of a copy of the
        # same task, so the comms check in select_spare never refuses here
        assert load <= self._baseline_load, (
            f"bus load at {self.now}us: {load} over the start-up {self._baseline_load}")
        recounted = set()   # id() of each admitted set recounted
        for place, held in holders.items():
            admitted = self.sets[place].admitted
            keys = [key for key, _ in held]
            assert len(set(keys)) == len(keys), (
                f"{place} at {self.now}us holds a task twice: {sorted(keys)}")
            assert len(admitted) == len(keys) and all(k in admitted for k in keys), (
                f"{place} at {self.now}us: admitted set differs from {sorted(keys)}")
            # the members of a set hold one admitted set, of equal keys
            if id(admitted) not in recounted:
                recounted.add(id(admitted))
                assert admitted.utilization == _exact_sum(
                    self._figures_of(spec)[1] for _, spec in held), (
                    f"{place} at {self.now}us: utilization differs from a recount")
        self.checks += 1

    def _check_service(self):
        """No copy in service sits on a dead processor, and an active copy
        with no completion is one set-up made."""
        for rt in self._all_copies():
            assert not self.sets[rt.place].dead, (
                f"copy {rt.copy_id} is {rt.health.value} on dead processor "
                f"{rt.place} at {self.now}us")
            assert (rt.health is not Health.ACTIVE or rt.completed_ever
                    or rt.copy_id not in self._filed), (
                f"copy {rt.copy_id}, filed at {self._filed.get(rt.copy_id)}us, "
                f"is active at {self.now}us with no completion")
        self.checks += 1

    def _check_placements(self):
        """Each recovery keeps its placements in task id order."""
        for ep in self._episodes:
            assert list(ep.placements) == sorted(ep.placements), (
                f"record {ep.record_id} at {self.now}us: placements "
                f"{list(ep.placements)} out of task id order")
        self.checks += 1

    def _check_records(self):
        """Every record's timestamps are in order; coverage fits the lanes."""
        for ep in self._episodes:
            assert ep.ordering_ok(), (
                f"record {ep.record_id} out of order at {self.now}us: "
                f"{ep.timestamps()}")
        lanes = len(self.model.lanes)
        for app_id in self.groups:
            levels = self._coverage(app_id)
            assert all(level <= lanes for level in levels), (
                f"app {app_id} coverage {levels} over {lanes} lanes at {self.now}us")
        self.checks += 1

    def _check_kept_facts(self):
        """The uncleared causes per restabilization, the copy lists and
        the last coverage samples equal full scans."""
        settled = self._settled_faults()
        for ep in self._episodes:
            left = sum(f.fault_id in ep.cause_ids for f in settled)
            # only a reconfiguration loses copies; a restabilization counts
            assert ep.uncleared == (0 if ep.lost else left), (
                f"record {ep.record_id} at {self.now}us counts {ep.uncleared} "
                f"causes not cleared, scanned {left}")
        # the lists hold every copy made that is not withdrawn, and no
        # other, in copy id order
        by_key, by_place = {}, {place: [] for place in self.sets}
        for rt in self._made:
            if rt.health is not Health.SHUTDOWN:
                by_key.setdefault(rt.key, []).append(rt)
                by_place[rt.place].append(rt)
        for app_id, group in self.groups.items():
            for task_id, rts in group.items():
                want = by_key.pop((app_id, task_id), [])
                assert rts == want, (
                    f"task {(app_id, task_id)} at {self.now}us lists copies "
                    f"{[rt.copy_id for rt in rts]}, in service "
                    f"{[rt.copy_id for rt in want]}")
        assert not by_key, f"copies in service at {self.now}us in no group: {by_key}"
        for place, want in by_place.items():
            rts = self._proc_copies[place]
            assert rts == want, (
                f"{place} at {self.now}us lists copies "
                f"{[rt.copy_id for rt in rts]}, in service "
                f"{[rt.copy_id for rt in want]}")
        for app_id, group in self.groups.items():
            healthy = sum(self.channels[app_id].values())
            want = (cov.functional_coverage(group), cov.zonal_coverage(group),
                    cov.peripheral_coverage(healthy))
            assert self._last_cov[app_id] == want, (
                f"app {app_id} at {self.now}us: last sampled coverage "
                f"{self._last_cov[app_id]}, recounted {want}")
        self.checks += 1

    def _check_sets(self, holders):
        """The places that share a set see one schedule, as full scans find
        it: each member holds its set's admitted tasks (_check_capacity
        recounts them), the permanent shutdowns so far recount dead, each
        job of the set is owned by one copy on each member, and the members
        agree on the jobs their copies own (key, release, remaining, start),
        the running job, failed and dead, and the faults that ever covered
        them. A set's proof is its admitted set's, and each task job's key
        is ranked. It notes the earliest deadline of a task job, which the
        next event must not pass."""
        sets = {}
        for place, ps in self.sets.items():
            sets.setdefault(id(ps), (ps, []))[1].append(place)
        owned = {place: {} for place in self.sets}
        earliest = None
        for ps, _ in sets.values():
            assert ps.proven == ps.admitted.proven(), (
                f"set of {ps.members} at {self.now}us: proven {ps.proven}")
            for job in ps.jobs.values():
                assert job.background or job.key in ps.prios, (
                    f"job {job.key} of {ps.members} unranked at {self.now}us")
                # one copy of each member, in lane order, owns the job
                assert [rt.place for rt in job.owner] == ps.members, (
                    f"job {job.key} of {ps.members} owned by "
                    f"{[rt.copy_id for rt in job.owner]} at {self.now}us")
                for rt in job.owner:
                    assert (rt.copy_id if job.background else rt.key) == job.key, (
                        f"job {job.key} owned by copy {rt.copy_id}")
                    owned[rt.place][job.key] = job
                if not job.background:
                    deadline = job.release_us + job.owner[0].spec.deadline_us
                    if earliest is None or deadline < earliest[0]:
                        earliest = (deadline, job)
        self._earliest_deadline = earliest
        for ps, places in sets.values():
            assert sorted(ps.members) == places == ps.members, (
                f"set of {ps.members} at {self.now}us")
            views = [self._member_view(ps, place, holders[place], owned[place])
                     for place in places]
            assert all(view == views[0] for view in views), (
                f"set of {places} at {self.now}us: {views}")
        self.checks += 1

    def _member_view(self, ps, place, held, owned):
        """What one member's own copies, jobs and faults say of its set."""
        jobs = ps.jobs
        assert owned == {job.key: job for job in jobs.values()}, (
            f"{place} at {self.now}us owns jobs {sorted(owned)}, "
            f"its set runs {sorted(jobs)}")
        running = ps.running
        assert running is None or running in jobs.values()
        assert ps.dead == any(contains(d, _place_scope(place)) for d in self._killed), (
            f"{place} at {self.now}us: dead {ps.dead}")
        # failed is recounted from the faults by _sweep after every fault
        # event, the only events that change it
        exposure = None if len(ps.members) == 1 else [
            f.fault_id for f in self._activated
            if f.target.kind is not TargetKind.SENSOR
            and overlaps(f.target, _place_scope(place))]
        return (frozenset(key for key, _ in held),
                sorted((job.background, job.key, job.release_us,
                        job.remaining_us, job.start_us) for job in owned.values()),
                None if running is None else (running.background, running.key),
                ps.failed, ps.dead, exposure)

    def _sweep(self):
        # a vote asks for its expected copies' skews only while _faults_at
        # holds a fault: it must be empty exactly when no non-sensor fault,
        # byzantine ones among them, is active
        assert bool(self._faults_at) == any(
            f.target.kind is not TargetKind.SENSOR
            for f in self._settled_faults()), (
            f"fault index {self._faults_at} at {self.now}us")
        # the engine asks about a copy only while its processor runs, so
        # ask about every copy and processor here as well, with no vote
        ref = self.settings.reference.value(self.now)
        for rt in self._all_copies():
            self._check_emission(rt, super()._emission(rt, ref))
        for place, ps in self.sets.items():
            assert ps.failed == self._halted(place)

    def _scan_bit(self):
        # one sweep offers each live place that BIT can see a settled fault
        # on, in (lane, proc) order, the faults in fault id order (at its
        # own activation instant a fault is surely active); a catch kills
        # no place but its own, which it was offered
        settled = sorted(self._settled_faults(), key=lambda f: f.fault_id)
        self._bit_scan = {}
        for place in sorted(self.sets):
            faults = [f for f in settled
                      if bit_detects(f, place, self._every_task, f.at_us)]
            if faults and not self.sets[place].dead:
                self._bit_scan[place] = faults
        self._offered = []

    # -- the indexed answers --------------------------------------------

    def _halted(self, place):
        got = super()._halted(place)
        self._agree("halted", got, lambda fs: _halting(fs, _place_scope(place)))
        return got

    def _emission(self, rt, ref):
        assert rt.copy_id not in self._emissions, (
            f"copy {rt.copy_id} asked for its emission twice at {self.now}us")
        got = super()._emission(rt, ref)
        assert self._faults_at or got[0] is None, (
            f"copy {rt.copy_id} skewed at {self.now}us with no fault active")
        self._check_emission(rt, got)
        self._emissions[rt.copy_id] = (rt, got[1])
        return got

    def _check_emission(self, rt, got):
        """The copy's skew and silence, as ``_emission`` gives them, are
        the settled scan's."""
        skew, value = got
        self._agree("skew", skew, lambda fs: next(
            (f for f in fs if f.kind is FaultKind.BYZANTINE
             and contains(f.target, _copy_scope(rt))), None))
        if rt.completed_ever and not self._replaying(rt):
            self._agree("silenced", value is None,
                        lambda fs: _halting(fs, _copy_scope(rt)))

    def _directive_causes(self, key):
        # the engine promises no order here: compare in fault id order
        got = super()._directive_causes(key)
        scope = _scope(key)
        self._agree("causes", sorted(got, key=lambda f: f.fault_id),
                    lambda fs: sorted((f for f in fs if overlaps(f.target, scope)),
                                      key=lambda f: f.fault_id))
        return got

    def _sensor_faults(self, app_id):
        got = super()._sensor_faults(app_id)
        self._agree("sensor faults", got, lambda fs: [
            f for f in fs
            if f.target.kind is TargetKind.SENSOR and f.target.app == app_id])
        return got

    def _bit_check(self, place, faults):
        self._offered.append(place)
        want = self._bit_scan.get(place, [])
        assert faults == want, (
            f"BIT faults on {place} at {self.now}us: offered "
            f"{[f.fault_id for f in faults]}, scanned {[f.fault_id for f in want]}")
        hosted = self._hosted(place)

        def caught(faults, hosted):
            return [f.fault_id for f in sorted(faults, key=lambda f: f.fault_id)
                    if f.fault_id not in self._bit_detected
                    and bit_detects(f, place, hosted, self.now)]

        # the engine asks bit_detects of its place's BIT faults alone
        self._agree("bit candidates", caught(faults, hosted),
                    lambda fs: caught(fs, {
                        rt.key for rt in self._all_copies()
                        if rt.place == place and rt.health is Health.ACTIVE}))
        super()._bit_check(place, faults)

    def _hosted(self, place):
        got = super()._hosted(place)
        assert got == {rt.key for rt in self._all_copies()
                       if rt.place == place and rt.health is Health.ACTIVE}
        self.checks += 1
        return got

    def _vote_task(self, app_id, task_id, rts, ref):
        assert rts is self.groups[app_id][task_id]
        assert rts == [rt for rt in self._copies_by_id()
                       if rt.key == (app_id, task_id)]
        assert ref == self.settings.reference.value(self.now)
        # what this task's copies emitted, each asked at most once
        self._emissions = {}
        self._voted.append((app_id, task_id))
        assert super()._vote_task(app_id, task_id, rts, ref) is None
        self.checks += 1

    def _police(self, watched, emitting, ref):
        key = watched[0].key
        assert watched == [rt for rt in self._copies_by_id() if rt.key == key
                           and rt.health in (Health.POLICED, Health.RESTABILIZING)]
        # the consensus takes every emitter's value: each is an active copy
        values = {rt.place: v for rt, v in self._emissions.values()
                  if rt.health is Health.ACTIVE and v is not None}
        assert emitting == values
        rows = len(self.rows)
        self._policed += 1
        self.checks += 1
        super()._police(watched, emitting, ref)
        # a row for each watched copy that emitted, in watched order
        votes = [row for row in self.rows[rows:] if row[1] == "PoliceRound.vote"]
        assert [row[2:4] for row in votes] == [
            rt.place for rt in watched
            if self._emissions.get(rt.copy_id, (rt, None))[1] is not None]
        by_place = {rt.place: rt for rt in watched}
        for row in votes:
            rt = by_place[row[2:4]]
            value = self._emissions[rt.copy_id][1]
            consensus = statistics.median(values.values())
            assert row[6] == (abs(value - consensus) <= self.cfg.tolerance), (
                f"copy {rt.copy_id} emitted {value} at {self.now}us against "
                f"the median {consensus} of {values}, row says {row[6]}")

    def _copies_in(self, key):
        got = super()._copies_in(key)
        assert got == [rt for rt in self._copies_by_place()
                       if contains(_scope(key), _copy_scope(rt))]
        self.checks += 1
        return got

    def _directive_victims(self, key, transient):
        # called once for each ShutdownApplied, before its row
        assert not self._proof, f"{key} shut down at {self.now}us under the proof"
        got = super()._directive_victims(key, transient)
        d = _scope(key)
        # a transient shutdown restabilizes the active copies; a permanent
        # one withdraws every copy still in service, and kills its places
        assert got == [rt for rt in self._copies_by_place() if contains(d, _copy_scope(rt))
                       and (not transient or rt.health is Health.ACTIVE)]
        if not transient:
            self._killed.append(d)
        self.checks += 1
        return got

    # -- spare selection ------------------------------------------------

    def _select_for(self, ep):
        # the mode-change rule may check each task job pending on a proven
        # set that this selection grows, at its deadline
        pending = {place: [job.release_us + job.owner[0].spec.deadline_us
                           for job in ps.jobs.values() if not job.background]
                   for place, ps in self.sets.items() if ps.proven}
        select_spare = sim.select_spare
        plans = []

        def checked(failed, spares, *args):
            ids = [f.key[1] for f in failed]
            assert ids == sorted(set(ids)), (
                f"record {ep.record_id} plans tasks {ids} at {self.now}us")
            plan = select_spare(failed, spares, *args)
            again = select_spare(failed, dict(reversed(spares.items())),
                                 *args)
            assert _plan_view(again) == _plan_view(plan), (
                f"record {ep.record_id} at {self.now}us: the plan depends on "
                f"the order of the spares")
            self.checks += 1
            plans.append(plan)
            return plan

        rows = len(self.rows)
        sim.select_spare = checked
        try:
            super()._select_for(ep)
        finally:
            sim.select_spare = select_spare
        # each adopted placement is a chosen decision of the plan, and its
        # row gives the utilization that decision's admission found
        chosen = [d for plan in plans for d in plan.placements]
        assert all(any(d is tried for tried in plan.decisions)
                   and d.admission.accepted and d.comms.accepted
                   for plan in plans for d in plan.placements)
        assert [(d.task_id, d.place) for d in chosen] == list(ep.placements.items())
        assert [(row[5], row[2:4], row[6]) for row in self.rows[rows:]
                if row[1] == "SpareSelected"] == [
            (d.task_id, d.place, d.admission.resulting_utilization)
            for d in chosen], (
            f"record {ep.record_id} at {self.now}us: SpareSelected rows "
            f"differ from the plan's placements")
        for place in ep.placements.values():
            self._check_instants.update(pending.get(place, ()))


def _plan_view(plan):
    """What a spare selection decides: every decision tried, the
    placements, the degraded tasks, the bus load, and each spare's admitted
    entries and utilization after the plan's reservations."""
    return (plan.decisions, plan.placements, plan.degraded,
            plan.bus.current_load,
            {place: (list(state._entries.items()), state.utilization)
             for place, state in plan.states.items()})


def test_the_checker_overrides_only_the_seams_its_docstring_names():
    # no class here handles an event by its handler's name, and each Engine
    # method CheckedEngine replaces is a per-call contract the module
    # docstring lists
    classes = [value for value in globals().values()
               if isinstance(value, type) and value.__module__ == __name__]
    assert [f"{cls.__name__}.{name}" for cls in classes for name in vars(cls)
            if name.startswith("_on_")] == []
    overridden = {name for name, value in vars(CheckedEngine).items()
                  if callable(value) and name in vars(Engine)}
    items = re.findall(r"^- ((?:``\w+``,?\s*)+):",
                       __doc__.split("Per-call contracts")[1], re.M)
    assert overridden == {name for item in items
                          for name in re.findall(r"``(\w+)``", item)}


def _outputs(result):
    return (json.dumps(metrics_document(result), sort_keys=True),
            list(trace_lines(result)), result.completions)


def _check(scenario):
    engine = CheckedEngine(scenario)
    checked = engine.run()
    assert _outputs(checked) == _outputs(Engine(scenario).run())
    return engine


def _kinds(engine) -> list:
    """(time_us, kind) of each trace row the engine has noted."""
    return [sim.render(row)[:2] for row in engine.rows]


def _with_reversed_fault_ids(path):
    """The document with fault ids that run against its list order."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    faults = doc.get("faults", [])
    for i, fault in enumerate(faults):
        fault["fault_id"] = len(faults) - 1 - i
    return parse_scenario(doc)


# No golden document sets a fault id, so each with two faults or more also
# runs with its ids reversed: scenario order (the engine's rank) and id
# order (BIT's) then part.
_GOLDEN = sorted(SCENARIOS.glob("*.json"))
_SEVERAL_FAULTS = [p for p in _GOLDEN if len(
    json.loads(p.read_text(encoding="utf-8")).get("faults", [])) > 1]


@pytest.mark.parametrize("path, reversed_ids", [
    *(pytest.param(p, False, id=p.stem) for p in _GOLDEN),
    *(pytest.param(p, True, id=f"{p.stem}-reversed_ids") for p in _SEVERAL_FAULTS)])
def test_indexes_agree_with_full_scans_on_the_golden_corpus(path, reversed_ids):
    engine = _check(_with_reversed_fault_ids(path) if reversed_ids
                    else load_scenario(path))
    assert engine.checks > 0


def _generated(seed):
    horizon_ms = [3, 7.5, 40, 60][seed % 4]
    doc = generate_scenario(lanes=2 + seed % 3, procs=3 + seed % 2, apps=2,
                            seed=seed, faults=1 + seed % 10,
                            horizon_ms=horizon_ms)
    if horizon_ms < 10:
        # generated fault times then fall in the first few milliseconds;
        # run BIT every millisecond so it sees them
        doc["sim"]["bit_period_ms"] = 1
    if seed % 3 == 0:
        doc["sim"]["bit_detect_probability"] = 0.5
    return parse_scenario(doc)


@pytest.mark.parametrize("first", range(0, 120, 20))
def test_indexes_agree_with_full_scans_on_generated_faults(first):
    for seed in range(first, first + 20):
        _check(_generated(seed))


@pytest.mark.parametrize("first", [0, 30])
def test_indexes_agree_with_full_scans_on_the_generated_golden_seeds(first):
    # these add state models, bus capacities, the mean voter and the gate
    for seed in SEEDS[first:first + 30]:
        _check(generated_scenario(seed))


def test_a_fault_clearing_later_in_the_same_instant_still_counts():
    # the lane clears first (fault id order); the processor fault inside
    # it clears in the same instant, but only when its own event runs
    engine = _check(parse_scenario(scenario_doc([
        lane_fault(at_ms=30, kind="transient", duration_ms=20),
        proc_fault(at_ms=40, kind="transient", duration_ms=10),
    ])))
    assert engine.lagging > 0


def _tasks_voted(engine, rounds):
    """How many task votes the rounds' applications hold."""
    counts = {app.app_id: len(app.tasks) for app in engine.model.applications}
    return sum(counts[app_id] for _, app_id, _, _ in rounds)


def test_skipped_votes_on_the_mean_voter_scenario():
    # the proof skips the rounds before the byzantine fault at 70 ms; from
    # it on, through the transient fault at 85 ms and the agreeing copies
    # at 280 ms whose float mean misses them, each round votes every task
    # in full (CheckedEngine asserts the order)
    engine = _check(load_scenario(SCENARIOS / "mean_voter_quiet_marks.json"))
    first = next(at for at, kind in _kinds(engine) if kind == "FaultActivate")
    assert first == 70_000
    early = [row for row in engine.rounds if row[0] < first]
    late = [row for row in engine.rounds if row[0] >= first]
    assert early and all(proof and by_proof for _, _, proof, by_proof in early)
    assert late and not any(proof or by_proof for _, _, proof, by_proof in late)
    assert any(at == 280_000 for at, _, _, _ in late)
    assert engine.full_votes == _tasks_voted(engine, late)


def test_an_unproven_start_sets_no_proof_and_votes_every_round():
    # the overload's sets fail the response-time test from the start, so
    # every round votes every task in full
    scenario = load_scenario(SCENARIOS / "overload_deadline_misses.json")
    assert not Engine(scenario)._proof
    engine = _check(scenario)
    assert engine.rounds and engine.proof_skips == 0
    assert not any(proof for _, _, proof, _ in engine.rounds)
    assert engine.full_votes == _tasks_voted(engine, engine.rounds)


def test_a_copy_takes_its_skew_from_the_first_fault_in_list_order():
    # two byzantine faults on one processor, both active at the 60 ms
    # round: the second in the list activates first and has the lower id,
    # so an index kept in activation order, or ranked by fault id, hands
    # the copy the other fault's skew
    byzantine = [{"fault_id": fault_id, "at_ms": at_ms, "kind": "byzantine",
                  "value_skew": skew,
                  "target": {"kind": "processor", "lane": 0, "proc": 0}}
                 for fault_id, at_ms, skew in ((1, 55, 3.0), (0, 51, 5.0))]
    engine = _check(parse_scenario(scenario_doc(byzantine)))
    assert (60_000, "Detection") in _kinds(engine)


class _VoteCount(Engine):
    """An Engine that counts its task votes."""

    votes = 0

    def _vote_task(self, app_id, task_id, rts, ref):
        self.votes += 1
        super()._vote_task(app_id, task_id, rts, ref)


@pytest.mark.parametrize("seed,horizon_ms", [(0, 20), (1, 20), (2, 20),
                                             (0, 100)])
def test_fault_free_benchmark_shapes_vote_no_task(seed, horizon_ms):
    # the fault-free benchmark workloads' shape: every set is proven, so
    # the proof holds to the horizon and no round votes a task
    engine = _VoteCount(parse_scenario(generate_scenario(
        lanes=4, procs=20, apps=8, seed=seed, horizon_ms=horizon_ms)))
    result = engine.run()
    assert result.counters["vote_rounds"] > 0
    assert engine._proof and engine.votes == 0


def test_the_first_fault_ends_the_proof_even_on_a_sensor():
    # a sensor fault touches no copy, yet from it on the rounds vote
    engine = _check(parse_scenario(scenario_doc([
        {"at_ms": 50, "kind": "permanent", "value_skew": 2.0,
         "target": {"kind": "sensor", "app": 1, "lane": 2}}])))
    assert not engine._proof
    for at, app_id, proof, by_proof in engine.rounds:
        early = at < 50_000
        assert (proof, by_proof) == (early, int(early)), (at, app_id)
    late = [row for row in engine.rounds if row[0] >= 50_000]
    assert late and engine.full_votes == _tasks_voted(engine, late)


def test_the_mean_voter_keeps_the_proof_to_the_horizon():
    # fault-free under the mean voter: app 1 votes every 20 ms, app 2 every
    # 50 ms. At 60 and 150 ms the float mean of three copies of the
    # reference misses it by more than the tolerance, but the consensus
    # stays inside the values it averages, so every round is skipped by
    # proof and nothing is shut down
    engine = _check(load_scenario(SCENARIOS / "mean_voter_proof_exception.json"))
    assert not engine.sc.faults and engine._proof
    for at in (60_000, 150_000):
        ref = engine.settings.reference.value(at)
        assert abs(sum([ref] * 3) / 3 - ref) > engine.voter.tolerance
    assert engine.rounds and all(
        proof and by_proof == 1 for _, _, proof, by_proof in engine.rounds)
    assert {at for at, _, _, _ in engine.rounds} >= {60_000, 150_000}
    assert engine.full_votes == 0
    assert not [kind for _, kind in _kinds(engine)
                if kind in ("Detection", "ShutdownApplied")]
    assert engine._episodes == []


def test_an_admitted_run_pushes_no_deadline_check():
    # admission under 0.69 proves every set, so every check is skipped and
    # each skipped one is run beside the engine
    engine = _check(parse_scenario(generate_scenario(
        lanes=3, procs=4, apps=3, seed=5, faults=4, horizon_ms=60)))
    assert engine.deadline_checks == 0 and engine.skipped_checks > 0


@pytest.mark.parametrize("name,spare", [
    ("mode_change_deadline_miss", (0, 2)),
    ("withdraw_readmit_deadline_miss", (0, 3)),
])
def test_a_growing_spare_checks_the_jobs_it_released_unchecked(name, spare):
    # spare selection grows the spare's proven set while a job of app 1
    # released there without a check is pending: the job gets its check
    # then, and misses
    engine = _check(load_scenario(SCENARIOS / f"{name}.json"))
    assert engine.skipped_checks > 0
    # a raw row: (time_us, text, lane, proc, app, task, *facts)
    first = next(row for row in engine.rows if row[1] == "DeadlineMiss")
    assert first[2:5] == (*spare, 1)


def test_a_lane_shutdown_kills_its_own_spare_and_no_other():
    # permanent faults on the three workers of lane 0 implicate the whole
    # lane, and its shutdown kills lane 0's spare too; the spares of lanes
    # 1 and 2 shared one schedule with it and must stay alive to take two
    # of the lost copies
    engine = _check(parse_scenario(scenario_doc([
        proc_fault(at_ms=50, proc=proc) for proc in range(3)])))
    assert [(place, ps.dead) for place, ps in engine.sets.items()
            if place[1] == 3] == [((0, 3), True), ((1, 3), False), ((2, 3), False)]
    assert sorted(place for ep in engine._episodes
                  for place in ep.placements.values()) == [(1, 3), (2, 3)]


class _Stopped(Exception):
    """The run reached the event it was to stop before."""


class _WithdrawalSpy(Engine):
    """An Engine that records every copy list it takes out of service, and
    stops its run before the first event past (at_us, rank)."""

    def __init__(self, scenario, stop_after):
        super().__init__(scenario)
        self.withdrawals = []
        self._stop_after = stop_after

    def _handlers(self):
        def stopping(rank, handler):
            def handle(data):
                if (self.now, rank) > self._stop_after:
                    raise _Stopped
                handler(data)
            return handle
        return tuple(stopping(rank, handler)
                     for rank, handler in enumerate(super()._handlers()))

    def _withdraw(self, copies):
        self.withdrawals.append([rt.copy_id for rt in copies])
        super()._withdraw(copies)


def test_overlapping_permanent_scopes_withdraw_each_copy_once():
    # no classification or BIT check emits two scopes where one holds the
    # other, so the two directives are applied by hand: a permanent lane
    # fault and a permanent processor fault inside it, both active now
    engine = _WithdrawalSpy(parse_scenario(scenario_doc([
        lane_fault(at_ms=50), proc_fault(at_ms=50, lane=0, proc=0)])),
        stop_after=(50_000, _ACTIVATE))
    start_load = engine.bus.current_load
    with pytest.raises(_Stopped):
        engine.run()
    engine.now = 50_000
    active = [f for f in engine.sc.faults if f.active_at(engine.now)]
    assert len(active) == 2
    # read before the shutdown, which takes them out of the lists
    lane0 = [rt for rts in engine._proc_copies.values() for rt in rts
             if rt.place[0] == 0]
    engine._apply_directives([f.target.key for f in active])

    assert lane0 and all(rt.health is Health.SHUTDOWN for rt in lane0)
    assert not any(rts for place, rts in engine._proc_copies.items()
                   if place[0] == 0)
    assert engine.withdrawals == [[rt.copy_id for rt in lane0]]
    assert sorted(i for ep in engine._episodes for i in ep.failed_copy_ids) == (
        sorted(rt.copy_id for rt in lane0))
    for place, rts in engine._proc_copies.items():
        left = ProcessorState({
            rt.key: (rt.spec.wcet_us, rt.spec.period_us, rt.spec.deadline_us)
            for rt in rts})
        ps = engine.sets[place]
        assert len(ps.admitted) == len(left)
        assert ps.admitted.utilization == left.utilization
        assert ps.admitted.priorities() == ps.prios == left.priorities()
    assert engine.bus.current_load == start_load - sum(
        message_demand(rt.spec) for rt in lane0)


def _two_task_system(lanes):
    """One application of two tasks on worker 0 of each lane."""
    return single_app_system(lanes=lanes, tasks=[
        {"task_id": t, "wcet_ms": 2, "period_ms": 20, "deadline_ms": 20,
         "initial_proc": 0, "code_size": 40,
         "messages": [{"msg_id": 1, "size": 1, "period_ms": 20}]}
        for t in (1, 2)])


@settings(max_examples=40, deadline=None)
@given(lanes=st.integers(2, 4),
       base=st.floats(-1e6, 1e6, allow_nan=False),
       slope=st.floats(-50, 50, allow_nan=False),
       ulps=st.sampled_from((0.5, 0.75, 1.0)) | st.floats(1.0, 2.0 ** 60),
       consensus=st.sampled_from(list(Consensus)),
       faults=st.booleans())
def test_skipped_votes_match_full_votes_on_any_reference(lanes, base, slope,
                                                        ulps, consensus,
                                                        faults):
    # tolerances from under one ulp of the reference up: the float mean of
    # three equal values can then miss them and flag a proof round (near
    # zero, half an ulp could round to a tolerance of 0)
    horizon_ms = 200
    tolerance = math.ulp(max(abs(base), 1.0)) * ulps
    doc = scenario_doc([
        {"at_ms": 70, "kind": "byzantine", "value_skew": 1.0,
         "target": {"kind": "processor", "lane": 0, "proc": 0}},
        proc_fault(at_ms=85, lane=lanes - 1, proc=0, kind="transient",
                   duration_ms=20),
    ] if faults else [], system=_two_task_system(lanes), horizon_ms=horizon_ms,
        sim={"reference": {"value": base, "slope_per_ms": slope}})
    doc["voter"] = {"consensus": consensus.value, "tolerance": tolerance}
    engine = _check(parse_scenario(doc))
    assert engine.proof_skips > 0
    if not faults:
        assert "Detection" not in [kind for _, kind in _kinds(engine)]


_APPROVAL_SCOPES = ("lane", "processor", "app", "task", "sensor")


@st.composite
def _fuzzed_documents(draw):
    """generate_scenario with faults, BIT that may miss, and the gate."""
    horizon_ms = draw(st.sampled_from((20, 60, 120)))
    lanes, procs = draw(st.integers(2, 4)), draw(st.integers(3, 4))
    doc = generate_scenario(lanes=lanes, procs=procs, apps=draw(st.integers(1, 3)),
                            seed=draw(st.integers(0, 2**32 - 1)),
                            faults=draw(st.integers(1, 12)), horizon_ms=horizon_ms)
    doc["sim"]["bit_period_ms"] = draw(st.integers(1, 30))
    doc["sim"]["bit_detect_probability"] = draw(st.sampled_from((0.25, 0.5, 0.9)))
    if draw(st.booleans()):
        approvals = []
        for _ in range(draw(st.integers(0, 4))):
            app = draw(st.sampled_from(doc["system"]["applications"]))
            approval = {"at_ms": draw(st.integers(1, horizon_ms)),
                        "lane": draw(st.integers(0, lanes - 1))}
            scope = draw(st.sampled_from(_APPROVAL_SCOPES))
            if scope == "processor":
                approval["proc"] = draw(st.integers(0, procs - 1))
            elif scope == "app":
                approval["app"] = app["app_id"]
            elif scope == "task":
                task = draw(st.sampled_from(app["tasks"]))
                approval.update(proc=task["initial_proc"], app=app["app_id"],
                                task=task["task_id"])
            elif scope == "sensor":
                approval.update(app=app["app_id"], sensor=True)
            approvals.append(approval)
        doc["policies"] = {"pilot_gate": True, "pilot_approvals": approvals}
    return doc


@settings(max_examples=50, deadline=None)
@given(_fuzzed_documents())
def test_indexes_and_skips_agree_with_full_scans_on_fuzzed_scenarios(doc):
    # faults end the proof in the middle of a run
    engine = _check(parse_scenario(doc))
    # admitted under 0.69, every set is proven, so the proof skips each
    # round before the first fault (one at the round's instant pops first)
    first_round = min(app.shortest_period_us for app in engine.model.applications)
    if first_round <= engine.horizon and first_round < min(
            f.at_us for f in engine.sc.faults):
        assert engine.proof_skips > 0


# fault_storm's shape: 4 lanes of 10 processors, 8 applications and 40
# faults, each application given one of the three state paths in rotation
_STATE_MODELS = (
    lambda size: {"strategy": "transfer", "snapshot_size": size, "history_len": 4},
    lambda size: {"strategy": "convergence", "convergence_rounds": 3},
    lambda size: {"strategy": "hybrid", "snapshot_size": size,
                  "min_state_size": max(1, size // 4), "convergence_rounds": 2},
)


@pytest.mark.parametrize("seed, horizon_ms", [(11, 40), (12, 30), (14, 30)])
def test_indexes_agree_with_full_scans_at_the_fault_storm_shape(seed, horizon_ms):
    doc = generate_scenario(lanes=4, procs=10, apps=8, seed=seed, faults=40,
                            horizon_ms=horizon_ms)
    for k, app in enumerate(doc["system"]["applications"]):
        size = app["state_model"]["snapshot_size"]
        app["state_model"] = _STATE_MODELS[(k + seed) % 3](size)
    engine = _check(parse_scenario(doc))
    # the run reaches every path the fault_storm workload exercises
    assert engine.full_votes > 0 and engine._episodes
    assert {ep.strategy.value for ep in engine._episodes} == {
        "transfer", "convergence", "hybrid"}
