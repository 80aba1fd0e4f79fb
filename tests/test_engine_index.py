"""The engine's fault and copy indexes answer as full scans would.

``CheckedEngine`` recomputes every indexed answer from scratch, by
filtering all of ``scenario.faults`` through ``FaultSpec.active_at`` and
``FaultTarget.contains`` and by scanning every copy ever created, and
asserts that both agree, at every call, over the golden corpus and over
generated scenarios with faults. After set-up and after each shutdown,
selection and state transfer it also recounts the capacity the engine
keeps: the bus load and every processor's admitted set and utilization
must be exactly those of the copies still in service and the placements
not yet spawned, and the bus load never rises above its start-up
baseline. After each shutdown, spawn and readmission no copy in
service may sit on a dead processor. A vote round may look up each copy's
byzantine fault and emitted value only once, and it looks up none for its
expected copies while the engine's index of active faults is empty: after
each fault event that index is empty exactly when no non-sensor fault is
active. After every event each recovery record's timestamps are in order
and no application's coverage level exceeds the lane count.

The recovery path keeps three facts where they change, and after every
event each must equal a full scan: the causes of each restabilization
still active, the (app, task) pairs of the active copies on each place,
once the engine has built that index, and the coverage last sampled for
each application whose copies and channels have not changed since
(``functional_coverage``, ``zonal_coverage`` and ``peripheral_coverage``
of it now). Each BIT sweep must offer exactly the live places that
``bit_detects`` over the active faults finds a fault on, in (lane, proc)
order, each with those faults in fault id order.

Places with one processor index share one schedule, their set, until an
event treats them differently. After every event each set's members must
agree, by full scans of the copies, jobs and faults, on the admitted set,
the jobs their copies own, the running job, failed and dead, and the
faults that ever covered them; each of a set's jobs is owned by one copy on
each member.

Before any fault activates, with every place's start-up set proven by a
recount, a vote round skips every task, and ``cross_monitor`` must flag no
count of equal copies of the reference from two to the lane count. Beside
every task the proof skips the full vote runs and must change nothing: no
trace row, no implicated copy, no event, no policing; and every due copy in
it must emit the reference. Every other round votes every task of its
application in full, in task id order. No shutdown applies while the proof
holds.

Release and deadline events act on release groups. Each group pushed
holds copies of one task in ascending copy id and is keyed by the first;
a copy made after set-up is alone in its group, and a release group
holds no withdrawn copy. A release must start a job for exactly the
group's copies in service on a processor that no fault halts.

A release pushes its deadline check only when one of the sets it released
on holds an admitted set that the response-time test does not prove.
Beside every check skipped, a stand-in event runs at the check's deadline
and rank and asserts that ``expire`` would find nothing to abort there,
unless a check the engine pushed later (the mode-change rule) covers the
job. After every event each set's ``proven`` flag equals the test on its
admitted set, and every task job's key is ranked in the set's ``prios``.

Answers are compared, not the raw fault sets. Inside a fault handler the
index may legitimately lag ``active_at``: a fault that activates later in
the same instant is not in it yet, and one that clears later in the same
instant is still in it. The reference accounts for those queued fault
events and counts the answers where the plain ``active_at`` scan differs.
"""

import heapq
import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lanesim import coverage as cov
from lanesim.cli import metrics_document, trace_lines
from lanesim.fault import (Consensus, FaultKind, FaultTarget, TargetKind,
                           bit_detects, cross_monitor)
from lanesim.reconfig import Health
from lanesim.scenario import generate_scenario, load_scenario, parse_scenario
from lanesim.sim import Engine, EventKind
from lanesim.timing import ProcessorState, task_utilization

from scenario_builders import (lane_fault, proc_fault, scenario_doc,
                               single_app_system)
from golden.generated import SEEDS, generated_scenario
from golden.rehash import SCENARIOS

_FAULT_EVENTS = (EventKind.FAULT_ACTIVATE, EventKind.FAULT_CLEAR)


def _halting(faults, scope):
    return any(f.kind is not FaultKind.BYZANTINE and f.target.contains(scope)
               for f in faults)


def _copy_scope(rt):
    """The task scope of a copy, built from its coordinates."""
    return FaultTarget(TargetKind.TASK, lane=rt.lane, proc=rt.proc,
                       app=rt.app_id, task=rt.task_id)


def _place_scope(place):
    """The processor scope of a (lane, proc) place."""
    lane, proc = place
    return FaultTarget(TargetKind.PROCESSOR, lane=lane, proc=proc)


class CheckedEngine(Engine):
    """An Engine that checks each indexed answer against a full scan."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.checks = 0
        self.lagging = 0     # answers where the plain active_at scan differs
        self.skipped_checks = 0  # deadline checks skipped, each checked here
        self._pushed_checks = 0  # deadline checks the engine pushed so far
        self._checked = set()    # (copy id, release) of every pushed check
        self.proof_skips = 0     # task votes the proof skips, each checked
        self.full_votes = 0      # task votes run in full outside the proof
        self._skews, self._emissions = set(), {}
        self._voted, self._policed = [], 0
        self._activated = []     # the faults whose activation has run
        self._killed = []        # the scopes of the permanent shutdowns
        self._bit_scan = {}      # live place -> its BIT faults, at a sweep
        self._offered = []       # the places the sweep has offered so far
        # a vote round walks the groups' tasks as kept: in task id order
        for app in self.model.applications:
            assert list(self.groups[app.app_id].copies) == sorted(
                t.task_id for t in app.tasks)
        # the start-up sets, recounted from each place's copies
        self._proven_at_start = all(ProcessorState({
            rt.key: (rt.spec.wcet_us, rt.spec.period_us, rt.spec.deadline_us)
            for rt in rts}).proven() for rts in self._proc_copies.values())
        # set-up builds the admitted sets and the bus load in one pass
        self._baseline_load = self.bus.current_load
        self._check_capacity()
        # the copies set-up made; a later one is a rebuilt copy
        self._last_initial_id = max(rt.copy_id for rt in self._all_copies())
        # every (app, task): bit_detects given these as hosted sees every
        # BIT-visible fault on a place
        self._every_task = {(app.app_id, t.task_id)
                            for app in self.model.applications for t in app.tasks}
        push = self._push

        def push_checked(at_us, kind, key, data):
            if kind is EventKind.TASK_RELEASE:
                self._check_group(key, data)
                assert all(rt.health is not Health.SHUTDOWN for rt in data), (
                    f"release group {key} holds a withdrawn copy at {self.now}us")
            elif kind is EventKind.DEADLINE_CHECK:
                self._check_group(key, data[0])
                self._pushed_checks += 1
                self._checked.update((rt.copy_id, data[1]) for rt in data[0])
            push(at_us, kind, key, data)

        self._push = push_checked
        self._push_skipped = push

    # -- the references -------------------------------------------------

    def _scanned_faults(self):
        return [f for f in self.sc.faults if f.active_at(self.now)]

    def _settled_faults(self):
        """The scan, less what fault events queued at this instant change."""
        queued = {id(data) for at, _, _, _, kind, data in self._heap
                  if at == self.now and kind in _FAULT_EVENTS}
        return [f for f in self.sc.faults
                if f.active_at(self.now) != (id(f) in queued)]

    def _agree(self, what, got, answer):
        """answer(faults) computed over the settled faults must equal got."""
        want = answer(self._settled_faults())
        assert got == want, f"{what} at {self.now}us: index {got!r}, scan {want!r}"
        if answer(self._scanned_faults()) != got:
            self.lagging += 1
        self.checks += 1

    def _all_copies(self):
        return [rt for group in self.groups.values()
                for rts in group.copies.values() for rt in rts]

    def _copies_by_id(self):
        return sorted(self._all_copies(), key=lambda rt: rt.copy_id)

    def _check_capacity(self):
        """Bus load and admitted sets equal a recount of what holds them."""
        holders = {place: [] for place in self.sets}   # place -> [(key, spec)]
        load = Fraction(0)
        for rt in self._all_copies():
            if rt.health is not Health.SHUTDOWN:
                holders[rt.place].append((rt.key, rt.spec))
                load += rt.spec.message_demand
        for ep in self._bus_queue:      # placed, not yet spawned
            app = self.model.application(ep.app_id)
            for task_id, place in ep.placements.items():
                spec = app.task(task_id)
                holders[place].append(((ep.app_id, task_id), spec))
                load += spec.message_demand
        assert self.bus.current_load == load, (
            f"bus load at {self.now}us: kept {self.bus.current_load}, "
            f"recounted {load}")
        # each placement's demand follows the withdrawal of a copy of the
        # same task, so the comms check in select_spare never refuses here
        assert load <= self._baseline_load, (
            f"bus load at {self.now}us: {load} over the start-up {self._baseline_load}")
        for place, held in holders.items():
            admitted = self.sets[place].admitted
            keys = [key for key, _ in held]
            assert len(set(keys)) == len(keys), (
                f"{place} at {self.now}us holds a task twice: {sorted(keys)}")
            assert len(admitted) == len(keys) and all(k in admitted for k in keys), (
                f"{place} at {self.now}us: admitted set differs from {sorted(keys)}")
            assert admitted.utilization == sum(
                (task_utilization(t.wcet_us, t.period_us, t.deadline_us)
                 for _, t in held), Fraction(0)), (
                f"{place} at {self.now}us: utilization differs from a recount")
        self.checks += 1

    def _check_group(self, key, copies):
        """One task's copies in ascending copy id, keyed by the first; a
        rebuilt copy alone."""
        ids = [rt.copy_id for rt in copies]
        assert ids and key == ids[0] and ids == sorted(set(ids)), (
            f"group {ids} keyed {key} at {self.now}us")
        assert len({rt.key for rt in copies}) == 1, (
            f"group {ids} mixes tasks at {self.now}us")
        assert len(ids) == 1 or ids[-1] <= self._last_initial_id, (
            f"rebuilt copy grouped with others: {ids} at {self.now}us")
        self.checks += 1

    def _handlers(self):
        def checked(handler):
            def handle(data):
                handler(data)
                self._check_records()
                self._check_sets()
                self._check_kept_facts()
            return handle
        return tuple(checked(handler) for handler in super()._handlers())

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
        """The uncleared causes per restabilization, the hosting index and
        the cached coverage equal full scans."""
        settled = self._settled_faults()
        for ep in self._episodes:
            left = sum(f.fault_id in ep.cause_ids for f in settled)
            assert ep.uncleared == (left if ep.origin == "restabilize" else 0), (
                f"record {ep.record_id} at {self.now}us counts {ep.uncleared} "
                f"causes not cleared, scanned {left}")
        if self._hosting is not None:
            hosting = {place: set() for place in self.sets}
            for rt in self._all_copies():
                if rt.health is Health.ACTIVE:
                    hosting[rt.place].add(rt.key)
            assert self._hosting == hosting, (
                f"hosting index at {self.now}us differs from a scan")
        for app_id, group in self.groups.items():
            if app_id in self._cov_stale or app_id not in self._last_cov:
                continue
            healthy = sum(self.channels[app_id].values())
            want = (cov.functional_coverage(group), cov.zonal_coverage(group),
                    cov.peripheral_coverage(healthy))
            assert self._last_cov[app_id] == want, (
                f"app {app_id} at {self.now}us: cached coverage "
                f"{self._last_cov[app_id]}, recounted {want}")
        self.checks += 1

    def _check_sets(self):
        """The places that share a set see one schedule, as full scans find
        it: each member's in-service copies and pending placements recount
        the admitted set, the permanent shutdowns so far recount dead, each
        job of the set is owned by one copy on each member, and the members
        agree on the jobs their copies own (key, release, remaining, start),
        the running job, failed and dead, and the faults that ever covered
        them. A set's proof is its admitted set's, and each task job's key
        is ranked."""
        sets = {}
        for place, ps in self.sets.items():
            sets.setdefault(id(ps), (ps, []))[1].append(place)
        owned = {place: {} for place in self.sets}
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
        held = {place: set() for place in self.sets}
        for rt in self._all_copies():
            if rt.health is not Health.SHUTDOWN:
                held[rt.place].add(rt.key)
        for ep in self._bus_queue:
            for task_id, place in ep.placements.items():
                held[place].add((ep.app_id, task_id))
        for ps, places in sets.values():
            assert sorted(ps.members) == places == ps.members, (
                f"set of {ps.members} at {self.now}us")
            views = [self._member_view(ps, place, held[place], owned[place])
                     for place in places]
            assert all(view == views[0] for view in views), (
                f"set of {places} at {self.now}us: {views}")
        self.checks += 1

    def _member_view(self, ps, place, held, owned):
        """What one member's own copies, jobs and faults say of its set."""
        assert len(ps.admitted) == len(held) and all(k in ps.admitted for k in held), (
            f"{place} at {self.now}us: admitted set differs from {sorted(held)}")
        jobs = ps.jobs
        assert owned == {job.key: job for job in jobs.values()}, (
            f"{place} at {self.now}us owns jobs {sorted(owned)}, "
            f"its set runs {sorted(jobs)}")
        running = ps.running
        assert running is None or running in jobs.values()
        assert ps.dead == any(d.contains(_place_scope(place)) for d in self._killed), (
            f"{place} at {self.now}us: dead {ps.dead}")
        # failed is recounted from the faults by _sweep after every fault
        # event, the only events that change it
        exposure = None if len(ps.members) == 1 else [
            f.fault_id for f in self._activated
            if f.target.kind is not TargetKind.SENSOR
            and f.target.overlaps(_place_scope(place))]
        return (frozenset(held),
                sorted((job.background, job.key, job.release_us,
                        job.remaining_us, job.start_us) for job in owned.values()),
                None if running is None else (running.background, running.key),
                ps.failed, ps.dead, exposure)

    def _check_service(self):
        """No copy in service sits on a dead processor."""
        for rt in self._all_copies():
            assert rt.health is Health.SHUTDOWN or not self.sets[rt.place].dead, (
                f"copy {rt.copy_id} is {rt.health.value} on dead processor "
                f"{rt.place} at {self.now}us")
        self.checks += 1

    # -- the indexed answers --------------------------------------------

    def _silenced(self, rt, pr):
        got = super()._silenced(rt, pr)
        self._agree("silenced", got, lambda fs: _halting(fs, _copy_scope(rt)))
        return got

    def _halted(self, place):
        got = super()._halted(place)
        self._agree("halted", got, lambda fs: _halting(fs, _place_scope(place)))
        return got

    def _skew_for(self, rt):
        assert rt.copy_id not in self._skews, (
            f"copy {rt.copy_id} asked for its skew twice at {self.now}us")
        self._skews.add(rt.copy_id)
        got = super()._skew_for(rt)
        self._agree("skew", got, lambda fs: next(
            (f for f in fs if f.kind is FaultKind.BYZANTINE
             and f.target.contains(_copy_scope(rt))), None))
        return got

    def _directive_causes(self, d):
        got = super()._directive_causes(d)
        self._agree("causes", got,
                    lambda fs: [f for f in fs if f.target.overlaps(d)])
        return got

    def _sensor_faults(self, app_id):
        got = super()._sensor_faults(app_id)
        self._agree("sensor faults", got, lambda fs: [
            f for f in fs
            if f.target.kind is TargetKind.SENSOR and f.target.app == app_id])
        return got

    def _on_fault_activate(self, data):
        super()._on_fault_activate(data)
        self._activated.append(data)
        self._sweep()

    def _on_fault_clear(self, data):
        super()._on_fault_clear(data)
        self._sweep()

    def _sweep(self):
        # a vote asks for its expected copies' skews only while _faults_at
        # holds a fault: it must be empty exactly when no non-sensor fault,
        # byzantine ones among them, is active
        assert bool(self._faults_at) == any(
            f.target.kind is not TargetKind.SENSOR
            for f in self._settled_faults()), (
            f"fault index {self._faults_at} at {self.now}us")
        # the engine asks about a copy only while its processor runs, so
        # ask about every copy and processor here as well
        for rt in self._all_copies():
            self._silenced(rt, self.sets[rt.place])
        for place, ps in self.sets.items():
            assert ps.failed == self._halted(place)

    def _on_bit_check(self, data):
        # one sweep offers each live place that BIT can see a settled fault
        # on, in (lane, proc) order, the faults in fault id order (at its
        # own activation instant a fault is surely active); a catch kills
        # no place but its own, which it was offered
        assert data is None
        settled = sorted(self._settled_faults(), key=lambda f: f.fault_id)
        self._bit_scan = {}
        for place in sorted(self.sets):
            faults = [f for f in settled
                      if bit_detects(f, place, self._every_task, f.at_us)]
            if faults and not self.sets[place].dead:
                self._bit_scan[place] = faults
        self._offered = []
        super()._on_bit_check(data)
        assert self._offered == list(self._bit_scan), (
            f"BIT sweep at {self.now}us offered {self._offered}, "
            f"scanned {list(self._bit_scan)}")
        self.checks += 1

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
        assert rts is self.groups[app_id].copies[task_id]
        assert rts == [rt for rt in self._copies_by_id()
                       if rt.key == (app_id, task_id)]
        assert ref == self.settings.reference.value(self.now)
        # what this task's copies asked and emitted, each at most once
        self._skews, self._emissions = set(), {}
        self._voted.append(task_id)
        # while no fault is active, only policing asks for a skew
        unasked = set() if self._faults_at else {
            rt.copy_id for rt in rts if rt.health is Health.ACTIVE}
        assert super()._vote_task(app_id, task_id, rts, ref) is None
        assert not unasked & self._skews, (
            f"task {(app_id, task_id)} at {self.now}us looked up skews of "
            f"{sorted(unasked & self._skews)} with no fault active")
        self.checks += 1

    def _effects(self):
        """What a vote can write: rows, implicated copies, events, policing."""
        return (len(self.trace), frozenset(self._pending_implicated),
                len(self._heap), self._policed)

    def _on_vote_round(self, app):
        # before any fault, with every start-up set proven, the engine skips
        # every task, and no count of equal copies of the reference may flag;
        # beside each skip the full vote must change nothing, and every due
        # copy must emit the reference. Every other round votes every task
        # in full, in task id order.
        ref = self.settings.reference.value(self.now)
        tasks = list(self.groups[app.app_id].copies)
        proof = self._proven_at_start and not self._activated
        assert self._proof == proof, (
            f"proof flag {self._proof} at {self.now}us, recounted {proof}")
        self._voted = []
        if proof:
            for n in range(2, len(self.model.lanes) + 1):
                assert not cross_monitor(dict.fromkeys(range(n), ref),
                                         self.voter).flagged, (
                    f"{n} copies of the reference {ref!r} flagged at "
                    f"{self.now}us under {self.voter}")
            for task_id in tasks:
                before = self._effects()
                self._vote_task(app.app_id, task_id,
                                self.groups[app.app_id].copies[task_id], ref)
                emitted = [v for _, v in self._emissions.values()]
                assert self._effects() == before and all(
                    v == ref for v in emitted), (
                    f"task {(app.app_id, task_id)} skipped by proof at "
                    f"{self.now}us, but its full vote emitted {emitted}")
            self._voted = []
            super()._on_vote_round(app)
            assert self._voted == [], (
                f"app {app.app_id} at {self.now}us: proof holds, "
                f"voted {self._voted}")
            self.proof_skips += len(tasks)
            return
        super()._on_vote_round(app)
        assert self._voted == tasks, (
            f"app {app.app_id} at {self.now}us: tasks {tasks}, "
            f"voted {self._voted}")
        self.full_votes += len(tasks)

    def _emitted(self, rt, byz, ref):
        assert rt.copy_id not in self._emissions, (
            f"copy {rt.copy_id} emitted twice at {self.now}us")
        got = super()._emitted(rt, byz, ref)
        self._emissions[rt.copy_id] = (rt, got)
        return got

    def _police(self, watched, consensus, ref):
        key = watched[0].key
        assert watched == [rt for rt in self._copies_by_id() if rt.key == key
                           and rt.health in (Health.POLICED, Health.RESTABILIZING)]
        # the consensus takes every emitter's value: each is an active copy
        values = [v for rt, v in self._emissions.values()
                  if rt.health is Health.ACTIVE and v is not None]
        assert consensus == (statistics.median(values) if values else None)
        self._policed += 1
        self.checks += 1
        super()._police(watched, consensus, ref)

    def _copies_in(self, scope):
        got = super()._copies_in(scope)
        assert got == [rt for rt in self._copies_by_id()
                       if scope.contains(_copy_scope(rt))]
        self.checks += 1
        return got

    def _mark_dead(self, d):
        self._killed.append(d)
        super()._mark_dead(d)

    def _directive_victims(self, d, transient):
        # called once for each ShutdownApplied, before its row
        assert not self._proof, f"{d} shut down at {self.now}us under the proof"
        got = super()._directive_victims(d, transient)
        # a transient shutdown restabilizes the active copies; a permanent
        # one withdraws every copy still in service
        assert got == [rt for rt in self._copies_by_id() if d.contains(_copy_scope(rt))
                       and (rt.health is Health.ACTIVE if transient
                            else rt.health is not Health.SHUTDOWN)]
        self.checks += 1
        return got

    # -- release groups -------------------------------------------------

    def _on_release(self, copies):
        # the group itself was checked when it was pushed
        due = [rt for rt in copies if rt.health is not Health.SHUTDOWN
               and not self.sets[rt.place].dead
               and not _halting(self._settled_faults(), _copy_scope(rt))]
        before = self.counters["releases"]
        pushed = self._pushed_checks
        super()._on_release(copies)
        assert self.counters["releases"] - before == len(due)
        for rt in due:
            # the copy's job is its set's job for its key, which it owns
            job = self.sets[rt.place].jobs.get(rt.key)
            assert (job is not None and job.release_us == self.now
                    and [o for o in job.owner if o.place == rt.place] == [rt]), (
                f"copy {rt.copy_id} not released at {self.now}us")
        # the check is pushed iff a set released on is unproven
        deadline = self.now + copies[0].spec.deadline_us
        if due and deadline <= self.horizon:
            proven = all(self.sets[rt.place].proven for rt in due)
            assert self._pushed_checks - pushed == (0 if proven else 1), (
                f"group {due[0].copy_id} at {self.now}us: proven {proven}, "
                f"{self._pushed_checks - pushed} checks pushed")
            if proven:
                self._push_skipped(deadline, EventKind.DEADLINE_CHECK,
                                   due[0].copy_id, _Skipped(tuple(due), self.now))
        self.checks += 1

    def _on_deadline_check(self, data):
        if not isinstance(data, _Skipped):
            super()._on_deadline_check(data)
            return
        # at the skipped check's deadline and rank, what expire would find:
        # no job of the release unfinished, unless a later check covers it
        key, release = data.copies[0].key, data.release_us
        for rt in data.copies:
            if (rt.copy_id, release) in self._checked:
                continue
            ps = self.sets[rt.place]
            job = ps.jobs.get(key)
            if job is None or job.release_us != release:
                continue
            left = job.remaining_us - (
                self.now - ps.since if job is ps.running else 0)
            assert left <= 0, (
                f"copy {rt.copy_id} released at {release}us misses at "
                f"{self.now}us, {left}us left, and its check was skipped")
        self.skipped_checks += 1

    # -- the capacity kept ----------------------------------------------

    def _apply_directives(self, directives):
        super()._apply_directives(directives)
        self._check_capacity()
        self._check_service()

    def _select_for(self, ep):
        super()._select_for(ep)
        self._check_capacity()

    def _spawn_copies(self, ep):
        super()._spawn_copies(ep)
        self._check_capacity()
        self._check_service()

    def _on_readmit(self, rt):
        super()._on_readmit(rt)
        self._check_service()


@dataclass(frozen=True)
class _Skipped:
    """A deadline check the engine skipped, run beside it by CheckedEngine."""

    copies: tuple
    release_us: int


def _outputs(result):
    return (json.dumps(metrics_document(result), sort_keys=True),
            list(trace_lines(result)), result.completions)


def _check(scenario):
    engine = CheckedEngine(scenario)
    checked = engine.run()
    assert _outputs(checked) == _outputs(Engine(scenario).run())
    return engine


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


class _ProofLog(CheckedEngine):
    """A CheckedEngine that records each vote round: its instant, app, the
    proof flag it started with, and how many tasks it skipped by proof."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.rounds = []

    def _on_vote_round(self, app):
        proof, by_proof = self._proof, self.proof_skips
        super()._on_vote_round(app)
        self.rounds.append((self.now, app.app_id, proof,
                            self.proof_skips - by_proof))


def _logged(scenario):
    engine = _ProofLog(scenario)
    assert _outputs(engine.run()) == _outputs(Engine(scenario).run())
    return engine


def _tasks_voted(engine, rounds):
    """How many task votes the rounds' applications hold."""
    counts = {app.app_id: len(app.tasks) for app in engine.model.applications}
    return sum(counts[app_id] for _, app_id, _, _ in rounds)


def test_skipped_votes_on_the_mean_voter_scenario():
    # the proof skips the rounds before the byzantine fault at 70 ms; from
    # it on, through the transient fault at 85 ms and the agreeing copies
    # at 280 ms whose float mean misses them, each round votes every task
    # in full (CheckedEngine asserts the order)
    engine = _logged(load_scenario(SCENARIOS / "mean_voter_quiet_marks.json"))
    first = next(row.time_us for row in engine.trace
                 if row.kind == "FaultActivate")
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
    engine = _logged(scenario)
    assert engine.rounds and engine.proof_skips == 0
    assert not any(proof for _, _, proof, _ in engine.rounds)
    assert engine.full_votes == _tasks_voted(engine, engine.rounds)


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
    engine = _logged(parse_scenario(scenario_doc([
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
    engine = _logged(load_scenario(SCENARIOS / "mean_voter_proof_exception.json"))
    assert not engine.sc.faults and engine._proof
    for at in (60_000, 150_000):
        ref = engine.settings.reference.value(at)
        assert abs(sum([ref] * 3) / 3 - ref) > engine.voter.tolerance
    assert engine.rounds and all(
        proof and by_proof == 1 for _, _, proof, by_proof in engine.rounds)
    assert {at for at, _, _, _ in engine.rounds} >= {60_000, 150_000}
    assert engine.full_votes == 0
    assert not [row for row in engine.trace
                if row.kind in ("Detection", "ShutdownApplied")]
    assert engine._episodes == []


def test_an_admitted_run_pushes_no_deadline_check():
    # admission under 0.69 proves every set, so every check is skipped and
    # each skipped one is run beside the engine
    engine = _check(parse_scenario(generate_scenario(
        lanes=3, procs=4, apps=3, seed=5, faults=4, horizon_ms=60)))
    assert engine._pushed_checks == 0 and engine.skipped_checks > 0


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
    first = engine.misses[0]
    assert (first.lane, first.proc, first.app) == (*spare, 1)


def test_a_fault_free_run_never_builds_the_hosting_index():
    # the index is built on first need: a BIT sweep that finds a fault on
    # a live place, or a classification; a fault-free run has neither
    docs = [scenario_doc([]),
            generate_scenario(lanes=4, procs=6, apps=3, seed=3, horizon_ms=40)]
    for doc in docs:
        engine = Engine(parse_scenario(doc))
        engine.run()
        assert engine._hosting is None
    # a BIT-visible fault makes the next sweep build it
    engine = Engine(parse_scenario(scenario_doc([
        proc_fault(at_ms=50, bit_detectable=True)])))
    result = engine.run()
    assert engine._hosting is not None and result.counters["detections"] == 1


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


class _WithdrawalSpy(Engine):
    """An Engine that records every copy list it takes out of service."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.withdrawals = []

    def _withdraw(self, copies):
        self.withdrawals.append([rt.copy_id for rt in copies])
        super()._withdraw(copies)


def test_overlapping_permanent_scopes_withdraw_each_copy_once():
    # no classification or BIT check emits two scopes where one holds the
    # other, so the two directives are applied by hand: a permanent lane
    # fault and a permanent processor fault inside it, both active now
    engine = _WithdrawalSpy(parse_scenario(scenario_doc([
        lane_fault(at_ms=50), proc_fault(at_ms=50, lane=0, proc=0)])))
    start_load = engine.bus.current_load
    engine._prime_events()
    handlers, heap = engine._handlers(), engine._heap
    while heap[0][:2] <= (50_000, EventKind.FAULT_ACTIVATE.rank):
        at, rank, _key, _seq, _kind, data = heapq.heappop(heap)
        engine.now = at
        handlers[rank](data)
    active = [f for f in engine.sc.faults if f.active_at(engine.now)]
    assert len(active) == 2
    engine._apply_directives([f.target for f in active])

    lane0 = [rt for rts in engine._proc_copies.values() for rt in rts
             if rt.lane == 0]
    assert lane0 and all(rt.health is Health.SHUTDOWN for rt in lane0)
    assert engine.withdrawals == [[rt.copy_id for rt in lane0]]
    assert sorted(i for ep in engine._episodes for i in ep.failed_copy_ids) == (
        sorted(rt.copy_id for rt in lane0))
    for place, rts in engine._proc_copies.items():
        left = ProcessorState({
            rt.key: (rt.spec.wcet_us, rt.spec.period_us, rt.spec.deadline_us)
            for rt in rts if rt.health is not Health.SHUTDOWN})
        ps = engine.sets[place]
        assert len(ps.admitted) == len(left)
        assert ps.admitted.utilization == left.utilization
        assert ps.admitted.priorities() == ps.prios == left.priorities()
    assert engine.bus.current_load == start_load - sum(
        rt.spec.message_demand for rt in lane0)


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
        assert not [row for row in engine.trace if row.kind == "Detection"]


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
