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
byzantine fault and emitted value only once. After every event each
recovery record's timestamps are in order and no application's coverage
level exceeds the lane count.

Slots with one processor index share one schedule, their set, until an
event treats them differently. After every event each set's members must
agree, by full scans of the copies, jobs and faults, on the admitted set,
the jobs their copies own, the running job, failed and dead, and the
faults that ever covered them; each of a set's jobs is owned by one copy on
each member.

A vote round skips a task whose last full vote was quiet until an event
drops the marks. Each task vote that returns a mark is checked against
the copies themselves: none watched, every active one completed and
unskewed, and each emitted the reference. Beside every skip the full vote
runs and must return the mark's emitter count and change nothing: no
trace row, no implicated copy, no event, no policing. The reference for
which marked tasks the engine skips is ``cross_monitor`` itself: a task
is skipped unless ``cross_monitor`` flags its count of equal copies of
the reference.

Release and deadline events act on release groups. Each group pushed
holds copies of one task in ascending copy id and is keyed by the first;
a copy made after set-up is alone in its group, and a release group
holds no withdrawn copy. A release must start a job for exactly the
group's copies in service on a processor that no fault halts.

Answers are compared, not the raw fault sets. Inside a fault handler the
index may legitimately lag ``active_at``: a fault that activates later in
the same instant is not in it yet, and one that clears later in the same
instant is still in it. The reference accounts for those queued fault
events and counts the answers where the plain ``active_at`` scan differs.
"""

import json
import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lanesim.cli import metrics_document, trace_lines
from lanesim.fault import (Consensus, FaultKind, FaultTarget, TargetKind,
                           bit_detects, cross_monitor)
from lanesim.reconfig import Health
from lanesim.scenario import generate_scenario, load_scenario, parse_scenario
from lanesim.sim import Engine, EventKind
from lanesim.timing import task_utilization

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


def _slot_scope(slot):
    """The processor scope of a slot, built from its coordinates."""
    return FaultTarget(TargetKind.PROCESSOR, lane=slot.lane, proc=slot.proc)


class CheckedEngine(Engine):
    """An Engine that checks each indexed answer against a full scan."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.checks = 0
        self.lagging = 0     # answers where the plain active_at scan differs
        self.skips = 0       # task votes skipped, each checked by a full vote
        self.unskipped = 0   # marked task votes run in full: the mean flags
        self._skews, self._emissions = set(), {}
        self._voted, self._policed = [], 0
        self._activated = []     # the faults whose activation has run
        self._killed = []        # the scopes of the permanent shutdowns
        # a vote round walks the groups' tasks as kept: in task id order
        for app in self.model.applications:
            assert list(self.groups[app.app_id].copies) == sorted(
                t.task_id for t in app.tasks)
        # set-up builds the admitted sets and the bus load in one pass
        self._baseline_load = self.bus.current_load
        self._check_capacity()
        # the copies set-up made; a later one is a rebuilt copy
        self._last_initial_id = max(rt.copy_id for rt in self._all_copies())
        push = self._push

        def push_checked(at_us, kind, key, data):
            if kind is EventKind.TASK_RELEASE:
                self._check_group(key, data)
                assert all(rt.health is not Health.SHUTDOWN for rt in data), (
                    f"release group {key} holds a withdrawn copy at {self.now}us")
            elif kind is EventKind.DEADLINE_CHECK:
                self._check_group(key, data[0])
            push(at_us, kind, key, data)

        self._push = push_checked

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
        holders = {place: [] for place in self.procs}   # place -> [(key, spec)]
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
            admitted = self.procs[place].set.admitted
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

    def _check_sets(self):
        """The slots that share a set see one schedule, as full scans find
        it: each member's in-service copies and pending placements recount
        the admitted set, the permanent shutdowns so far recount dead, each
        job of the set is owned by one copy on each member, and the members
        agree on the jobs their copies own (key, release, remaining, start),
        the running job, failed and dead, and the faults that ever covered
        them."""
        sets = {}
        for slot in self.procs.values():
            sets.setdefault(id(slot.set), (slot.set, []))[1].append(slot)
        owned = {place: {} for place in self.procs}
        for ps, _ in sets.values():
            for job in [*ps.jobs.values(), *ps.background.values()]:
                # one copy of each member, in lane order, owns the job
                assert [rt.place for rt in job.owner] == ps.members, (
                    f"job {job.key} of {ps.members} owned by "
                    f"{[rt.copy_id for rt in job.owner]} at {self.now}us")
                for rt in job.owner:
                    assert (rt.copy_id if job.background else rt.key) == job.key, (
                        f"job {job.key} owned by copy {rt.copy_id}")
                    owned[rt.place][job.key] = job
        held = {place: set() for place in self.procs}
        for rt in self._all_copies():
            if rt.health is not Health.SHUTDOWN:
                held[rt.place].add(rt.key)
        for ep in self._bus_queue:
            for task_id, place in ep.placements.items():
                held[place].add((ep.app_id, task_id))
        for ps, slots in sets.values():
            assert sorted(ps.members) == [s.key for s in slots] == ps.members, (
                f"set of {ps.members} at {self.now}us")
            views = [self._member_view(ps, slot, held[slot.key], owned[slot.key])
                     for slot in slots]
            assert all(view == views[0] for view in views), (
                f"set of {[s.key for s in slots]} at {self.now}us: {views}")
        self.checks += 1

    def _member_view(self, ps, slot, held, owned):
        """What one member's own copies, jobs and faults say of its set."""
        assert len(ps.admitted) == len(held) and all(k in ps.admitted for k in held), (
            f"{slot.key} at {self.now}us: admitted set differs from {sorted(held)}")
        jobs = {**ps.jobs, **ps.background}
        assert owned == {job.key: job for job in jobs.values()}, (
            f"{slot.key} at {self.now}us owns jobs {sorted(owned)}, "
            f"its set runs {sorted(jobs)}")
        running = ps.running
        assert running is None or running in jobs.values()
        assert ps.dead == any(d.contains(_slot_scope(slot)) for d in self._killed), (
            f"{slot.key} at {self.now}us: dead {ps.dead}")
        # failed is recounted from the faults by _sweep after every fault
        # event, the only events that change it
        exposure = None if len(ps.members) == 1 else [
            f.fault_id for f in self._activated
            if f.target.kind is not TargetKind.SENSOR
            and f.target.overlaps(_slot_scope(slot))]
        return (frozenset(held),
                sorted((job.background, job.key, job.release_us,
                        job.remaining_us, job.start_us) for job in owned.values()),
                None if running is None else (running.background, running.key),
                ps.failed, ps.dead, exposure)

    def _check_service(self):
        """No copy in service sits on a dead processor."""
        for rt in self._all_copies():
            assert rt.health is Health.SHUTDOWN or not self.procs[rt.place].set.dead, (
                f"copy {rt.copy_id} is {rt.health.value} on dead processor "
                f"{rt.place} at {self.now}us")
        self.checks += 1

    # -- the indexed answers --------------------------------------------

    def _silenced(self, rt, pr):
        got = super()._silenced(rt, pr)
        self._agree("silenced", got, lambda fs: _halting(fs, _copy_scope(rt)))
        return got

    def _halted(self, pr):
        got = super()._halted(pr)
        self._agree("halted", got, lambda fs: _halting(fs, _slot_scope(pr)))
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
        # the engine asks about a copy only while its processor runs, so
        # ask about every copy and processor here as well
        for rt in self._all_copies():
            self._silenced(rt, self.procs[rt.place].set)
        for slot in self.procs.values():
            assert slot.set.failed == self._halted(slot)

    def _on_bit_check(self, pr):
        if not pr.set.dead:
            hosted = self._hosted(pr.key)

            def caught(faults, hosted):
                return [f.fault_id for f in sorted(faults, key=lambda f: f.fault_id)
                        if f.fault_id not in self._bit_detected
                        and bit_detects(f, pr.key, hosted, self.now)]

            self._agree("bit candidates", caught(self._active, hosted),
                        lambda fs: caught(fs, {
                            rt.key for rt in self._all_copies()
                            if rt.place == pr.key
                            and rt.health is Health.ACTIVE}))
        super()._on_bit_check(pr)

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
        before = self._effects()
        got = super()._vote_task(app_id, task_id, rts, ref)
        # a mark needs a quiet vote that no event-free change can upset
        active = [rt for rt in rts if rt.health is Health.ACTIVE]
        byzantine = [f for f in self._settled_faults()
                     if f.kind is FaultKind.BYZANTINE]
        markable = (self._effects() == before
                    and all(rt.health in (Health.ACTIVE, Health.SHUTDOWN)
                            for rt in rts)
                    and all(rt.completed_ever and rt.converge_left == 0
                            and not any(f.target.contains(_copy_scope(rt))
                                        for f in byzantine)
                            for rt in active))
        assert (got is not None) == markable, (
            f"task {(app_id, task_id)} at {self.now}us: mark {got!r}")
        if got is not None:
            emitted = [v for _, v in self._emissions.values()]
            assert got == len(active) == len(emitted) and all(
                v == ref for v in emitted), (
                f"task {(app_id, task_id)} at {self.now}us: mark {got}, "
                f"emitted {emitted}")
        self.checks += 1
        return got

    def _effects(self):
        """What a vote can write: rows, implicated copies, events, policing."""
        return (len(self.trace), frozenset(self._pending_implicated),
                len(self._heap), self._policed)

    def _on_vote_round(self, app):
        # the engine skips a marked task unless cross_monitor would flag its
        # count of equal copies of the reference; beside each skip the full
        # vote must come out quiet with the same count and change nothing
        ref = self.settings.reference.value(self.now)
        tasks = list(self.groups[app.app_id].copies)
        skipped = []
        self._voted = []
        for task_id in tasks:
            n = self._quiet.get((app.app_id, task_id))
            if n is None:
                continue
            if n >= 2 and cross_monitor(dict.fromkeys(range(n), ref),
                                        self.voter).flagged:
                self.unskipped += 1
                continue
            skipped.append(task_id)
            before = self._effects()
            got = self._vote_task(app.app_id, task_id,
                                  self.groups[app.app_id].copies[task_id], ref)
            assert got == n and self._effects() == before, (
                f"task {(app.app_id, task_id)} skipped at {self.now}us with "
                f"mark {n}, but its full vote returns {got!r}")
        super()._on_vote_round(app)
        assert self._voted == skipped + [t for t in tasks if t not in skipped], (
            f"app {app.app_id} at {self.now}us: skipped {skipped}, "
            f"voted {self._voted}")
        self.skips += len(skipped)

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
               and not self.procs[rt.place].set.dead
               and not _halting(self._settled_faults(), _copy_scope(rt))]
        before = self.counters["releases"]
        super()._on_release(copies)
        assert self.counters["releases"] - before == len(due)
        for rt in due:
            # the copy's job is its set's job for its key, which it owns
            job = self.procs[rt.place].set.jobs.get(rt.key)
            assert (job is not None and job.release_us == self.now
                    and [o for o in job.owner if o.place == rt.place] == [rt]), (
                f"copy {rt.copy_id} not released at {self.now}us")
        self.checks += 1

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


def _outputs(result):
    return (json.dumps(metrics_document(result), sort_keys=True),
            list(trace_lines(result)), result.completions)


def _check(scenario):
    engine = CheckedEngine(scenario)
    checked = engine.run()
    assert _outputs(checked) == _outputs(Engine(scenario).run())
    return engine


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_indexes_agree_with_full_scans_on_the_golden_corpus(path):
    engine = _check(load_scenario(path))
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


def test_skipped_votes_and_their_exception_on_the_mean_voter_scenario():
    # quiet from the first round; a byzantine fault and a transient one
    # drop the marks; at 280 ms the float mean of three equal copies misses
    # them by more than the tolerance, so the marked tasks vote in full
    engine = _check(load_scenario(SCENARIOS / "mean_voter_quiet_marks.json"))
    assert engine.skips > 0 and engine.unskipped == 3


def test_a_lane_shutdown_kills_its_own_spare_and_no_other():
    # permanent faults on the three workers of lane 0 implicate the whole
    # lane, and its shutdown kills lane 0's spare too; the spares of lanes
    # 1 and 2 shared one schedule with it and must stay alive to take two
    # of the lost copies
    engine = _check(parse_scenario(scenario_doc([
        proc_fault(at_ms=50, proc=proc) for proc in range(3)])))
    assert [(key, slot.set.dead) for key, slot in engine.procs.items()
            if key[1] == 3] == [((0, 3), True), ((1, 3), False), ((2, 3), False)]
    assert sorted(place for ep in engine._episodes
                  for place in ep.placements.values()) == [(1, 3), (2, 3)]


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
    # three equal values can then miss them and flag a marked task (near
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
    assert engine.skips + engine.unskipped > 0


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
    # faults set and drop the vote marks in the middle of a run
    _check(parse_scenario(doc))
