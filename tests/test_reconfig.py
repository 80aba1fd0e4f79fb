"""Spare selection, recovery bookkeeping, and policing counters."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lanesim.model import MessageSpec, StateStrategy, TaskSpec, TimingConfig
from lanesim.reconfig import (
    FailedTask,
    Outcome,
    PoliceCounter,
    ReconfigRecord,
    SpareCandidate,
    _ranked_candidates,
    recovery_order,
    select_spare,
)
from lanesim.timing import BusState, ProcessorState, admit_task

CFG = TimingConfig(utilization_bound=Fraction(69, 100), police_rounds=3,
                   tolerance=0.5)


class _App:
    def __init__(self, app_id, criticality):
        self.app_id = app_id
        self.criticality = criticality


def _task(task_id=1, wcet_ms=2, period_ms=20, size=0):
    messages = ()
    if size:
        messages = (MessageSpec(msg_id=1, size=Fraction(size),
                                period_us=period_ms * 1000),)
    return TaskSpec(task_id=task_id, wcet_us=wcet_ms * 1000,
                    period_us=period_ms * 1000, deadline_us=period_ms * 1000,
                    initial_proc=0, code_size=Fraction(10), messages=messages)


def _failed(task, home_lane=0, app_id=1):
    return FailedTask(app_id=app_id, task_id=task.task_id, task=task,
                      home_lane=home_lane)


def _spare(lane, proc, util_entries=(), occupied=False):
    state = ProcessorState()
    for i, (wcet, period) in enumerate(util_entries):
        state = state.with_task(("bg", i), wcet, period, period)
    if occupied:
        # another application's task: a spare with anything admitted is taken
        state = state.with_task((9, 9), 1000, 100000, 100000)
    return SpareCandidate(lane=lane, proc=proc, state=state)


def test_recovery_order_is_criticality_then_id():
    apps = [_App(5, 2), _App(3, 0), _App(4, 0), _App(1, 1)]
    assert recovery_order(apps) == [3, 4, 1, 5]


def test_selection_prefers_the_home_lane():
    plan = select_spare(
        [_failed(_task(), home_lane=1)],
        [_spare(0, 3), _spare(1, 3), _spare(2, 3)],
        BusState(Fraction(10)), CFG, restricted=True)
    assert plan.placements == [(1, 1, 3)]
    assert plan.degraded == []


def test_selection_falls_back_across_lanes():
    plan = select_spare(
        [_failed(_task(), home_lane=1)],
        [_spare(0, 3), _spare(1, 3, occupied=True), _spare(2, 3)],
        BusState(Fraction(10)), CFG, restricted=True)
    assert plan.placements == [(1, 0, 3)]


def test_selection_ranks_by_resulting_utilization():
    # fully integrated, so both loaded spares are usable and both fit; the
    # emptier is tried first even with a higher lane id
    failed = [_failed(_task(), home_lane=9)]
    plan = select_spare(
        failed,
        [_spare(1, 3, util_entries=[(40, 100)]),
         _spare(2, 3, util_entries=[(20, 100)])],
        BusState(Fraction(10)), CFG, restricted=False)
    assert [(d.lane, d.proc) for d in plan.decisions] == [(2, 3)]
    assert plan.placements == [(1, 2, 3)]
    # swap the loads and the lower lane is the emptier one
    plan = select_spare(
        failed,
        [_spare(1, 3, util_entries=[(20, 100)]),
         _spare(2, 3, util_entries=[(40, 100)])],
        BusState(Fraction(10)), CFG, restricted=False)
    assert plan.placements == [(1, 1, 3)]


# Admission and ranking work on integer numerators over a common
# denominator; each decision and each order must be the one exact Fraction
# sums give, under the plain bound and under the customer cap.

_ENTRY = st.tuples(st.integers(1, 5000), st.integers(1, 5000), st.integers(1, 5000))
_HELD = st.lists(st.one_of(
    st.tuples(st.just("with"), st.integers(0, 5), _ENTRY),
    st.tuples(st.just("without"), st.lists(st.integers(0, 5), max_size=3))),
    max_size=8)


def _fresh(entries) -> Fraction:
    return sum((Fraction(c, min(t, d)) for c, t, d in entries.values()),
               Fraction(0))


@given(spares=st.dictionaries(
           st.tuples(st.integers(0, 3), st.integers(0, 3)), _HELD,
           min_size=1, max_size=6),
       task=_ENTRY, task_id=st.integers(0, 5), home_lane=st.integers(0, 3),
       bound=st.fractions(min_value=Fraction(1, 1000), max_value=1,
                          max_denominator=1000),
       capped=st.booleans(), restricted=st.booleans())
# exactly at the bound: 0.59 + 0.10 = 0.69, and 0.45 + 0.05 at the cap
@example(spares={(0, 3): [("with", 0, (59, 100, 100))]}, task=(10, 100, 100),
         task_id=1, home_lane=0, bound=Fraction(69, 100), capped=False,
         restricted=False)
@example(spares={(0, 3): [("with", 0, (45, 100, 100))]}, task=(5, 100, 100),
         task_id=1, home_lane=0, bound=Fraction(69, 100), capped=True,
         restricted=False)
def test_integer_admission_and_ranking_equal_the_fraction_reference(
        spares, task, task_id, home_lane, bound, capped, restricted):
    cfg = TimingConfig(utilization_bound=bound, police_rounds=3, tolerance=0.5,
                       customer_cap_mode=capped)
    wcet, period, deadline = task
    spec = TaskSpec(task_id=task_id, wcet_us=wcet, period_us=period,
                    deadline_us=deadline, initial_proc=0,
                    code_size=Fraction(0), messages=())
    failed = FailedTask(app_id=1, task_id=task_id, task=spec,
                        home_lane=home_lane)
    u = Fraction(wcet, min(period, deadline))
    candidates, held = [], {}
    for (lane, proc), ops in spares.items():
        state, entries = ProcessorState(), {}
        for op, key, *entry in ops:
            if op == "with":
                # the engine keys entries (app, task); app 1 is the failed one's
                state = state.with_task((1, key), *entry[0])
                entries[(1, key)] = entry[0]
            else:
                state = state.without_tasks([(1, k) for k in key])
                for k in key:
                    entries.pop((1, k), None)
        candidates.append(SpareCandidate(lane, proc, state))
        held[(lane, proc)] = entries

        decision = admit_task(state, spec, cfg)
        resulting = _fresh(entries) + u
        assert decision.resulting_utilization == resulting
        assert decision.accepted == (resulting <= cfg.effective_bound)

    states = {(s.lane, s.proc): s.state for s in candidates}
    taken = {(s.lane, s.proc) for s in candidates if len(s.state) > 0}
    usable = [s for s in candidates
              if (1, task_id) not in held[(s.lane, s.proc)]
              and not (restricted and (s.lane, s.proc) in taken)]
    tiers = ([s for s in usable if s.lane == home_lane],
             [s for s in usable if s.lane != home_lane])
    want = [(s.lane, s.proc) for tier in tiers for s in sorted(
        tier, key=lambda s: (_fresh(held[(s.lane, s.proc)]) + u, s.lane, s.proc))]
    assert _ranked_candidates(failed, candidates, states, taken,
                              restricted) == want


def test_occupied_spares_are_skipped_only_in_restricted_mode():
    spares = [_spare(0, 3, occupied=True)]
    failed = [_failed(_task(), home_lane=0)]
    restricted = select_spare(failed, spares, BusState(Fraction(10)), CFG,
                              restricted=True)
    assert restricted.degraded == [1]
    integ = select_spare(failed, spares, BusState(Fraction(10)), CFG,
                         restricted=False)
    assert integ.placements == [(1, 0, 3)]


def test_a_spare_never_takes_a_second_copy_of_a_task_it_holds():
    # fully integrated: an occupied spare is usable, but not for a task
    # whose copy it already runs; the next spare takes it instead
    holder = _spare(0, 3)
    holder.state = holder.state.with_task((1, 1), 2000, 20000, 20000)
    failed = [_failed(_task(), home_lane=0)]
    plan = select_spare(failed, [holder], BusState(Fraction(10)), CFG,
                        restricted=False)
    assert plan.placements == [] and plan.degraded == [1]
    assert plan.decisions == []
    plan = select_spare(failed, [holder, _spare(1, 3)], BusState(Fraction(10)),
                        CFG, restricted=False)
    assert plan.placements == [(1, 1, 3)]


def test_two_tasks_of_one_app_may_share_a_spare():
    tasks = [_task(task_id=1, wcet_ms=2), _task(task_id=2, wcet_ms=3)]
    plan = select_spare(
        [_failed(t, home_lane=0) for t in tasks],
        [_spare(0, 3), _spare(1, 3)],
        BusState(Fraction(10)), CFG, restricted=True)
    assert plan.placements == [(1, 0, 3), (2, 0, 3)]
    # the second admission saw the first reservation
    second = [d for d in plan.decisions if d.chosen][1]
    assert second.admission.resulting_utilization == (Fraction(2, 20)
                                                      + Fraction(3, 20))


def test_capacity_overflow_spills_to_the_next_spare():
    # 12 ms + 3 ms of 20 ms would pass 0.69; the second task spills over
    tasks = [_task(task_id=1, wcet_ms=12), _task(task_id=2, wcet_ms=3)]
    plan = select_spare(
        [_failed(t, home_lane=0) for t in tasks],
        [_spare(0, 3), _spare(1, 3)],
        BusState(Fraction(10)), CFG, restricted=True)
    assert plan.placements == [(1, 0, 3), (2, 1, 3)]


def test_admission_rejection_degrades_the_task():
    heavy = _task(wcet_ms=15)  # 0.75 > 0.69 everywhere
    plan = select_spare([_failed(heavy)],
                        [_spare(0, 3), _spare(1, 3)],
                        BusState(Fraction(10)), CFG, restricted=True)
    assert plan.placements == []
    assert plan.degraded == [1]
    assert all(not d.chosen for d in plan.decisions)
    assert any("exceeds bound" in (d.admission.reason or "")
               for d in plan.decisions)


def test_bus_rejection_degrades_the_task():
    chatty = _task(size=100)  # 5 units/ms against a nearly full bus
    bus = BusState(Fraction(10)).with_demand(Fraction(8))
    plan = select_spare([_failed(chatty)], [_spare(0, 3)], bus, CFG,
                        restricted=True)
    assert plan.degraded == [1]
    rejected = [d for d in plan.decisions if d.comms is not None]
    assert rejected and not rejected[0].comms.accepted


def test_plan_threads_bus_reservations():
    chatty = _task(size=40)  # 2 units/ms
    bus = BusState(Fraction(10))
    plan = select_spare([_failed(chatty)], [_spare(0, 3)], bus, CFG,
                        restricted=True)
    assert plan.placements == [(1, 0, 3)]
    assert plan.bus.current_load == Fraction(2)
    assert bus.current_load == 0  # input state untouched


def test_selection_with_nothing_to_place_is_an_error():
    with pytest.raises(ValueError):
        select_spare([], [_spare(0, 3)], BusState(Fraction(10)), CFG,
                     restricted=True)


def test_record_ordering_check():
    rec = ReconfigRecord(
        record_id=1, app_id=1, failed_copy_ids=(1,),
        strategy=StateStrategy.TRANSFER, outcome=Outcome.READMITTED,
        t_f_us=10, t_r_us=10, t_i_us=12, t_s_us=20, t_e_us=30, t_a_us=90)
    assert rec.ordering_ok()
    assert rec.timestamps() == [10, 10, 12, 20, 30, 90]
    bad = ReconfigRecord(
        record_id=2, app_id=1, failed_copy_ids=(1,),
        strategy=StateStrategy.TRANSFER, outcome=Outcome.READMITTED,
        t_f_us=10, t_r_us=5)
    assert not bad.ordering_ok()
    sparse = ReconfigRecord(
        record_id=3, app_id=1, failed_copy_ids=(1,),
        strategy=StateStrategy.TRANSFER, outcome=Outcome.ABANDONED,
        t_f_us=10, t_r_us=10)
    assert sparse.timestamps() == [10, 10]
    assert sparse.ordering_ok()


def test_police_counter_requires_consecutive_matches():
    counter = PoliceCounter(3)
    assert not counter.update(True)
    assert not counter.update(True)
    assert not counter.update(False)   # deviation resets the streak
    assert not counter.update(True)
    assert not counter.update(True)
    assert counter.update(True)
