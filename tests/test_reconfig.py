"""Spare selection and recovery bookkeeping."""

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lanesim.model import MessageSpec, StateStrategy, TaskSpec, TimingConfig
from lanesim.reconfig import (
    Copy,
    Outcome,
    PlacementDecision,
    ReconfigRecord,
    _ranked_candidates,
    recovery_rank,
    select_spare,
)
from lanesim.timing import BusState, ProcessorState, admit_task

import oracles

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
    """The lost copy of the task on its home lane, as the engine passes it."""
    return Copy(1, (app_id, task.task_id), (home_lane, 0), task)


def _spare(lane, proc, util_entries=(), occupied=False):
    """One ((lane, proc), state) entry of the spare map select_spare
    takes."""
    state = ProcessorState()
    for i, (wcet, period) in enumerate(util_entries):
        state = state.with_task(("bg", i), wcet, period, period)
    if occupied:
        # another application's task: a spare with anything admitted is taken
        state = state.with_task((9, 9), 1000, 100000, 100000)
    return (lane, proc), state


def _placed(plan) -> list:
    """Each placement of the plan as (task id, place)."""
    return [(d.task_id, d.place) for d in plan.placements]


def test_a_copy_names_its_task_and_place_once():
    # key (app, task) and place (lane, proc) are its one record of what it
    # replicates and where: no field restates either
    copy = Copy(7, (3, 5), (2, 4), _task(task_id=5))
    assert [f.name for f in fields(Copy)] == [
        "copy_id", "health", "spec", "completed_ever", "converge_left",
        "streak", "episode", "key", "place"]
    assert Copy.__slots__ == tuple(f.name for f in fields(Copy))
    assert (copy.key, copy.place) == ((3, 5), (2, 4))
    assert "key=(3, 5)" in repr(copy) and "place=(2, 4)" in repr(copy)


def test_recovery_order_is_criticality_then_id():
    apps = [_App(5, 2), _App(3, 0), _App(4, 0), _App(1, 1)]
    assert [a.app_id for a in sorted(apps, key=recovery_rank)] == [3, 4, 1, 5]


def test_selection_prefers_the_home_lane():
    plan = select_spare(
        [_failed(_task(), home_lane=1)],
        dict([_spare(0, 3), _spare(1, 3), _spare(2, 3)]),
        BusState(Fraction(10)), CFG, restricted=True)
    assert _placed(plan) == [(1, (1, 3))]
    assert plan.degraded == []


def test_selection_falls_back_across_lanes():
    plan = select_spare(
        [_failed(_task(), home_lane=1)],
        dict([_spare(0, 3), _spare(1, 3, occupied=True), _spare(2, 3)]),
        BusState(Fraction(10)), CFG, restricted=True)
    assert _placed(plan) == [(1, (0, 3))]


def test_selection_ranks_by_resulting_utilization():
    # fully integrated, so both loaded spares are usable and both fit; the
    # emptier is tried first even with a higher lane id
    failed = [_failed(_task(), home_lane=9)]
    plan = select_spare(
        failed,
        dict([_spare(1, 3, util_entries=[(40, 100)]),
              _spare(2, 3, util_entries=[(20, 100)])]),
        BusState(Fraction(10)), CFG, restricted=False)
    assert [d.place for d in plan.decisions] == [(2, 3)]
    assert _placed(plan) == [(1, (2, 3))]
    # swap the loads and the lower lane is the emptier one
    plan = select_spare(
        failed,
        dict([_spare(1, 3, util_entries=[(20, 100)]),
              _spare(2, 3, util_entries=[(40, 100)])]),
        BusState(Fraction(10)), CFG, restricted=False)
    assert _placed(plan) == [(1, (1, 3))]


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
    cfg = TimingConfig(utilization_bound=Fraction(1, 2) if capped else bound,
                       police_rounds=3, tolerance=0.5)
    wcet, period, deadline = task
    spec = TaskSpec(task_id=task_id, wcet_us=wcet, period_us=period,
                    deadline_us=deadline, initial_proc=0,
                    code_size=Fraction(0), messages=())
    failed = _failed(spec, home_lane)
    u = Fraction(wcet, min(period, deadline))
    candidates, held = {}, {}
    for place, ops in spares.items():
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
        candidates[place] = state
        held[place] = entries

        decision = admit_task(state, spec, cfg)
        resulting = _fresh(entries) + u
        assert decision.resulting_utilization == resulting
        assert decision.accepted == (resulting <= cfg.utilization_bound)

    # taken: a spare that holds any entry, counted from the reference
    taken = {place for place, entries in held.items() if entries}
    usable = [place for place in candidates
              if (1, task_id) not in held[place]
              and not (restricted and place in taken)]
    tiers = ([place for place in usable if place[0] == home_lane],
             [place for place in usable if place[0] != home_lane])
    want = [place for tier in tiers for place in sorted(
        tier, key=lambda place: (_fresh(held[place]) + u, *place))]
    assert _ranked_candidates(failed, candidates, dict(candidates),
                              restricted) == want


def test_a_decision_names_its_task_place_and_two_tests():
    # chosen or not is read from the two tests, and a chosen decision is
    # itself the task's placement: no field restates either
    assert [f.name for f in fields(PlacementDecision)] == [
        "task_id", "place", "admission", "comms"]


# Whole plans: one to four failed tasks of one application, with messages,
# over one to six spares that already hold entries, some of them the
# failed application's own tasks.

_SMALL = st.tuples(st.integers(1, 20), st.integers(40, 120), st.integers(40, 120))


def _selection(tasks, held, max_load, load, bound, restricted):
    """select_spare's arguments, and the entries each spare holds.

    ``tasks`` lists (task id, home lane, (wcet, period, deadline), the
    (size, period in ms) of each message) of application 1's failed tasks;
    ``held`` maps each spare's place to its {key: (wcet, period,
    deadline)}."""
    failed = []
    for task_id, home, (wcet, period, deadline), messages in tasks:
        spec = TaskSpec(
            task_id=task_id, wcet_us=wcet, period_us=period,
            deadline_us=deadline, initial_proc=0, code_size=Fraction(0),
            messages=tuple(MessageSpec(msg_id=i, size=Fraction(size),
                                       period_us=period_ms * 1000)
                           for i, (size, period_ms) in enumerate(messages)))
        failed.append(Copy(1, (1, task_id), (home, 0), spec))
    spares = {}
    for place, entries in held.items():
        state = ProcessorState()
        for key, entry in entries.items():
            state = state.with_task(key, *entry)
        spares[place] = state
    cfg = TimingConfig(utilization_bound=bound, police_rounds=3, tolerance=0.5)
    return (failed, spares, BusState(max_load, load), cfg, restricted), held


@st.composite
def _selections(draw):
    """One to four failed tasks with distinct ids, each with messages,
    over one to six spares holding entries, some the application's own."""
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n, unique=True))
    tasks = [(task_id, draw(st.integers(0, 3)), draw(_SMALL), draw(st.lists(
        st.tuples(st.integers(1, 30), st.integers(1, 20)), min_size=1, max_size=2)))
        for task_id in ids]
    places = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=6, unique=True))
    held = {place: dict(draw(st.lists(st.tuples(
        st.tuples(st.integers(1, 2), st.integers(0, 5)), _SMALL), max_size=2)))
        for place in places}
    max_load = draw(st.fractions(min_value=0, max_value=10, max_denominator=10))
    load = draw(st.fractions(min_value=0, max_value=max_load, max_denominator=10))
    bound = draw(st.fractions(min_value=Fraction(1, 10), max_value=1,
                              max_denominator=100))
    return _selection(tasks, held, max_load, load, bound, draw(st.booleans()))


_EMPTY = {(0, 3): {}, (0, 4): {}}
# two tasks of 2 units/ms on a bus of 3: the second sees the first's
# reservation, and degrades
_BUS_FILLS = _selection([(1, 0, (10, 100, 100), [(40, 20)]),
                         (2, 0, (10, 100, 100), [(40, 20)])],
                        _EMPTY, 3, 0, Fraction(69, 100), False)
# the first task makes the empty spare the fuller one: the second ranks the
# spares by the plan's states, not the ones given
_RANK_MOVES = _selection([(1, 0, (20, 100, 100), [(1, 20)]),
                          (2, 0, (10, 100, 100), [(1, 20)])],
                         {(0, 3): {}, (0, 4): {(2, 0): (10, 100, 100)}},
                         10, 0, Fraction(69, 100), False)
# restricted, one spare: the application's own first reservation does not
# make it taken
_SHARED = _selection([(1, 0, (10, 100, 100), [(1, 20)]),
                      (2, 0, (10, 100, 100), [(1, 20)])],
                     {(0, 3): {}}, 10, 0, Fraction(69, 100), True)


@settings(max_examples=300)
@given(_selections())
@example(_BUS_FILLS)
@example(_RANK_MOVES)
@example(_SHARED)
def test_a_plans_placements_are_its_chosen_decisions(selection):
    args, _held = selection
    plan = select_spare(*args)
    # each placement is a decision of the plan itself, both tests accepted,
    # one per placed task, in the order the plan tried them
    at = [next(i for i, d in enumerate(plan.decisions) if d is placed)
          for placed in plan.placements]
    assert at == sorted(at)
    assert all(d.admission.accepted and d.comms.accepted
               for d in plan.placements)
    placed = [d.task_id for d in plan.placements]
    assert sorted(placed + plan.degraded) == sorted(f.key[1] for f in args[0])
    # every other decision has one test refused: admission, or the bus
    # test made once a spare admitted the task
    for d in plan.decisions:
        if not any(d is placed for placed in plan.placements):
            assert (d.comms is None if not d.admission.accepted
                    else not d.comms.accepted)


@settings(max_examples=300)
@given(_selections())
@example(_BUS_FILLS)
@example(_RANK_MOVES)
@example(_SHARED)
def test_whole_plans_equal_the_fraction_reference(selection):
    (failed, spares, bus, cfg, restricted), held = selection
    plan = select_spare(failed, spares, bus, cfg, restricted)
    want = oracles.plan_spares(
        [(f.key, f.place[0],
          oracles.task_utilization(f.spec.wcet_us, f.spec.period_us,
                                   f.spec.deadline_us),
          oracles.message_demand(f.spec)) for f in failed],
        {place: {key: oracles.task_utilization(*entry)
                 for key, entry in entries.items()}
         for place, entries in held.items()},
        cfg.utilization_bound, bus.current_load, bus.max_load, restricted)
    assert (_placed(plan), plan.degraded, plan.bus.current_load,
            {place: state.utilization for place, state in plan.states.items()}
            ) == want


def test_occupied_spares_are_skipped_only_in_restricted_mode():
    spares = dict([_spare(0, 3, occupied=True)])
    failed = [_failed(_task(), home_lane=0)]
    restricted = select_spare(failed, spares, BusState(Fraction(10)), CFG,
                              restricted=True)
    assert restricted.degraded == [1]
    integ = select_spare(failed, spares, BusState(Fraction(10)), CFG,
                         restricted=False)
    assert _placed(integ) == [(1, (0, 3))]


def test_a_spare_never_takes_a_second_copy_of_a_task_it_holds():
    # fully integrated: an occupied spare is usable, but not for a task
    # whose copy it already runs; the next spare takes it instead
    place, state = _spare(0, 3)
    holder = (place, state.with_task((1, 1), 2000, 20000, 20000))
    failed = [_failed(_task(), home_lane=0)]
    plan = select_spare(failed, dict([holder]), BusState(Fraction(10)), CFG,
                        restricted=False)
    assert plan.placements == [] and plan.degraded == [1]
    assert plan.decisions == []
    plan = select_spare(failed, dict([holder, _spare(1, 3)]),
                        BusState(Fraction(10)), CFG, restricted=False)
    assert _placed(plan) == [(1, (1, 3))]


def test_two_tasks_of_one_app_may_share_a_spare():
    tasks = [_task(task_id=1, wcet_ms=2), _task(task_id=2, wcet_ms=3)]
    plan = select_spare(
        [_failed(t, home_lane=0) for t in tasks],
        dict([_spare(0, 3), _spare(1, 3)]),
        BusState(Fraction(10)), CFG, restricted=True)
    assert _placed(plan) == [(1, (0, 3)), (2, (0, 3))]
    # the second admission saw the first reservation
    second = plan.placements[1]
    assert second.admission.resulting_utilization == (Fraction(2, 20)
                                                      + Fraction(3, 20))


@pytest.mark.parametrize("order, placements", [
    pytest.param([1, 2], [(1, (0, 3)), (2, (1, 3))], id="by_id"),
    # tasks are planned in the order given, not re-sorted by id
    pytest.param([2, 1], [(2, (0, 3)), (1, (1, 3))], id="reversed"),
])
def test_capacity_overflow_spills_to_the_next_spare(order, placements):
    # 12 ms + 3 ms of 20 ms would pass 0.69; the second task spills over
    tasks = {1: _task(task_id=1, wcet_ms=12), 2: _task(task_id=2, wcet_ms=3)}
    plan = select_spare(
        [_failed(tasks[t], home_lane=0) for t in order],
        dict([_spare(0, 3), _spare(1, 3)]),
        BusState(Fraction(10)), CFG, restricted=True)
    assert _placed(plan) == placements


def test_admission_rejection_degrades_the_task():
    heavy = _task(wcet_ms=15)  # 0.75 > 0.69 everywhere
    plan = select_spare([_failed(heavy)],
                        dict([_spare(0, 3), _spare(1, 3)]),
                        BusState(Fraction(10)), CFG, restricted=True)
    assert plan.placements == []
    assert plan.degraded == [1]
    assert all(not d.admission.accepted and d.comms is None
               for d in plan.decisions)
    assert all(d.admission.resulting_utilization == Fraction(75, 100)
               > CFG.utilization_bound for d in plan.decisions)


def test_bus_rejection_degrades_the_task():
    chatty = _task(size=100)  # 5 units/ms against a nearly full bus
    bus = BusState(Fraction(10)).with_demand((8, 1))
    plan = select_spare([_failed(chatty)], dict([_spare(0, 3)]), bus, CFG,
                        restricted=True)
    assert plan.degraded == [1]
    rejected = [d for d in plan.decisions if d.comms is not None]
    assert rejected and not rejected[0].comms.accepted


def test_plan_threads_bus_reservations():
    chatty = _task(size=40)  # 2 units/ms
    bus = BusState(Fraction(10))
    spares = dict([_spare(0, 3), _spare(1, 3, util_entries=[(20, 100)])])
    before = dict(spares)
    held = {place: (len(state), state.utilization)
            for place, state in spares.items()}
    plan = select_spare([_failed(chatty)], spares, bus, CFG, restricted=True)
    assert _placed(plan) == [(1, (0, 3))]
    assert plan.bus.current_load == Fraction(2)
    assert bus.current_load == 0  # input state untouched
    # the spare map given is untouched too: the same states, unchanged, and
    # the plan's reservations sit in a map of its own
    assert spares == before
    assert {place: (len(state), state.utilization)
            for place, state in spares.items()} == held
    assert plan.states is not spares
    assert len(plan.states[(0, 3)]) == 1 and len(spares[(0, 3)]) == 0


def test_selection_with_nothing_to_place_is_an_error():
    with pytest.raises(ValueError):
        select_spare([], dict([_spare(0, 3)]), BusState(Fraction(10)), CFG,
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

