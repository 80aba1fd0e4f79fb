"""Utilization accounting, admission, and bus arithmetic.

Everything here is exact rational math, so the assertions compare
Fractions, not floats.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lanesim.model import TaskSpec, TimingConfig, build_system
from lanesim.scenario import parse_scenario
from lanesim.sim import Engine
from lanesim.timing import (
    AdmissionDecision,
    BusState,
    NoBandwidth,
    ProcessorState,
    _response_times_fit,
    admit_task,
    available_transfer_bandwidth,
    catchup_time,
    check_comms,
    task_utilization,
    transfer_time,
)

from scenario_builders import scenario_doc, single_app_system, triplex_system

CFG = TimingConfig(utilization_bound=Fraction(69, 100), police_rounds=3,
                   tolerance=0.5)


def _task(task_id=1, wcet_us=2000, period_us=20000, deadline_us=None,
          messages=()):
    return TaskSpec(task_id=task_id, wcet_us=wcet_us, period_us=period_us,
                    deadline_us=deadline_us or period_us, initial_proc=0,
                    code_size=Fraction(0), messages=tuple(messages))


def test_task_utilization_is_exact():
    assert task_utilization(2000, 20000) == Fraction(1, 10)
    assert task_utilization(1, 3) == Fraction(1, 3)


def test_constrained_deadline_tightens_utilization():
    # with D < T the demand window is the deadline
    assert task_utilization(2000, 20000, 10000) == Fraction(1, 5)
    assert task_utilization(2000, 20000, 30000) == Fraction(1, 10)


def test_processor_state_is_value_like():
    empty = ProcessorState()
    one = empty.with_task("a", 2000, 20000, 20000)
    assert empty.utilization == 0
    assert one.utilization == Fraction(1, 10)
    assert "a" in one and "a" not in empty
    two = one.with_task("b", 5000, 20000, 20000)
    assert two.utilization == Fraction(1, 10) + Fraction(1, 4)
    assert two.without_task("a").utilization == Fraction(1, 4)
    assert len(two) == 2


def test_priorities_are_deadline_monotonic():
    state = (ProcessorState()
             .with_task("slow", 1000, 50000, 50000)
             .with_task("fast", 1000, 10000, 10000)
             .with_task("mid", 1000, 20000, 20000))
    prio = state.priorities()
    assert prio["fast"] < prio["mid"] < prio["slow"]


def test_priorities_break_ties_by_key():
    state = (ProcessorState()
             .with_task(7, 1000, 20000, 20000)
             .with_task(3, 1000, 20000, 20000)
             .with_task(5, 1000, 10000, 10000))
    prio = state.priorities()
    assert prio[5] == 0
    assert prio[3] == 1
    assert prio[7] == 2


def test_admission_accepts_exactly_at_the_bound():
    proc = ProcessorState().with_task("base", 59, 100, 100)
    at_bound = admit_task(proc, _task(wcet_us=10, period_us=100), CFG)
    assert at_bound.accepted                            # 0.59 + 0.10 = 0.69
    assert at_bound.resulting_utilization == Fraction(69, 100)
    over = admit_task(proc, _task(wcet_us=11, period_us=100), CFG)
    assert not over.accepted
    assert over.resulting_utilization == Fraction(70, 100)
    assert "exceeds bound" in over.reason


def test_admission_respects_customer_cap():
    capped = TimingConfig(utilization_bound=Fraction(69, 100),
                          police_rounds=3, tolerance=0.5,
                          customer_cap_mode=True)
    proc = ProcessorState().with_task("base", 45, 100, 100)
    assert not admit_task(proc, _task(wcet_us=10, period_us=100), capped).accepted
    assert admit_task(proc, _task(wcet_us=5, period_us=100), capped).accepted


def test_admit_task_uses_the_spec_fields():
    decision = admit_task(ProcessorState(), _task(wcet_us=69, period_us=100),
                          CFG)
    assert decision.accepted
    assert decision.resulting_utilization == Fraction(69, 100)


def test_bus_state_keeps_one_load():
    bus = BusState(Fraction(10))
    bus = bus.with_demand(Fraction(3))
    bus = bus.with_demand(Fraction(4))
    assert bus.current_load == 7
    assert bus.without_demand(Fraction(3)).current_load == 4
    assert bus.current_load == 7      # a state is a value
    assert available_transfer_bandwidth(bus) == 3


def test_check_comms_boundary():
    bus = BusState(Fraction(10)).with_demand(Fraction(9))
    fits = check_comms(bus, Fraction(1))
    assert fits.accepted and fits.resulting_utilization == 10
    over = check_comms(bus, Fraction(2))
    assert not over.accepted


def test_transfer_time_rounds_up_to_whole_microseconds():
    # 40 units at 9.55 units/ms -> 4188.48... us, charged as 4189
    assert transfer_time(Fraction(40), Fraction(955, 100)) == 4189
    assert transfer_time(Fraction(80), Fraction(10)) == 8000
    assert transfer_time(0, Fraction(1)) == 0


def test_transfer_time_with_no_bandwidth_raises():
    with pytest.raises(NoBandwidth):
        transfer_time(Fraction(10), Fraction(0))
    with pytest.raises(NoBandwidth):
        transfer_time(Fraction(10), Fraction(-1))


def test_transfer_time_refuses_a_negative_payload():
    with pytest.raises(ValueError, match="negative payload"):
        transfer_time(Fraction(-1), Fraction(10))


def test_catchup_time_on_an_idle_processor_is_the_backlog():
    task = _task(wcet_us=2000, period_us=20000)
    assert catchup_time(5, task, ProcessorState(), CFG) == 10000
    assert catchup_time(0, task, ProcessorState(), CFG) == 0


def test_catchup_time_scales_with_spare_capacity():
    task = _task(wcet_us=2000, period_us=20000)
    proc = ProcessorState().with_task("load", 69, 100, 100)
    # 10 ms of backlog in 31% spare capacity
    assert catchup_time(5, task, proc, CFG) == -(-10000 * 100 // 31)


def test_catchup_time_needs_spare_capacity():
    task = _task(wcet_us=1000, period_us=1000)
    saturated = ProcessorState().with_task("all", 1, 1, 1)
    with pytest.raises(ValueError):
        catchup_time(1, task, saturated, CFG)
    with pytest.raises(ValueError):
        catchup_time(-1, task, ProcessorState(), CFG)


def test_reference_layout_column_utilization():
    model = build_system(triplex_system())
    state = ProcessorState()
    for app in model.applications:
        for task in app.tasks:
            state = state.with_task((app.app_id, task.task_id),
                                    task.wcet_us, task.period_us,
                                    task.deadline_us)
    # three 2ms/20ms tasks would stack to exactly 0.3
    assert state.utilization == Fraction(3, 10)


@given(payload=st.integers(min_value=1, max_value=10**6),
       num=st.integers(min_value=1, max_value=10**4),
       den=st.integers(min_value=1, max_value=10**4))
def test_transfer_time_is_the_ceiling_of_the_exact_duration(payload, num, den):
    bandwidth = Fraction(num, den)
    exact = Fraction(payload, bandwidth) * 1000
    got = transfer_time(Fraction(payload), bandwidth)
    assert got - 1 < exact <= got


@given(st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 1000)),
                min_size=0, max_size=8),
       st.integers(1, 1000), st.integers(1, 1000))
def test_admission_agrees_with_direct_fraction_sum(entries, wcet, period):
    proc = ProcessorState()
    for i, (c, t) in enumerate(entries):
        proc = proc.with_task(i, c, t, t)
    decision = admit_task(proc, _task(wcet_us=wcet, period_us=period), CFG)
    resulting = sum((Fraction(c, t) for c, t in entries), Fraction(0))
    resulting += Fraction(wcet, period)
    assert decision.resulting_utilization == resulting
    assert decision.accepted == (resulting <= Fraction(69, 100))


# AdmissionDecision is public API: pin what a decision reads as, its exact
# Fraction, both refusal texts and its value equality, whatever it keeps
_BOUNDS = st.sampled_from([CFG, TimingConfig(customer_cap_mode=True),
                           TimingConfig(utilization_bound=Fraction(1))])


def _pin_decision(decision, accepted, resulting, reason):
    assert decision.accepted is accepted
    got = decision.resulting_utilization
    assert type(got) is Fraction and got == resulting
    assert decision.reason == reason
    equal = AdmissionDecision(accepted, resulting, reason)
    assert decision == equal and equal == decision
    assert hash(decision) == hash(equal) and len({decision, equal}) == 1
    assert decision != AdmissionDecision(not accepted, resulting, reason)
    assert decision != AdmissionDecision(accepted, resulting + 1, reason)
    assert decision != AdmissionDecision(accepted, resulting, "other")
    assert decision != (accepted, resulting, reason)


@given(st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 1000),
                          st.integers(1, 1000)), max_size=6),
       st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 1000),
       _BOUNDS)
@example([(59, 100, 100)], 10, 100, 100, CFG)      # exactly at the bound
@example([(59, 100, 100)], 11, 100, 100, CFG)      # just over it
def test_admission_decision_is_pinned(entries, wcet, period, deadline, cfg):
    proc = ProcessorState({i: e for i, e in enumerate(entries)})
    task = _task(wcet_us=wcet, period_us=period, deadline_us=deadline)
    resulting = sum((Fraction(c, min(t, d)) for c, t, d in entries),
                    Fraction(wcet, min(period, deadline)))
    bound = cfg.effective_bound
    accepted = resulting <= bound
    reason = None if accepted else (
        f"utilization {float(resulting):.6f} exceeds bound {float(bound):.2f}")
    decision = admit_task(proc, task, cfg)
    _pin_decision(decision, accepted, resulting, reason)
    assert admit_task(proc, task, cfg) == decision


_LOADS = st.fractions(min_value=0, max_value=50, max_denominator=10**6)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=50,
                    max_denominator=10**6), _LOADS, _LOADS)
@example(Fraction(10), Fraction(9), Fraction(1))   # exactly at the cap
def test_comms_decision_is_pinned(max_load, load, demand):
    bus = BusState(max_load).with_demand(load)
    resulting = load + demand
    accepted = resulting <= max_load
    reason = None if accepted else (
        f"bus demand {float(resulting):.6f}/ms exceeds max load "
        f"{float(max_load):.6f}/ms")
    decision = check_comms(bus, demand)
    _pin_decision(decision, accepted, resulting, reason)
    assert check_comms(bus, demand) == decision


def test_a_refusal_past_float_range_raises_when_it_is_made():
    # the refusal text gives the load as a float: a decision is built, text
    # and all, when it is made, so a load no float holds raises there.
    # Utilizations and the baseline bus load of a document are finite.
    huge = Fraction(10**400)
    with pytest.raises(OverflowError):
        check_comms(BusState(huge), 2 * huge)
    assert check_comms(BusState(2 * huge), huge).accepted


# The totals are kept as running sums, and the rank order as the entries'
# order; after any sequence of updates they must equal a fresh exact sum
# and a fresh sort over what the state holds.

_KEYS = st.integers(0, 4)       # few keys: replacements and misses are common


@given(st.dictionaries(_KEYS, st.tuples(st.integers(1, 500), st.integers(1, 500),
                                        st.integers(1, 500)), max_size=3),
       st.lists(st.one_of(
           st.tuples(st.just("with"), _KEYS, st.integers(1, 500),
                     st.integers(1, 500), st.integers(1, 500)),
           st.tuples(st.just("without"), _KEYS),
           st.tuples(st.just("withouts"), st.lists(_KEYS, max_size=4))),
           max_size=25))
def test_utilization_total_equals_a_fresh_sum(start, ops):
    entries = dict(start)
    proc = ProcessorState(entries)
    for op, key, *task in ops:
        before, before_util = proc, proc.utilization
        if op == "with":
            proc = proc.with_task(key, *task)
            entries[key] = tuple(task)
        elif op == "without":
            proc = proc.without_task(key)
            entries.pop(key, None)
        else:
            proc = proc.without_tasks(key)      # a list of keys, repeats too
            for k in key:
                entries.pop(k, None)
        assert before.utilization == before_util     # states are values
        fresh = sum((task_utilization(*e) for e in entries.values()), Fraction(0))
        assert proc.utilization == fresh
        assert isinstance(proc.utilization, Fraction)
        assert len(proc) == len(entries)
        ranked = sorted(entries, key=lambda k: (entries[k][2], k))
        assert list(proc.priorities()) == ranked
        assert list(proc.priorities().values()) == list(range(len(ranked)))
        assert proc.proven() == (fresh <= Fraction(69, 100) or _response_times_fit(
            entries[k] for k in ranked))


_DEMANDS = st.fractions(min_value=0, max_value=50, max_denominator=1000)


@given(st.lists(_DEMANDS, max_size=3),
       st.lists(st.one_of(st.tuples(st.just("with"), _DEMANDS),
                          st.tuples(st.just("without"), st.integers(0, 30))),
                max_size=25))
def test_bus_load_total_equals_a_fresh_sum(start, ops):
    # withdraw only demands actually held, as the engine does
    held = list(start)
    bus = BusState(Fraction(100))
    for demand in held:
        bus = bus.with_demand(demand)
    for op, arg in ops:
        before, before_load = bus, bus.current_load
        if op == "with":
            bus = bus.with_demand(arg)
            held.append(arg)
        elif held:
            bus = bus.without_demand(held.pop(arg % len(held)))
        assert before.current_load == before_load    # states are values
        assert bus.current_load == sum(held, Fraction(0))
        assert isinstance(bus.current_load, Fraction)
        assert bus.max_load == 100


# Start-up sums are one Fraction over integer pairs; each must equal a
# Fraction sum taken term by term, and the state built one task or one
# demand at a time.

@given(st.dictionaries(st.integers(0, 30),
                       st.tuples(st.integers(1, 10**6), st.integers(1, 10**6),
                                 st.integers(1, 10**6)), max_size=12))
@example({})
def test_a_start_up_utilization_is_the_exact_sum(entries):
    state = ProcessorState(entries)
    want = sum((Fraction(wcet, min(deadline, period))
                for wcet, period, deadline in entries.values()), Fraction(0))
    chain = ProcessorState()
    for key, task in entries.items():
        chain = chain.with_task(key, *task)
    assert state.utilization == want == chain.utilization
    assert type(state.utilization) is Fraction


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**5), st.integers(1, 100),
                          st.integers(1, 100)), min_size=1, max_size=8))
@example([(100, 100, 1)])                   # C/T = 69/100 exactly
@example([(200, 100, 1), (200, 100, 1)])    # two at 69/200
def test_a_set_under_the_density_bound_passes_the_response_time_test(draws):
    # Liu & Layland 1973: the shortcut ProcessorState.proven takes before
    # the fixed points must never prove a set the fixed points reject.
    # C <= D <= T, as every scenario task; shares of 69/100 split the
    # density, floored to whole microseconds
    total = sum(share for _, _, share in draws)
    entries = {}
    for key, (period, deadline_pct, share) in enumerate(draws):
        deadline = max(1, period * deadline_pct // 100)
        wcet = max(1, deadline * share * 69 // (total * 100))
        entries[key] = (wcet, period, deadline)
    state = ProcessorState(entries)
    assume(state.utilization <= Fraction(69, 100))
    ranked = sorted(entries.items(), key=lambda kv: (kv[1][2], kv[0]))
    assert _response_times_fit(entry for _, entry in ranked)
    assert state.proven()


def test_a_set_just_over_the_density_bound_can_miss():
    # Liu & Layland's worst case: periods T_1 < ... < T_n < 2 T_1 with
    # C_i = T_(i+1) - T_i and C_n = 2 T_1 - T_n fill [0, T_n] exactly, so
    # one more microsecond of C_n misses. With n = 50 its density is just
    # above 50 (2^(1/50) - 1) = 0.698: a shortcut that proved every set up
    # to 0.70 would prove this one
    periods = [round(10**6 * 2 ** (i / 50)) for i in range(50)]
    wcets = [b - a for a, b in zip(periods, periods[1:])]
    wcets.append(2 * periods[0] - periods[-1])
    fits = ProcessorState({i: (c, t, t) for i, (c, t) in
                           enumerate(zip(wcets, periods))})
    wcets[-1] += 1
    misses = ProcessorState({i: (c, t, t) for i, (c, t) in
                             enumerate(zip(wcets, periods))})
    assert Fraction(69, 100) < misses.utilization < Fraction(698, 1000)
    assert fits.proven() and not misses.proven()


_SIZES = st.integers(0, 10**6) | st.floats(0, 1e6)
_MESSAGE_PERIODS_MS = st.sampled_from([5, 10, 12.5, 20, 25, 40, 0.125])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(_SIZES, _MESSAGE_PERIODS_MS), max_size=3),
                min_size=1, max_size=5),
       st.integers(2, 4))
def test_the_bus_baseline_is_the_exact_sum(messages, lanes):
    tasks = [{"task_id": i + 1, "wcet_ms": 1, "period_ms": 40,
              "initial_proc": 0,
              "messages": [{"msg_id": j + 1, "size": size, "period_ms": period}
                           for j, (size, period) in enumerate(msgs)]}
             for i, msgs in enumerate(messages)]
    doc = scenario_doc([], horizon_ms=20, system=single_app_system(
        lanes=lanes, max_load=10**9, tasks=tasks))
    engine = Engine(parse_scenario(doc))
    want = lanes * sum((Fraction(str(size)) / Fraction(str(period))
                        for msgs in messages for size, period in msgs),
                       Fraction(0))
    chain = BusState(Fraction(10**9))
    for task in engine.model.applications[0].tasks:
        demands = [Fraction(m.size) * 1000 / m.period_us for m in task.messages]
        assert task.message_demand == sum(demands, Fraction(0))
        for _ in range(lanes):
            for demand in demands:
                chain = chain.with_demand(demand)
    load = engine.bus.current_load
    assert load == want == chain.current_load
    assert type(load) is Fraction
