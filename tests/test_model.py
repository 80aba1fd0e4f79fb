"""System document parsing and structural validation."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lanesim import timebase
from lanesim.fault import FaultKind, FaultSpec, FaultTarget, TargetKind
from lanesim.model import (
    Architecture,
    InvalidModel,
    MalformedDocument,
    MessageSpec,
    ProcessorRole,
    StateStrategy,
    TaskSpec,
    TimingConfig,
    build_system,
)
from lanesim.sim import Engine
from lanesim.timebase import frac, ms_to_us

from oracles import message_demand
from scenario_builders import scen, triplex_system


def _app(model, app_id):
    return next(a for a in model.applications if a.app_id == app_id)


def test_build_system_parses_reference_layout():
    model = build_system(triplex_system())
    assert model.architecture is Architecture.RESTRICTED_INTEGRATED
    assert model.lane_ids == (0, 1, 2)
    assert len(model.lanes[0].processors) == 4
    roles = {p.proc_id: p.role for p in model.lanes[1].processors}
    assert roles[3] is ProcessorRole.SPARE
    assert model.spare_positions() == [(0, 3), (1, 3), (2, 3)]
    app = _app(model, 2)
    assert app.criticality == 1
    assert app.state_model.strategy is StateStrategy.TRANSFER
    assert app.state_model.snapshot_size == 80


def test_durations_become_integer_microseconds():
    doc = triplex_system()
    task = doc["applications"][0]["tasks"][0]
    task["wcet_ms"] = 2.5
    task["period_ms"] = 12.5
    task["deadline_ms"] = 12.5
    task["messages"][0]["period_ms"] = 12.5
    model = build_system(doc)
    spec = _app(model, 1).task(1)
    assert spec.wcet_us == 2500
    assert spec.period_us == 12500
    assert spec.deadline_us == 12500
    # message demand is exact: 1 unit / 12.5 ms
    assert spec.messages[0].demand_ratio == (1000, 12500)
    assert message_demand(spec) == Fraction(1000, 12500)


# a duration a document may hold: an int, a float equal to an int (both
# past 2**53, where an int and its equal float convert apart), or any float
_MS = st.one_of(st.integers(1, 2**70), st.integers(1, 2**70).map(float),
                st.floats(0.002, 2.0**70))
_ABSENT = object()      # a field the document leaves out


def _twins(value) -> list:
    """The values equal to value that a document can hold: itself, and the
    int or float of the other class where one is equal to it."""
    if type(value) is float and value.is_integer():
        return [value, int(value)]
    if type(value) is int and float(value) == value:
        return [value, float(value)]
    return [value]


@st.composite
def _defaulted(draw, period, below):
    """A field that defaults to the task's period: absent, null, equal to
    it in either class, or another value (at most the period if below)."""
    how = draw(st.sampled_from(("absent", "null", "equal", "differs")))
    if how == "absent":
        return _ABSENT
    if how == "null":
        return None
    if how == "equal":
        return draw(st.sampled_from(_twins(period)))
    value = draw((st.floats(0.002, float(period)) | st.integers(1, max(1, int(period))))
                 if below else _MS)
    assume(value != period and (not below or value < period))
    return value


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_duration_that_defaults_to_the_period_converts_its_own_value(data):
    # each task's deadline_us and each message's period_us is ms_to_us of
    # the document's own value, else of the task's period_ms; where the
    # document repeats that period in its class, it is the task's own int
    doc = triplex_system()
    drawn = []
    for app in doc["applications"]:
        task = app["tasks"][0]
        period = data.draw(_MS)
        deadline = data.draw(_defaulted(period, below=True))
        message = data.draw(_defaulted(period, below=False))
        task.update(period_ms=period, wcet_ms=0.001)
        for record, key, value in ((task, "deadline_ms", deadline),
                                   (task["messages"][0], "period_ms", message)):
            if value is _ABSENT:
                del record[key]
            else:
                record[key] = value
        drawn.append((period, deadline, message))
        # an equal int and float can convert apart: the model then refuses
        # a deadline past the period, which is no case of this test
        assume(deadline in (_ABSENT, None) or ms_to_us(deadline) <= ms_to_us(period))
    model = build_system(doc)
    for app, (period, deadline, message) in zip(model.applications, drawn):
        spec = app.tasks[0]
        assert spec.period_us == ms_to_us(period)
        for got, value in ((spec.deadline_us, deadline),
                           (spec.messages[0].period_us, message)):
            own = value in (_ABSENT, None)
            assert got == ms_to_us(period if own else value), (period, value)
            if own or type(value) is type(period) and value == period:
                assert got is spec.period_us, (period, value)


def test_task_and_message_sizes_are_fractions():
    model = build_system(triplex_system())
    spec = _app(model, 1).task(1)
    assert spec.code_size == Fraction(40)
    assert spec.messages[0].size == Fraction(1)
    assert message_demand(spec) == Fraction(1, 20)


def test_unknown_architecture_is_malformed():
    doc = triplex_system(architecture="split_brain")
    with pytest.raises(MalformedDocument):
        build_system(doc)


def test_missing_required_key_is_malformed():
    doc = triplex_system()
    del doc["applications"][0]["tasks"][0]["period_ms"]
    with pytest.raises(MalformedDocument):
        build_system(doc)


def _violation_codes(doc):
    with pytest.raises(InvalidModel) as err:
        build_system(doc)
    return {v.code for v in err.value.violations}


def test_duplicate_lane_ids_rejected():
    doc = triplex_system()
    doc["lanes"][1]["lane_id"] = 0
    assert "DuplicateId" in _violation_codes(doc)


def test_duplicate_processor_ids_rejected():
    doc = triplex_system()
    doc["lanes"][0]["processors"][1]["proc_id"] = 0
    assert "DuplicateId" in _violation_codes(doc)


def test_duplicate_app_and_task_ids_rejected():
    doc = triplex_system()
    doc["applications"][1]["app_id"] = 1
    assert "DuplicateId" in _violation_codes(doc)
    doc = triplex_system()
    doc["applications"][0]["tasks"].append(
        dict(doc["applications"][0]["tasks"][0]))
    assert "DuplicateId" in _violation_codes(doc)


def test_initial_proc_must_exist_on_every_lane():
    doc = triplex_system()
    doc["applications"][0]["tasks"][0]["initial_proc"] = 9
    codes = _violation_codes(doc)
    assert codes  # missing processor is a structural violation


@pytest.mark.parametrize("procs", [[0, 0], [0, True, 0], [0, 0, 0, 0], [],
                                   [0, 0.0, 0]])
def test_per_lane_initial_proc_lists_one_int_per_lane(procs):
    doc = triplex_system()
    doc["applications"][0]["tasks"][0]["initial_proc"] = procs
    with pytest.raises(MalformedDocument, match=(
            r"^system\.applications\[0\]\.tasks\[0\]: per-lane "
            r"initial_proc must list one int per lane$")):
        build_system(doc)


def test_per_lane_initial_proc_names_one_processor_on_every_lane():
    doc = triplex_system()
    doc["applications"][0]["tasks"][0]["initial_proc"] = [0, 1, 0]
    with pytest.raises(InvalidModel) as err:
        build_system(doc)
    assert [(v.code, v.message) for v in err.value.violations] == [
        ("AsymmetricLanes", "system.applications[0].tasks[0]: initial_proc "
                            "differs between lanes (0, 1, 0)")]
    assert str(err.value) == ("AsymmetricLanes: system.applications[0]"
                              ".tasks[0]: initial_proc differs between lanes "
                              "(0, 1, 0)")


def test_a_convergence_state_model_ships_no_snapshot():
    doc = triplex_system()
    doc["applications"][0]["state_model"] = {
        "strategy": "convergence", "convergence_rounds": 3, "snapshot_size": 5}
    with pytest.raises(InvalidModel) as err:
        build_system(doc)
    assert [(v.code, v.message) for v in err.value.violations] == [
        ("MalformedDocument", "app 1: convergence strategy ships no snapshot")]


def test_the_system_section_must_be_an_object():
    with pytest.raises(MalformedDocument,
                       match="^system section must be an object$"):
        build_system([])


def test_spare_cannot_host_initial_tasks():
    doc = triplex_system()
    doc["applications"][0]["tasks"][0]["initial_proc"] = 3
    assert "SpareHasTasks" in _violation_codes(doc)


def test_lane_count_bounds():
    doc = triplex_system()
    doc["lanes"] = doc["lanes"][:1]
    assert "MalformedDocument" in _violation_codes(doc)


def test_restricted_app_must_stay_on_one_processor():
    doc = triplex_system()
    doc["applications"][0]["tasks"].append(
        {"task_id": 9, "wcet_ms": 1, "period_ms": 20, "deadline_ms": 20,
         "initial_proc": 1, "code_size": 10,
         "messages": []})
    codes = _violation_codes(doc)
    assert "ArchitectureMismatch" in codes


def test_restricted_processor_hosts_single_app():
    doc = triplex_system()
    doc["applications"][1]["tasks"][0]["initial_proc"] = 0
    assert "ArchitectureMismatch" in _violation_codes(doc)


def test_restricted_needs_spare_on_every_lane():
    doc = triplex_system()
    doc["lanes"][2]["processors"] = doc["lanes"][2]["processors"][:3]
    assert "ArchitectureMismatch" in _violation_codes(doc)


def test_federated_carries_one_single_task_app_and_no_spares():
    fed = {
        "architecture": "federated_quadruplex",
        "lanes": [{"lane_id": lane, "processors": [{"proc_id": 0}]}
                  for lane in range(3)],
        "bus": {"max_load": 10},
        "applications": [
            {"app_id": 1, "criticality": 0,
             "state_model": {"strategy": "transfer", "snapshot_size": 10},
             "tasks": [{"task_id": 1, "wcet_ms": 2, "period_ms": 20,
                        "deadline_ms": 20, "initial_proc": 0,
                        "code_size": 10, "messages": []}]}],
        "timing": {"utilization_bound": 0.69, "police_rounds": 3,
                   "tolerance": 0.5},
    }
    model = build_system(fed)
    assert model.architecture is Architecture.FEDERATED_QUADRUPLEX

    fed["applications"].append(dict(fed["applications"][0], app_id=2))
    assert "ArchitectureMismatch" in _violation_codes(fed)

    fed["applications"].pop()
    fed["lanes"][0]["processors"].append({"proc_id": 1, "role": "spare"})
    assert "ArchitectureMismatch" in _violation_codes(fed)


def test_hybrid_state_model_needs_min_within_snapshot():
    doc = triplex_system()
    doc["applications"][0]["state_model"] = {
        "strategy": "hybrid", "snapshot_size": 50, "min_state_size": 80,
        "convergence_rounds": 2}
    assert _violation_codes(doc)


def test_timing_bounds_validated():
    doc = triplex_system()
    doc["timing"]["utilization_bound"] = 1.5
    assert "MalformedDocument" in _violation_codes(doc)
    doc = triplex_system()
    doc["timing"]["police_rounds"] = 0
    assert "MalformedDocument" in _violation_codes(doc)
    doc = triplex_system()
    doc["timing"]["tolerance"] = 0
    assert "MalformedDocument" in _violation_codes(doc)


def test_customer_cap_mode_halves_the_bound():
    doc = triplex_system()
    doc["timing"]["customer_cap_mode"] = True
    model = build_system(doc)
    assert model.timing.utilization_bound == Fraction(1, 2)
    plain = build_system(triplex_system())
    assert plain.timing.utilization_bound == Fraction(69, 100)
    # the flag only picks the bound: the config keeps no second value
    assert "customer_cap_mode" not in {
        f.name for f in dataclasses.fields(TimingConfig)}


def test_every_lane_starts_with_a_copy_of_each_task_on_its_initial_proc():
    engine = Engine(scen([]))
    model = engine.model
    # one copy of each of 3 tasks on each of 3 lanes
    assert sum(len(copies) for tasks in engine.groups.values()
               for copies in tasks.values()) == 9
    for app in model.applications:
        for task in app.tasks:
            copies = engine.groups[app.app_id][task.task_id]
            assert [c.place for c in copies] == [
                (lane, task.initial_proc) for lane in model.lane_ids]
            assert task.initial_proc == app.app_id - 1
            assert task.task_id == app.app_id


@pytest.mark.parametrize("where", ["message", "task"])
def test_a_message_period_must_be_positive(where):
    # a zero message period, its own or its task's, died with a
    # ZeroDivisionError while the task's bus demand was summed
    doc = triplex_system()
    task = doc["applications"][0]["tasks"][0]
    if where == "message":
        task["messages"][0]["period_ms"] = 0
    else:
        del task["messages"][0]["period_ms"]
        task["period_ms"] = 0
    with pytest.raises(InvalidModel) as err:
        build_system(doc)
    messages = [v.message for v in err.value.violations]
    assert ("system.applications[0].tasks[0]: message period must be positive"
            in messages)
    assert not any("has no tasks" in m for m in messages)


@pytest.mark.parametrize("field", ["code_size", "message size"])
def test_a_negative_size_is_refused(field):
    # a message of size -500 used to pass: the triplex's bus then started
    # at a load of -2991/20 units/ms, and transfers got 159.55 units/ms
    doc = triplex_system()
    task = doc["applications"][0]["tasks"][0]
    if field == "code_size":
        task["code_size"] = -40
    else:
        task["messages"][0]["size"] = -500
    with pytest.raises(InvalidModel) as err:
        build_system(doc)
    assert [v.message for v in err.value.violations] == [
        f"system.applications[0].tasks[0]: negative {field}"]


def test_one_task_breaking_every_per_task_rule_refuses_in_rule_order():
    # the violations of one task come out in the order build_system checks
    # its rules; the zero period, the negative size and a valid message
    # come in that order, so a read that stopped at the first bad message
    # or kept the last one's sign alone would lose the negative size
    doc = triplex_system(architecture="fully_integrated")
    doc["applications"][0]["tasks"].append({
        "task_id": 1, "wcet_ms": 30, "period_ms": 20, "deadline_ms": 20,
        "initial_proc": 3, "code_size": -5,
        "messages": [{"msg_id": 1, "size": 1, "period_ms": 0},
                     {"msg_id": 1, "size": -2}, {"msg_id": 2, "size": 1}]})
    with pytest.raises(InvalidModel) as err:
        build_system(doc)
    at = "system.applications[0].tasks[1]"
    assert [(v.code, v.message) for v in err.value.violations] == [
        ("DuplicateId", "duplicate task id 1 in app 1"),
        ("DuplicateId", f"duplicate message ids in {at}"),
        ("MalformedDocument", f"{at}: need 0 < wcet <= deadline <= period"),
        ("MalformedDocument", f"{at}: negative code_size"),
        ("MalformedDocument", f"{at}: negative message size"),
        *(("SpareHasTasks",
           f"app 1 task 1 allocated to spare processor 3 (lane {lane})")
          for lane in range(3)),
        ("MalformedDocument", f"{at}: message period must be positive"),
    ]


def _two_of_each_spec():
    """Two equal, separately built specs of each kind that builds by the
    dozen per document."""
    def make():
        msg = MessageSpec(1, frac(2), 20_000)
        target = FaultTarget(TargetKind.PROCESSOR, lane=0, proc=1)
        return (msg, TaskSpec(3, 2_000, 20_000, 20_000, 1, frac(40), (msg,)),
                target, FaultSpec(7, 5_000, FaultKind.PERMANENT, target))
    # a field each that tells two specs of the kind apart
    other = ({"msg_id": 2}, {"task_id": 4}, {"proc": 2}, {"fault_id": 8})
    return zip(make(), make(), other)


@pytest.mark.parametrize("a, b, other", _two_of_each_spec(),
                         ids=["message", "task", "target", "fault"])
def test_equal_specs_compare_equal_and_hash_alike(a, b, other):
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != dataclasses.replace(a, **other)


def test_an_integral_size_is_a_shared_fraction_of_its_value():
    model = build_system(triplex_system())
    sizes = [t.code_size for a in model.applications for t in a.tasks]
    sizes += [m.size for a in model.applications for t in a.tasks
              for m in t.messages]
    assert [type(v) for v in sizes] == [Fraction] * 6
    assert sizes == [Fraction(40)] * 3 + [Fraction(1)] * 3
    assert sizes[0] is sizes[1] is sizes[2] is frac(40)
    assert sizes[3] is sizes[4] is sizes[5] is frac(1)
    assert _app(model, 2).state_model.snapshot_size is frac(80)
    with pytest.raises(TypeError):
        frac(True)


def test_the_shared_fractions_stay_within_their_range():
    doc = triplex_system(architecture="fully_integrated")
    limit = timebase._SHARED_LIMIT
    for task, size in zip((a["tasks"][0] for a in doc["applications"]),
                          (limit, 10**20, -3)):
        task["code_size"] = size
        task["messages"][0]["size"] = size + 1
    with pytest.raises(InvalidModel):      # the negative sizes
        build_system(doc)
    assert timebase._shared
    assert all(0 <= value < limit for value in timebase._shared)
    assert all(shared == value for value, shared in timebase._shared.items())
    assert frac(limit) == limit and frac(limit) is not frac(limit)
    assert frac(limit - 1) is frac(limit - 1)
