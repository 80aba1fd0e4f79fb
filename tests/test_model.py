"""System document parsing and structural validation."""

from fractions import Fraction

import pytest

from lanesim.model import (
    Architecture,
    InvalidModel,
    MalformedDocument,
    ProcessorRole,
    StateStrategy,
    build_system,
    initial_allocation,
)

from scenario_builders import triplex_system


def test_build_system_parses_reference_layout():
    model = build_system(triplex_system())
    assert model.architecture is Architecture.RESTRICTED_INTEGRATED
    assert model.lane_ids == (0, 1, 2)
    assert len(model.lanes[0].processors) == 4
    assert model.lanes[1].processor(3).role is ProcessorRole.SPARE
    assert model.spare_positions() == [(0, 3), (1, 3), (2, 3)]
    app = model.application(2)
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
    spec = model.application(1).task(1)
    assert spec.wcet_us == 2500
    assert spec.period_us == 12500
    assert spec.deadline_us == 12500
    # message demand is exact: 1 unit / 12.5 ms
    assert spec.message_demand == Fraction(1000, 12500)


def test_task_and_message_sizes_are_fractions():
    model = build_system(triplex_system())
    spec = model.application(1).task(1)
    assert spec.code_size == Fraction(40)
    assert spec.message_demand == Fraction(1, 20)


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
    assert model.timing.effective_bound == Fraction(1, 2)
    plain = build_system(triplex_system())
    assert plain.timing.effective_bound == Fraction(69, 100)


def test_initial_allocation_mirrors_copies_across_lanes():
    model = build_system(triplex_system())
    placing = initial_allocation(model)
    # one copy of each of 3 tasks on each of 3 lanes
    assert len(placing) == 9
    for (app_id, task_id, lane_id), (lane, proc) in placing.items():
        assert lane == lane_id
        assert proc == app_id - 1
        assert task_id == app_id


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
