"""Scenario documents, the generator, and the command-line front end."""

import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lanesim import cli
from lanesim.coverage import CoverageLevel
from lanesim.model import InvalidModel, MalformedDocument, build_system
from lanesim.scenario import (
    _emission_bound,
    dump_json,
    dump_scenario,
    generate_scenario,
    load_scenario,
    parse_scenario,
    scenario_violations,
)
from lanesim.timing import ProcessorState

from lanesim.sim import run

from metrics_oracle import metrics_document
from scenario_builders import (lane_fault, proc_fault, scenario_doc,
                               single_app_system, triplex_system)
from golden.rehash import SCENARIOS


def _violations(doc):
    with pytest.raises(InvalidModel) as err:
        parse_scenario(doc)
    return [(v.code, v.message) for v in err.value.violations]


def _messages(doc):
    return [message for _code, message in _violations(doc)]


def test_parse_scenario_happy_path():
    sc = parse_scenario(scenario_doc([proc_fault()]))
    assert sc.settings.seed == 1
    assert sc.settings.horizon_us == 200000
    assert len(sc.faults) == 1
    assert sc.faults[0].target.lane == 0


def test_format_version_is_mandatory():
    doc = scenario_doc([])
    del doc["format_version"]
    with pytest.raises(MalformedDocument):
        parse_scenario(doc)
    doc["format_version"] = 2
    with pytest.raises(MalformedDocument):
        parse_scenario(doc)


def test_unknown_fault_kind_is_malformed():
    doc = scenario_doc([{"at_ms": 10, "kind": "gremlin",
                         "target": {"kind": "lane", "lane": 0}}])
    with pytest.raises(MalformedDocument):
        parse_scenario(doc)


def test_target_requires_its_coordinates():
    doc = scenario_doc([{"at_ms": 10, "kind": "permanent",
                         "target": {"kind": "processor", "lane": 0}}])
    with pytest.raises(MalformedDocument):
        parse_scenario(doc)


def test_transient_needs_a_duration():
    doc = scenario_doc([{"at_ms": 10, "kind": "transient",
                         "target": {"kind": "lane", "lane": 0}}])
    assert any("duration" in m for m in _messages(doc))


def test_permanent_must_not_have_a_duration():
    doc = scenario_doc([proc_fault(duration_ms=5)])
    assert any("duration" in m for m in _messages(doc))


def test_byzantine_needs_a_skew():
    doc = scenario_doc([{"at_ms": 10, "kind": "byzantine",
                         "target": {"kind": "task", "lane": 0, "proc": 0,
                                    "app": 1, "task": 1}}])
    assert any("value_skew" in m for m in _messages(doc))


def test_sensor_faults_are_never_byzantine():
    doc = scenario_doc([{"at_ms": 10, "kind": "byzantine", "value_skew": 2.0,
                         "target": {"kind": "sensor", "app": 1, "lane": 0}}])
    assert any("byzantine" in m for m in _messages(doc))


def test_fault_must_fire_before_the_horizon():
    doc = scenario_doc([proc_fault(at_ms=250)], horizon_ms=200)
    assert any("horizon" in m for m in _messages(doc))


def test_fault_references_must_resolve():
    assert any("unknown lane" in m
               for m in _messages(scenario_doc([proc_fault(lane=7)])))
    doc = scenario_doc([{"at_ms": 10, "kind": "permanent",
                         "target": {"kind": "task", "lane": 0, "proc": 0,
                                    "app": 9, "task": 1}}])
    assert any("unknown app" in m for m in _messages(doc))


def test_fault_ids_must_be_unique():
    # explicit ids, and an explicit id equal to another fault's list index
    doc = scenario_doc([proc_fault(at_ms=30, fault_id=7),
                        proc_fault(at_ms=60, lane=1, proc=1, fault_id=7)])
    assert _violations(doc) == [("DuplicateId", "duplicate fault id 7")]
    doc = scenario_doc([proc_fault(at_ms=30),
                        proc_fault(at_ms=60, lane=1, proc=1, fault_id=0)])
    assert _violations(doc) == [("DuplicateId", "duplicate fault id 0")]


def test_approval_references_must_resolve():
    doc = scenario_doc([], policies={"pilot_gate": True,
                                     "pilot_approvals": [{"at_ms": 10,
                                                          "lane": 9}]})
    assert any("unknown lane" in m for m in _messages(doc))


@pytest.mark.parametrize("names, problem", [
    ({"lane": 9}, "unknown lane 9"),
    ({"lane": 0, "proc": 99}, "unknown processor 99"),
    ({"app": 9}, "unknown app 9"),
    ({"app": 1, "task": 999}, "unknown task 999"),
    ({"app": 1, "task": 2}, "unknown task 2"),      # task 2 is app 2's
    ({"task": 999}, "unknown task 999"),
])
def test_an_approval_names_only_places_the_system_has(names, problem):
    # an unknown processor or task used to validate clean, and the
    # approval then matched nothing
    doc = scenario_doc([], policies={"pilot_gate": True,
                                     "pilot_approvals": [{"at_ms": 10, **names}]})
    assert _violations(doc) == [("MalformedDocument",
                                 f"approval at 10000us: {problem}")]
    doc["policies"]["pilot_approvals"][0].update(lane=0, proc=0, app=1, task=1)
    assert scenario_violations(parse_scenario(doc)) == []


def _negative_size_doc():
    doc = scenario_doc([])
    doc["system"]["applications"][0]["tasks"][0]["messages"][0]["size"] = -500
    return doc


@pytest.mark.parametrize("doc, message", [
    # the clock ran backwards: FaultActivate traced at -5000 us and a
    # PilotApproval row at -7000 us, before the first releases at 0
    (scenario_doc([proc_fault(at_ms=-5)]), "fault 0 fires before time zero"),
    (scenario_doc([], policies={"pilot_gate": True,
                                "pilot_approvals": [{"at_ms": -7, "lane": 0}]}),
     "approval at -7000us: before time zero"),
    # the baseline bus load read -2991/20 units/ms against a max_load of 10
    (_negative_size_doc(),
     "system.applications[0].tasks[0]: negative message size"),
], ids=["fault", "approval", "message size"])
def test_a_negative_time_or_size_is_refused(tmp_path, capsys, doc, message):
    assert _violations(doc) == [("MalformedDocument", message)]
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    code, err = _refusals(tmp_path, capsys, "bad.json")
    assert code == 1 and message in err


@pytest.mark.parametrize("doc, message", [
    (scenario_doc([{"at_ms": 10, "kind": "permanent",
                    "target": {"kind": "sensor", "app": 1, "lane": 0}}]),
     "fault 0: sensor faults need value_skew"),
    (dict(scenario_doc([]), voter={"tolerance": 0}),
     "voter tolerance must be positive"),
    (scenario_doc([], sim={"bit_period_ms": 0}),
     "bit_period_ms must be positive"),
], ids=["sensor skew", "voter tolerance", "bit period"])
def test_a_setting_the_run_cannot_use_is_refused(tmp_path, capsys, doc,
                                                  message):
    assert _violations(doc) == [("MalformedDocument", message)]
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    code, err = _refusals(tmp_path, capsys, "bad.json")
    assert code == 1 and message in err


def test_a_scenario_must_be_a_json_object():
    with pytest.raises(MalformedDocument,
                       match="^scenario must be a JSON object$"):
        parse_scenario([])


def test_initial_proc_listed_once_per_lane_runs_as_one_proc():
    doc = scenario_doc([proc_fault()])
    listed = scenario_doc([proc_fault()])
    listed["system"]["applications"][0]["tasks"][0]["initial_proc"] = [0, 0, 0]
    assert run(parse_scenario(listed)) == run(parse_scenario(doc))


@pytest.mark.parametrize("target, problem", [
    ({"kind": "processor", "lane": 0, "proc": 99}, "unknown processor 99"),
    ({"kind": "task", "lane": 0, "proc": 0, "app": 1, "task": 999},
     "unknown task 999"),
])
def test_a_fault_target_names_only_places_the_system_has(target, problem):
    doc = scenario_doc([{"at_ms": 10, "kind": "permanent", "target": target}])
    assert _violations(doc) == [("MalformedDocument", f"fault 0: {problem}")]


def test_settings_bounds():
    doc = scenario_doc([])
    doc["sim"]["bit_detect_probability"] = 1.5
    assert any("bit_detect_probability" in m for m in _messages(doc))
    doc = scenario_doc([])
    doc["sim"]["horizon_ms"] = 0
    assert any("horizon" in m for m in _messages(doc))


def test_a_reference_that_overflows_before_the_horizon_is_malformed():
    # finite in the file, infinite by 200 ms: the vote would crash as on NaN
    doc = scenario_doc([], sim={"reference": {"slope_per_ms": 1e308}})
    assert _violations(doc) == [
        ("MalformedDocument", "sim.reference overflows before the horizon")]
    doc = scenario_doc([], sim={"reference": {"slope_per_ms": 1e305}})
    assert scenario_violations(parse_scenario(doc)) == []


def _lane_skew(lane, skew, **extra):
    return lane_fault(at_ms=30, lane=lane, kind="byzantine", value_skew=skew,
                      **extra)


def _overflow_case(name, scale):
    """Each case validated clean at full scale, then crashed the run with
    "max() arg is an empty sequence" once a copy emitted inf."""
    if name == "one lane":
        return scenario_doc([_lane_skew(0, 1.7e308 * scale)],
                            sim={"reference": {"value": 1.7e308 * scale}})
    if name == "two lanes":
        return scenario_doc([_lane_skew(0, 1e308 * scale),
                             _lane_skew(1, 1e308 * scale)],
                            sim={"reference": {"value": 1e308 * scale}})
    # a two-faced relay adds 1.5 x its skew to what it passes on
    return scenario_doc([_lane_skew(0, 1.2e308 * scale, per_receiver=True)],
                        system=single_app_system(lanes=4))


_OVERFLOW = "emitted values can overflow: reference, skews and " \
            "convergence drift add up past the largest float"


_VOTE_OVERFLOW = "a vote can overflow: the lane count times the largest " \
                 "emitted value passes the largest float"


@pytest.mark.parametrize("name", ["one lane", "two lanes", "relay"])
def test_finite_inputs_whose_sum_overflows_are_malformed(name):
    assert _violations(_overflow_case(name, 1.0)) == [
        ("MalformedDocument", _OVERFLOW)]
    # at half the size each value is finite, but a vote's sum of them is not
    assert _violations(_overflow_case(name, 0.5)) == [
        ("MalformedDocument", _VOTE_OVERFLOW)]
    # at a tenth every vote's sum stays finite: the run votes them out
    sc = parse_scenario(_overflow_case(name, 0.1))
    assert len(sc.model.lanes) * _emission_bound(sc) < 1.8e308
    assert run(sc).counters["detections"] >= 1


def test_the_emission_bound_counts_convergence_drift():
    doc = scenario_doc([proc_fault()], system=single_app_system(
        state_model={"strategy": "convergence", "convergence_rounds": 2}))
    doc["voter"] = {"tolerance": 1e307}
    assert _emission_bound(parse_scenario(doc)) == 2 * 1e307 * 2
    doc["voter"] = {"tolerance": 4e307}
    assert _violations(doc) == [("MalformedDocument", _VOTE_OVERFLOW)]
    doc["voter"] = {"tolerance": 1e308}
    assert _violations(doc) == [("MalformedDocument", _OVERFLOW)]


@pytest.mark.parametrize("lanes,consensus", [(3, "mean_of_others"),
                                              (4, "median_of_others")])
def test_a_vote_whose_sum_overflows_is_malformed(lanes, consensus):
    # each copy emits a finite 1e308, but the fault-free runs summed them to
    # inf: 15 (3 lanes, mean) and 20 (4 lanes, median of an even count)
    # detections, as many shutdowns and 2 records
    doc = generate_scenario(lanes=lanes, procs=3, apps=2, seed=1, horizon_ms=60)
    doc["voter"]["consensus"] = consensus
    doc["sim"]["reference"]["value"] = 1e308
    assert _violations(doc) == [("MalformedDocument", _VOTE_OVERFLOW)]
    # at a tenth the votes stay finite and find nothing
    doc["sim"]["reference"]["value"] = 1e307
    result = run(parse_scenario(doc))
    assert result.counters["detections"] == result.counters["shutdowns"] == 0
    assert result.records == []


def test_a_nan_tolerance_is_refused_before_the_run(tmp_path, capsys):
    # it used to validate clean, then the first vote round of three copies
    # died in the clique search with "max() arg is an empty sequence"
    doc = scenario_doc([])
    doc["voter"] = {"tolerance": float("nan")}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out_dir)]) == 2
    assert "voter: field 'tolerance' must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_violations_list_is_empty_for_a_clean_scenario():
    sc = parse_scenario(scenario_doc([proc_fault()]))
    assert scenario_violations(sc) == []


# --- the generator ------------------------------------------------


def test_generator_is_deterministic_per_seed():
    a = generate_scenario(lanes=3, procs=3, apps=2, seed=42, faults=3)
    b = generate_scenario(lanes=3, procs=3, apps=2, seed=42, faults=3)
    assert dump_scenario(a) == dump_scenario(b)
    c = generate_scenario(lanes=3, procs=3, apps=2, seed=43, faults=3)
    assert dump_scenario(a) != dump_scenario(c)


# --- the JSON writer -------------------------------------------------

_TRICKY_TEXT = st.sampled_from(["", "é", "☃", "\U0001f600", '"', "\\",
                                "\n", "\x00", "\x1f", "\ud800", "a\tb"])
_JSON_LEAVES = (
    st.none() | st.booleans()
    | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 70)
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf])
    | st.text() | _TRICKY_TEXT
    | st.sampled_from(CoverageLevel))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | _TRICKY_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3)), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example({"a": {}, "b": [], "c": [{}, [[]], ()], "d": {"e": {"f": []}}})
@example([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf, 2 ** 64 + 1,
          -(2 ** 70), True, False, None, CoverageLevel.DUPLEX])
@example({'"q"\n\x01é': {1: ["x"], 2: {"y": (1.5,)}}, "z": {3: None}})
def test_dump_json_writes_the_stdlib_text(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dump_json_holds_one_container_at_a_time():
    # a fault_storm-shape scenario's metrics: the stdlib's indented encoder
    # keeps about seven times the text alive, one chunk list for all of it
    doc = generate_scenario(lanes=4, procs=10, apps=8, seed=1003, faults=40,
                            horizon_ms=100)
    metrics = metrics_document(run(parse_scenario(doc)))
    text = json.dumps(metrics, indent=2, sort_keys=True)
    assert dump_json(metrics) == text
    tracemalloc.start()
    try:
        dump_json(metrics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), (peak, len(text))


def test_metrics_json_does_not_depend_on_dict_insertion_order(tmp_path):
    # the writer alone orders metrics.json's keys: the same result with its
    # dicts filled in reverse writes the same bytes
    result = run(load_scenario(SCENARIOS / "generated_s23_f10.json"))
    assert max(len(rec.placements) for rec in result.records) >= 2
    assert len(result.risk) >= 2
    [before, *_] = cli.write_outputs(result, tmp_path / "before")
    result.risk = dict(reversed(result.risk.items()))
    result.final_coverage = dict(reversed(result.final_coverage.items()))
    result.counters = dict(reversed(result.counters.items()))
    for rec in result.records:
        rec.placements = dict(reversed(rec.placements.items()))
    [after, *_] = cli.write_outputs(result, tmp_path / "after")
    assert after.read_bytes() == before.read_bytes()


def test_generated_documents_parse_cleanly():
    for seed in range(6):
        doc = generate_scenario(lanes=2 + seed % 3, procs=3, apps=2,
                                seed=seed, faults=seed % 4)
        sc = parse_scenario(doc)
        assert scenario_violations(sc) == []


@pytest.mark.parametrize("horizon_ms", [-5, 0, float("inf"), float("nan"), 10**400,
                                        "100", Fraction(100), True])
def test_generator_rejects_a_horizon_that_is_not_positive_and_finite(horizon_ms):
    with pytest.raises(ValueError, match="horizon"):
        generate_scenario(seed=1, horizon_ms=horizon_ms)


def test_generator_rejects_a_horizon_that_rounds_to_zero_us():
    with pytest.raises(ValueError, match="horizon"):
        generate_scenario(seed=1, faults=2, horizon_ms=0.0004)


@settings(max_examples=150, deadline=None)
@given(horizon_ms=st.floats(min_value=0.001, max_value=20),
       faults=st.integers(min_value=1, max_value=10),
       lanes=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=10_000))
def test_generated_documents_with_faults_validate_at_any_horizon(
        horizon_ms, faults, lanes, seed):
    doc = generate_scenario(lanes=lanes, procs=3, apps=2, seed=seed,
                            faults=faults, horizon_ms=horizon_ms)
    sc = parse_scenario(doc)
    assert len(sc.faults) == faults
    assert all(0 <= f.at_us < sc.settings.horizon_us for f in sc.faults)


@pytest.mark.parametrize("horizon_ms, at_ms", [
    (10, [5.0, 5.0, 5.0, 5.0, 5.0]),
    (12.5, [5.1, 5.7, 5.7, 5.8, 6.0]),
    (100, [7.1, 29.6, 30.2, 33.4, 40.0]),
    (None, [9.4, 57.0, 58.2, 64.9, 78.8]),
])
def test_fault_times_from_ten_ms_up_keep_their_draws(horizon_ms, at_ms):
    # benchmark pools and generated golden documents depend on these draws
    doc = generate_scenario(lanes=4, procs=3, apps=2, seed=7, faults=5,
                            horizon_ms=horizon_ms)
    assert [f["at_ms"] for f in doc["faults"]] == at_ms


def test_generated_utilization_respects_the_target():
    doc = generate_scenario(lanes=3, procs=4, apps=3,
                            target_utilization=0.6, seed=5)
    model = build_system(doc["system"])
    per_proc = {}
    for app in model.applications:
        for task in app.tasks:
            state = per_proc.setdefault(task.initial_proc, ProcessorState())
            per_proc[task.initial_proc] = state.with_task(
                (app.app_id, task.task_id), task.wcet_us, task.period_us,
                task.deadline_us)
    assert per_proc
    for state in per_proc.values():
        assert state.utilization <= model.timing.utilization_bound


def test_infeasible_generation_overloads_and_disables_admission():
    doc = generate_scenario(lanes=3, procs=3, apps=2, seed=3,
                            infeasible=True)
    assert doc["sim"]["enforce_admission"] is False
    model = build_system(doc["system"])
    per_proc = {}
    for app in model.applications:
        for task in app.tasks:
            state = per_proc.setdefault(task.initial_proc, ProcessorState())
            per_proc[task.initial_proc] = state.with_task(
                (app.app_id, task.task_id), task.wcet_us, task.period_us,
                task.deadline_us)
    assert all(state.utilization > 1 for state in per_proc.values())


def test_zero_utilization_target_means_no_applications():
    doc = generate_scenario(lanes=3, procs=3, apps=2, target_utilization=0,
                            seed=0)
    assert doc["system"]["applications"] == []


def test_generator_validates_its_arguments():
    with pytest.raises(ValueError):
        generate_scenario(lanes=1)
    with pytest.raises(ValueError):
        generate_scenario(lanes=5)
    with pytest.raises(ValueError):
        generate_scenario(procs=1)
    with pytest.raises(ValueError):
        generate_scenario(apps=0)
    with pytest.raises(ValueError, match="fault count"):
        generate_scenario(faults=-1)

    # a wrong type is refused with the same ValueError, before any draw: a
    # string or a Fraction would give a document that fails validation,
    # and a bool would draw as 0 or 1
    for name, value in [("seed", "7"), ("seed", 1.5), ("seed", True),
                        ("lanes", 3.0), ("lanes", True), ("procs", 3.0),
                        ("apps", "2"), ("faults", 2.0), ("faults", True)]:
        with pytest.raises(ValueError, match=f"^{name} must be an int,"):
            generate_scenario(**{name: value})
    for value in ["0.5", None, True, Fraction(1, 2)]:
        with pytest.raises(ValueError,
                           match="^target utilization must be an int or a float"):
            generate_scenario(target_utilization=value)
    # "no" is true, so it drew an overloaded document without admission
    for value in ["no", 1, 0, None]:
        with pytest.raises(ValueError, match="^infeasible must be a bool,"):
            generate_scenario(infeasible=value, seed=1)


def test_requested_fault_count_is_honoured():
    doc = generate_scenario(lanes=3, procs=3, apps=2, seed=9, faults=4)
    assert len(doc["faults"]) == 4
    ats = [f["at_ms"] for f in doc["faults"]]
    assert ats == sorted(ats)


# --- files and the CLI ------------------------------------------------


def _write_scenario(tmp_path, name="case.json", faults=None):
    path = tmp_path / name
    doc = scenario_doc(faults if faults is not None else [proc_fault()])
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_scenario_round_trip(tmp_path):
    path = _write_scenario(tmp_path)
    sc = load_scenario(path)
    assert len(sc.model.applications) == 3


def test_validate_reports_shape(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "3 lanes" in out and "3 applications" in out and "1 faults" in out


def test_validate_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_validate_rejects_invalid_model(tmp_path, capsys):
    doc = scenario_doc([proc_fault(lane=9)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert "unknown lane" in capsys.readouterr().err


@pytest.mark.parametrize("change, code", [
    (lambda system: system["applications"][0]["tasks"][0].update(wcet_ms=15),
     "AdmissionExceeded"),                   # 0.75 > 0.69 from the start
    (lambda system: system["bus"].update(max_load=0.4),
     "BusOverload"),                         # nine copies demand 0.45
], ids=["admission", "bus"])
def test_validate_runs_the_start_up_checks(tmp_path, capsys, change, code):
    system = triplex_system()
    change(system)
    path = tmp_path / "overloaded.json"
    path.write_text(json.dumps(scenario_doc([], system=system)), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert code in capsys.readouterr().err
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert code in capsys.readouterr().err


def test_missing_file_is_a_parse_error(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 2


def test_run_writes_the_three_reports(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out_dir)]) == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["format_version"] == 1
    assert metrics["summary"]["readmitted"] == 1
    assert metrics["records"][0]["t_a_ms"] == 120.0
    assert metrics["records"][0]["placements"] == {"1": [0, 3]}

    trace = (out_dir / "trace.tsv").read_text().splitlines()
    assert trace[0] == "# format_version=1"
    assert trace[1].split("\t") == ["time_us", "kind", "lane", "proc",
                                    "app", "task", "detail"]
    assert any("Detection" in line for line in trace)

    coverage = (out_dir / "coverage.csv").read_text().splitlines()
    assert coverage[0] == "time_us,app,functional,zonal,peripheral"
    assert "0,1,triplex,triplex,triplex" in coverage

    stdout = capsys.readouterr().out
    assert "1 readmitted" in stdout
    assert "wrote" in stdout


def test_run_overrides_horizon_and_seed(tmp_path):
    path = _write_scenario(tmp_path, faults=[])
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out_dir),
                     "--horizon-ms", "80", "--seed", "9"]) == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["horizon_ms"] == 80.0
    assert metrics["seed"] == 9


def test_out_dir_environment_fallback(tmp_path, monkeypatch, capsys):
    path = _write_scenario(tmp_path)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
    assert cli.main(["run", str(path)]) == 0
    assert (env_dir / "metrics.json").exists()


def test_generate_round_trips_through_the_cli(tmp_path, capsys):
    out = tmp_path / "generated.json"
    assert cli.main(["generate", "--seed", "4", "--faults", "2",
                     "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    sc = parse_scenario(doc)
    assert scenario_violations(sc) == []
    assert len(sc.faults) == 2


def test_generate_refuses_a_negative_fault_count(capsys):
    # it once wrote a fault-free scenario; now it exits 2, as --apps 0 does
    assert cli.main(["generate", "--faults", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "fault count" in captured.err
    assert cli.main(["generate", "--apps", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["generate", "--util", "1.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: target utilization must be within "
                            "[0, 1]\n")


def _cannot_write(capsys, argv, what):
    """Run the command, which must exit 3 with one `cannot write` line."""
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {what}: ")
    assert len(captured.err.splitlines()) == 1
    return captured.out


def test_run_to_an_out_dir_that_is_a_file_exits_3(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    out = _cannot_write(capsys, ["run", str(path), "--out-dir", str(taken)],
                        "outputs")
    assert "wrote" not in out


def test_generate_to_a_directory_exits_3(tmp_path, capsys):
    out = _cannot_write(capsys, ["generate", "-o", str(tmp_path)],
                        str(tmp_path))
    assert out == ""


def test_batch_to_an_out_dir_that_is_a_file_stops_at_once(tmp_path, capsys):
    _write_scenario(tmp_path, name="a.json")
    _write_scenario(tmp_path, name="b.json")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    out = _cannot_write(capsys, ["batch", str(tmp_path), "--out-dir",
                                 str(taken)], "outputs for a.json")
    # the first failure to write ends the batch: b.json never runs
    assert out == ""


def test_generate_to_stdout(capsys):
    assert cli.main(["generate", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format_version"] == 1


def test_batch_runs_every_scenario(tmp_path, capsys):
    _write_scenario(tmp_path, name="a.json")
    _write_scenario(tmp_path, name="b.json", faults=[])
    out_root = tmp_path / "runs"
    assert cli.main(["batch", str(tmp_path), "--out-dir",
                     str(out_root)]) == 0
    assert (out_root / "a" / "metrics.json").exists()
    assert (out_root / "b" / "trace.tsv").exists()
    assert "batch: 2/2 scenarios completed" in capsys.readouterr().out


def test_batch_reports_the_worst_failure(tmp_path, capsys):
    _write_scenario(tmp_path, name="good.json")
    (tmp_path / "bad.json").write_text("{!", encoding="utf-8")
    out_root = tmp_path / "runs"
    assert cli.main(["batch", str(tmp_path), "--out-dir",
                     str(out_root)]) == 2
    out = capsys.readouterr().out
    assert "parse error" in out
    assert "batch: 1/2 scenarios completed" in out
    assert (out_root / "good" / "metrics.json").exists()


def test_batch_goes_on_past_a_non_finite_number(tmp_path, capsys):
    # a NaN wcet used to escape the batch as a bare ValueError ("Invalid
    # literal for Fraction: 'nan'"), so the next file never ran
    doc = scenario_doc([proc_fault()])
    doc["system"]["applications"][0]["tasks"][0]["wcet_ms"] = math.nan
    (tmp_path / "a.json").write_text(json.dumps(doc), encoding="utf-8")
    _write_scenario(tmp_path, name="b.json")
    out_root = tmp_path / "runs"
    assert cli.main(["batch", str(tmp_path), "--out-dir",
                     str(out_root)]) == 2
    out = capsys.readouterr().out
    assert ("a.json: parse error: system.applications[0].tasks[0]: "
            "field 'wcet_ms' must be finite") in out
    assert "batch: 1/2 scenarios completed" in out
    assert (out_root / "b" / "metrics.json").exists()


def _every_number_doc():
    """A valid scenario naming every number the parser reads."""
    doc = scenario_doc([proc_fault(kind="transient", duration_ms=10,
                                   value_skew=0.5)],
                       policies={"pilot_gate": True,
                                 "pilot_approvals": [{"at_ms": 60, "lane": 0}]},
                       sim={"bit_period_ms": 25, "bit_detect_probability": 0.5,
                            "reference": {"value": 2.0, "slope_per_ms": 0.01}})
    doc["system"]["applications"][0]["state_model"] = {
        "strategy": "hybrid", "snapshot_size": 80, "min_state_size": 20,
        "convergence_rounds": 2}
    doc["voter"] = {"tolerance": 0.5}
    return doc


def _owner(doc, path):
    for step in path:
        doc = doc[step]
    return doc


_TASK = ("system", "applications", 0, "tasks", 0)
_NUMBERS = {
    "task period_ms": (_TASK, "period_ms"),
    "message period_ms": (_TASK + ("messages", 0), "period_ms"),
    "wcet_ms": (_TASK, "wcet_ms"),
    "deadline_ms": (_TASK, "deadline_ms"),
    "size": (_TASK + ("messages", 0), "size"),
    "code_size": (_TASK, "code_size"),
    "snapshot_size": (("system", "applications", 0, "state_model"), "snapshot_size"),
    "min_state_size": (("system", "applications", 0, "state_model"), "min_state_size"),
    "utilization_bound": (("system", "timing"), "utilization_bound"),
    "max_load": (("system", "bus"), "max_load"),
    "fault at_ms": (("faults", 0), "at_ms"),
    "duration_ms": (("faults", 0), "duration_ms"),
    "approval at_ms": (("policies", "pilot_approvals", 0), "at_ms"),
    "horizon_ms": (("sim",), "horizon_ms"),
    "bit_period_ms": (("sim",), "bit_period_ms"),
    "voter tolerance": (("voter",), "tolerance"),
    "value_skew": (("faults", 0), "value_skew"),
    "reference value": (("sim", "reference"), "value"),
    "slope_per_ms": (("sim", "reference"), "slope_per_ms"),
    "bit_detect_probability": (("sim",), "bit_detect_probability"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _NUMBERS)
def test_a_non_finite_duration_or_size_is_malformed(name, value):
    doc = _every_number_doc()
    parse_scenario(doc)             # valid as written
    path, key = _NUMBERS[name]
    owner = _owner(doc, path)
    assert key in owner
    owner[key] = value
    with pytest.raises(MalformedDocument, match=f"field '{key}' must be finite"):
        parse_scenario(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_policing_tolerance_is_malformed(tmp_path, capsys, value):
    # NaN passed the `tolerance <= 0` check, and then no rebuilt copy ever
    # passed policing: a readmitted record read abandoned
    doc = scenario_doc([], system=triplex_system(timing={
        "utilization_bound": 0.69, "police_rounds": 3, "tolerance": value}))
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert ("system.timing: field 'tolerance' must be finite"
            in capsys.readouterr().err)


_FLAGS = {
    "customer_cap_mode": ("system", "timing"),
    "enforce_admission": ("sim",),
    "pilot_gate": ("policies",),
    "per_receiver": ("faults", 0),
    "bit_detectable": ("faults", 0),
    "sensor": ("policies", "pilot_approvals", 0),
}


@pytest.mark.parametrize("value", ["false", 0])
@pytest.mark.parametrize("key", _FLAGS)
def test_a_flag_must_be_a_json_boolean(key, value):
    # read with bool(), "false" counted as true: "customer_cap_mode":
    # "false" halved the admission bound and "enforce_admission": "false"
    # left admission on
    doc = _every_number_doc()
    _owner(doc, _FLAGS[key])[key] = value
    with pytest.raises(MalformedDocument, match=f"field '{key}' has the wrong type"):
        parse_scenario(doc)


@pytest.mark.parametrize("key", _FLAGS)
def test_a_flag_reads_a_json_boolean_and_null_as_its_default(key):
    def read(value):
        doc = _every_number_doc()
        _owner(doc, _FLAGS[key])[key] = value
        sc = parse_scenario(doc)
        # the flag is read into the bound it gives
        return {"customer_cap_mode":
                sc.model.timing.utilization_bound == Fraction(1, 2),
                "enforce_admission": sc.settings.enforce_admission,
                "pilot_gate": sc.policies.pilot_gate,
                "per_receiver": sc.faults[0].per_receiver,
                "bit_detectable": sc.faults[0].bit_detectable,
                "sensor": sc.policies.approvals[0].sensor}[key]

    default = {"enforce_admission": True, "bit_detectable": True}.get(key, False)
    assert (read(True), read(False), read(None)) == (True, False, default)


@pytest.mark.parametrize("value", [True, [1], "1/2"])
def test_min_state_size_must_be_a_number(tmp_path, capsys, value):
    # true and [1] crashed `lanesim validate` with a TypeError, and "1/2"
    # validated as a half
    doc = scenario_doc([], system=single_app_system(state_model={
        "strategy": "hybrid", "snapshot_size": 80, "min_state_size": value,
        "convergence_rounds": 2}))
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert ("field 'min_state_size' has the wrong type"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", [True, "10"])
def test_a_fault_duration_must_be_a_number(value):
    doc = scenario_doc([proc_fault(kind="transient", duration_ms=value)])
    with pytest.raises(MalformedDocument,
                       match="field 'duration_ms' has the wrong type"):
        parse_scenario(doc)


_HOSTILE_PLACES = dict(_NUMBERS, convergence_rounds=(
    ("system", "applications", 0, "state_model"), "convergence_rounds"))
_HOSTILE_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                   "huge": 10**400, "-huge": -10**400, "true": True, "str": "1"}


def _refusals(tmp_path, capsys, bad_name):
    """Run validate, run and batch on one bad file beside a good one; each
    must refuse the bad file with one message and no traceback, and batch
    must still run the good file. Returns the exit code and the message."""
    good = scenario_doc([], horizon_ms=20)
    (tmp_path / "good.json").write_text(json.dumps(good), encoding="utf-8")
    bad = str(tmp_path / bad_name)
    out_dir = tmp_path / "out"
    code = cli.main(["validate", bad])
    assert code in (1, 2)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert cli.main(["run", bad, "--out-dir", str(out_dir)]) == code
    assert capsys.readouterr().err == err
    assert not out_dir.exists()
    assert cli.main(["batch", str(tmp_path), "--out-dir", str(out_dir)]) == code
    out = capsys.readouterr().out
    assert f"{bad_name}: {'invalid' if code == 1 else 'parse error'}: " in out
    assert "batch: 1/2 scenarios completed" in out
    assert (out_dir / "good" / "metrics.json").exists()
    return code, err


@pytest.mark.parametrize("value", _HOSTILE_VALUES)
@pytest.mark.parametrize("name", _HOSTILE_PLACES)
def test_a_hostile_number_is_refused_not_a_crash(tmp_path, capsys, name, value):
    # 10**400 died with an OverflowError traceback in the fields read as
    # plain floats, in convergence_rounds and in horizon_ms
    doc = _every_number_doc()
    path, key = _HOSTILE_PLACES[name]
    owner = _owner(doc, path)
    assert key in owner
    owner[key] = _HOSTILE_VALUES[value]
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    code, err = _refusals(tmp_path, capsys, "bad.json")
    assert code == 2 and f"field '{key}'" in err


_TASK_AT = "system.applications[0].tasks[0]"
_STATE_AT = "system.applications[0].state_model"
# where each refusal of _HOSTILE_PLACES names its field
_PLACE_AT = {
    "task period_ms": _TASK_AT,
    "message period_ms": f"{_TASK_AT}.messages[0]",
    "wcet_ms": _TASK_AT,
    "deadline_ms": _TASK_AT,
    "size": f"{_TASK_AT}.messages[0]",
    "code_size": _TASK_AT,
    "snapshot_size": _STATE_AT,
    "min_state_size": _STATE_AT,
    "utilization_bound": "system.timing",
    "max_load": "system.bus",
    "fault at_ms": "faults[0]",
    "duration_ms": "faults[0]",
    "approval at_ms": "policies.pilot_approvals[0]",
    "horizon_ms": "sim",
    "bit_period_ms": "sim",
    "voter tolerance": "voter",
    "value_skew": "faults[0]",
    "reference value": "sim.reference",
    "slope_per_ms": "sim.reference",
    "bit_detect_probability": "sim",
    "convergence_rounds": _STATE_AT,
}


@pytest.mark.parametrize("value,reason", [(10**400, "must be finite"),
                                          ("1", "has the wrong type")])
@pytest.mark.parametrize("name", _HOSTILE_PLACES)
def test_a_refusal_names_the_full_location_of_its_field(name, value, reason):
    assert _PLACE_AT.keys() == _HOSTILE_PLACES.keys()
    doc = _every_number_doc()
    path, key = _HOSTILE_PLACES[name]
    _owner(doc, path)[key] = value
    with pytest.raises(MalformedDocument) as err:
        parse_scenario(doc)
    assert str(err.value) == f"{_PLACE_AT[name]}: field '{key}' {reason}"


@pytest.mark.parametrize("path,key", [
    (_TASK, "task_id"), (_TASK, "wcet_ms"), (_TASK, "period_ms"),
    (_TASK, "initial_proc"), (_TASK + ("messages", 0), "msg_id"),
    (_TASK + ("messages", 0), "size"),
    (("system", "applications", 0), "tasks"),
    (("system", "lanes", 1, "processors", 2), "proc_id")])
def test_a_missing_field_is_refused_with_its_full_location(path, key):
    doc = _every_number_doc()
    del _owner(doc, path)[key]
    where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                    for step in path)[1:]
    with pytest.raises(MalformedDocument) as err:
        parse_scenario(doc)
    assert str(err.value) == f"{where}: missing required field '{key}'"


_HOSTILE_FILES = {
    "bad json": "{!",
    "not utf-8": b'{"format_version": 1, "x": "\xff"}',
    "5000 digits": "9" * 5000,
    "nested 100k deep": "[" * 100_000 + "]" * 100_000,
    "a directory": None,
}


@pytest.mark.parametrize("case", _HOSTILE_FILES)
def test_a_hostile_file_is_refused_not_a_crash(tmp_path, capsys, case):
    # the deep array and the directory died with a traceback; the bytes
    # and the digits stopped batch before its next file
    path = tmp_path / "x.json"
    content = _HOSTILE_FILES[case]
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    assert _refusals(tmp_path, capsys, "x.json")[0] == 2


def test_a_horizon_past_float_range_is_invalid(tmp_path, capsys):
    # 1e306 ms is finite, but ReferenceSignal.value raised OverflowError
    # on its microsecond count
    message = ("horizon too large: its microsecond count passes the "
               "largest float")
    doc = scenario_doc([], horizon_ms=1e306)
    assert _violations(doc) == [("MalformedDocument", message)]
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    code, err = _refusals(tmp_path, capsys, "bad.json")
    assert code == 1 and message in err


@pytest.mark.parametrize("command", ["run", "batch"])
def test_a_horizon_override_past_float_range_is_invalid(tmp_path, capsys,
                                                        command):
    path = _write_scenario(tmp_path, faults=[])
    target = str(path) if command == "run" else str(tmp_path)
    out_dir = tmp_path / "out"
    assert cli.main([command, target, "--out-dir", str(out_dir),
                     "--horizon-ms", "1e306"]) == 1
    captured = capsys.readouterr()
    assert "horizon too large" in captured.err + captured.out
    assert not out_dir.exists()


def test_batch_with_no_scenarios_is_an_error(tmp_path, capsys):
    assert cli.main(["batch", str(tmp_path)]) == 2


@pytest.mark.parametrize("horizon_ms,reason", [
    ("-5", "horizon must be positive"),
    ("50", "fault 0 fires at/after the horizon"),    # the fault is at 50 ms
])
def test_run_validates_its_overrides(tmp_path, capsys, horizon_ms, reason):
    path = _write_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out_dir),
                     "--horizon-ms", horizon_ms]) == 1
    assert reason in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("horizon_ms,completed", [("-5", 0), ("40", 1)])
def test_batch_validates_its_overrides(tmp_path, capsys, horizon_ms,
                                       completed):
    _write_scenario(tmp_path, name="late.json")      # fault at 50 ms
    _write_scenario(tmp_path, name="quiet.json", faults=[])
    out_root = tmp_path / "runs"
    assert cli.main(["batch", str(tmp_path), "--out-dir", str(out_root),
                     "--horizon-ms", horizon_ms]) == 1
    out = capsys.readouterr().out
    assert "late.json: invalid: MalformedDocument: " in out
    assert f"batch: {completed}/2 scenarios completed" in out
    assert (out_root / "quiet" / "metrics.json").exists() == bool(completed)
    assert not (out_root / "late").exists()


@pytest.mark.parametrize("horizon_ms", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", ["run", "batch"])
def test_a_non_finite_horizon_override_is_a_usage_error(tmp_path, capsys,
                                                        command, horizon_ms):
    path = _write_scenario(tmp_path)
    target = str(path) if command == "run" else str(tmp_path)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, target, "--out-dir", str(out_dir),
                  f"--horizon-ms={horizon_ms}"])
    assert exit_info.value.code == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not out_dir.exists()


def test_horizon_override_converts_like_the_scenario_file(tmp_path):
    # 2.0005 ms is 2000.5 us: the float product rounds up, the exact
    # conversion the parser uses rounds half to even
    doc = scenario_doc([], horizon_ms=2.0005)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = cli.build_parser().parse_args(
        ["run", str(path), "--horizon-ms", "2.0005"])
    overridden = cli._apply_overrides(load_scenario(path), args)
    assert overridden.settings.horizon_us == load_scenario(path).settings.horizon_us
