"""End-to-end acceptance gate.

Each test covers one contract-level property of the package and prints a
single PASS/FAIL line on the real stdout so the verdicts are visible in a
plain pytest run:

  1. reference scenario suite (quiescent / processor fault / lane fault)
  2. utilization-bound scheduling oracle (feasible and overloaded sets)
  3. recovery phase ordering t_f <= t_r <= t_i <= t_s <= t_e <= t_a
  4. time-at-risk window semantics for a second fault
  5. byzantine isolation: quadruplex localizes, triplex stays ambiguous
  6. history catch-up inside the spare-capacity bound
  7. bus transfer arithmetic payload / (max_load - current_load)
  8. byte-identical reruns of every scenario the gate executed

Every engine scenario here is run twice from a fresh parse; the rerun
bytes feed criterion 8 and the records feed criterion 3.
"""

import json
import random
import sys
import time
from contextlib import contextmanager

from lanesim.cli import trace_lines
from lanesim.coverage import CoverageLevel
from lanesim.model import TaskSpec, build_system
from lanesim.processor import schedule_processor
from lanesim.reconfig import Outcome
from lanesim.scenario import generate_scenario, parse_scenario
from lanesim.sim import run
from lanesim.timing import transfer_time

from metrics_oracle import metrics_document
from oracles import catchup_time, message_demand, task_utilization
from scenario_builders import (lane_fault, proc_fault, scenario_doc,
                               single_app_system, triplex_system)

_DETERMINISM = []   # (label, rerun bytes identical)
_RECORD_POOL = []   # every ReconfigRecord produced by any run in this gate
_ELAPSED = {}       # label -> seconds for one run


@contextmanager
def criterion(num, title, capsys):
    """Run one criterion body and print its verdict past the capture."""
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"[acceptance] criterion {num} ({title}): {verdict}")
            sys.stdout.flush()


def _document_bytes(result):
    metrics = json.dumps(metrics_document(result), indent=2, sort_keys=True)
    return (metrics + "\n" + "".join(trace_lines(result))).encode()


def _run_twice(doc, label):
    """Run a scenario twice from a fresh parse each time."""
    t0 = time.perf_counter()
    first = run(parse_scenario(doc))
    _ELAPSED[label] = time.perf_counter() - t0
    second = run(parse_scenario(doc))
    _DETERMINISM.append((label, _document_bytes(first) == _document_bytes(second)))
    _RECORD_POOL.extend(first.records)
    return first


def _steps(result, app_id, axis="functional"):
    out = []
    for s in result.samples:
        if s.app_id != app_id:
            continue
        level = getattr(s, axis)
        if not out or out[-1][1] is not level:
            out.append((s.time_us, level))
    return out


def test_criterion_1_reference_scenario_suite(capsys):
    with criterion(1, "reference scenario suite", capsys):
        quiet = _run_twice(scenario_doc([]), "c1 quiescent")
        assert quiet.records == []
        for app_id in (1, 2, 3):
            functional, zonal, _p = quiet.final_coverage[app_id]
            assert functional is CoverageLevel.TRIPLEX
            assert zonal is CoverageLevel.TRIPLEX

        hit = _run_twice(scenario_doc([proc_fault()]), "c1 processor fault")
        assert [r.outcome for r in hit.records] == [Outcome.READMITTED]
        rec = hit.records[0]
        assert rec.t_f_us == 60000 and rec.t_a_us == 120000
        # duplex from detection until readmission, then triplex again
        assert _steps(hit, 1) == [(0, CoverageLevel.TRIPLEX),
                                  (rec.t_f_us, CoverageLevel.DUPLEX),
                                  (rec.t_a_us, CoverageLevel.TRIPLEX)]
        # the replacement landed on the home lane's spare, so the zonal
        # spread recovers along with the functional level
        assert rec.placements == {1: (0, 3)}
        functional, zonal, _p = hit.final_coverage[1]
        assert functional is CoverageLevel.TRIPLEX
        assert zonal is CoverageLevel.TRIPLEX

        gone = _run_twice(scenario_doc([lane_fault()]), "c1 lane fault")
        assert gone.summary().startswith("2 readmitted, 1 degraded, 0 abandoned")
        finals = gone.final_coverage
        labels = sorted(f.label for f, _z, _p in finals.values())
        assert labels == ["duplex", "triplex", "triplex"]
        # both survivors were rebuilt inside surviving lanes, so nobody
        # keeps three distinct zones
        assert all(z is not CoverageLevel.TRIPLEX for _f, z, _p in finals.values())

        for label in ("c1 quiescent", "c1 processor fault", "c1 lane fault"):
            assert _ELAPSED[label] < 1.0


def _per_proc(doc):
    model = build_system(doc["system"])
    groups = {}
    for app in model.applications:
        for task in app.tasks:
            assert task.deadline_us == task.period_us
            groups.setdefault(task.initial_proc, []).append(task)
    return groups


def test_criterion_2_utilization_bound_oracle(capsys):
    with criterion(2, "utilization-bound oracle", capsys):
        t0 = time.perf_counter()
        rng = random.Random(2001)
        hyper_us = 200_000
        feasible = 0
        seed = 100
        while feasible < 200:
            doc = generate_scenario(
                lanes=rng.choice([2, 3, 4]), procs=rng.choice([3, 4]),
                apps=rng.randint(1, 3),
                target_utilization=rng.choice([0.3, 0.45, 0.6, 0.69]),
                seed=seed)
            seed += 1
            for tasks in _per_proc(doc).values():
                report = schedule_processor(tasks, hyper_us)
                assert report.misses == [], f"feasible set from seed {seed - 1}"
                assert report.completions
                feasible += 1
                if feasible == 200:
                    break
        overloaded = 0
        seed = 9000
        while overloaded < 20:
            doc = generate_scenario(
                lanes=3, procs=rng.choice([3, 4]), apps=rng.randint(1, 3),
                seed=seed, infeasible=True)
            seed += 1
            for tasks in _per_proc(doc).values():
                report = schedule_processor(tasks, hyper_us)
                assert report.misses, f"overloaded set from seed {seed - 1}"
                overloaded += 1
                if overloaded == 20:
                    break
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_phase_ordering_invariant(capsys):
    with criterion(3, "recovery phase ordering", capsys):
        rng = random.Random(3001)
        seed = 300
        for _ in range(100):
            doc = generate_scenario(
                lanes=rng.choice([2, 3, 4]), procs=3, apps=rng.randint(1, 3),
                target_utilization=rng.choice([0.3, 0.45, 0.6]),
                seed=seed, faults=rng.randint(1, 3))
            seed += 1
            _run_twice(doc, f"c3 seed {seed - 1}")
        # the pool spans the reference suite plus these randomized runs;
        # the scheduling oracle above produces no recovery records
        assert _RECORD_POOL
        for rec in _RECORD_POOL:
            assert rec.ordering_ok(), rec
            if rec.outcome is Outcome.READMITTED:
                assert None not in (rec.t_f_us, rec.t_r_us, rec.t_i_us,
                                    rec.t_s_us, rec.t_e_us, rec.t_a_us), rec
            if rec.outcome is Outcome.ABANDONED:
                assert rec.t_a_us is None, rec
        assert any(r.outcome is Outcome.READMITTED for r in _RECORD_POOL)


def test_criterion_4_time_at_risk_window(capsys):
    with criterion(4, "time-at-risk window", capsys):
        inside = _run_twice(
            scenario_doc([proc_fault(), proc_fault(at_ms=80, lane=1)],
                         horizon_ms=260),
            "c4 second fault inside window")
        first, second = sorted(inside.records, key=lambda r: r.record_id)
        assert first.t_f_us == 60000 and first.t_a_us == 120000
        assert second.t_f_us == 80000
        # the second fault lands inside [t_f, t_a] of the first: the group
        # dips to simplex and the overlap is flagged on the risk report
        assert inside.risk[1].secondary_hits == [(second.record_id, 80000)]
        levels = [level for _t, level in _steps(inside, 1)]
        assert CoverageLevel.SIMPLEX in levels
        assert all(r.outcome is Outcome.READMITTED for r in inside.records)
        functional, _z, _p = inside.final_coverage[1]
        assert functional is CoverageLevel.TRIPLEX

        after = _run_twice(
            scenario_doc([proc_fault(), proc_fault(at_ms=130, lane=1)],
                         horizon_ms=260),
            "c4 second fault after readmission")
        first, second = sorted(after.records, key=lambda r: r.record_id)
        assert first.t_a_us == 120000 and second.t_f_us == 140000
        assert after.risk[1].secondary_hits == []
        levels = [level for _t, level in _steps(after, 1)]
        assert CoverageLevel.SIMPLEX not in levels
        assert min(levels) is CoverageLevel.DUPLEX
        assert all(r.outcome is Outcome.READMITTED for r in after.records)
        functional, _z, _p = after.final_coverage[1]
        assert functional is CoverageLevel.TRIPLEX


def _byzantine_doc(lanes, lane, skew, at_ms, seed):
    fault = {"at_ms": at_ms, "kind": "byzantine", "value_skew": skew,
             "per_receiver": True,
             "target": {"kind": "task", "lane": lane, "proc": 0,
                        "app": 1, "task": 1}}
    return scenario_doc([fault], system=single_app_system(lanes=lanes),
                        seed=seed)


def test_criterion_5_byzantine_isolation(capsys):
    with criterion(5, "byzantine quadruplex vs triplex", capsys):
        rng = random.Random(5001)
        for trial in range(100):
            lane = rng.randrange(4)
            skew = round(rng.uniform(0.8, 25.0), 2)
            at_ms = rng.choice([11, 23, 37, 52, 66, 84])

            quad = _run_twice(_byzantine_doc(4, lane, skew, at_ms, trial),
                              f"c5 quad {trial}")
            detections = [ev for ev in quad.trace if ev.kind == "Detection"]
            assert len(detections) == 1, (trial, detections)
            assert detections[0].lane == lane
            assert [r.outcome for r in quad.records] == [Outcome.READMITTED]

            tri = _run_twice(_byzantine_doc(3, lane % 3, skew, at_ms, trial),
                             f"c5 tri {trial}")
            # three receivers cannot corner a two-faced sender: the vote
            # stays ambiguous and no healthy lane is ever confidently
            # named as the lone culprit
            tri_detections = [ev for ev in tri.trace if ev.kind == "Detection"]
            assert tri_detections == [], (trial, tri_detections)
            assert tri.records == []


def test_criterion_6_catchup_bound(capsys):
    with criterion(6, "history catch-up bound", capsys):
        rng = random.Random(6001)
        periods = [10_000, 20_000, 25_000, 40_000, 50_000, 100_000]
        for combo in range(50):
            history = rng.randint(5, 40)
            wcet = rng.randint(500, 3000)
            if combo % 3 == 0:
                # the admission ceiling itself: exactly 31% spare capacity
                t = rng.choice(periods)
                interferers = [TaskSpec(task_id=1, wcet_us=t * 69 // 100,
                                        period_us=t, deadline_us=t,
                                        initial_proc=0)]
            else:
                util = rng.uniform(0.25, 0.69)
                n = rng.randint(1, 3)
                interferers = []
                remaining = util
                for i in range(n):
                    share = remaining / (n - i)
                    remaining -= share
                    t = rng.choice(periods)
                    interferers.append(
                        TaskSpec(task_id=1 + i, wcet_us=max(1, int(share * t)),
                                 period_us=t, deadline_us=t, initial_proc=0))
            utilization = sum(task_utilization(t.wcet_us, t.period_us, t.deadline_us)
                              for t in interferers)
            analytic = catchup_time(history, wcet, utilization)
            slack = max(t.period_us for t in interferers)
            window = analytic + 2 * slack + 200_000
            report = schedule_processor(interferers, window,
                                        background_us=history * wcet)
            assert report.misses == []
            assert report.background_done_us is not None, combo
            assert report.background_done_us <= analytic + slack, combo


def test_criterion_7_transfer_arithmetic(capsys):
    with criterion(7, "bus transfer arithmetic", capsys):
        rng = random.Random(7001)
        for trial in range(50):
            msg = rng.choice([1, 2, 3, 4, 5])
            snapshot = rng.randint(40, 120)
            code = rng.randint(10, 60)
            headroom = round(rng.uniform(2.0, 8.0), 2)
            system = triplex_system()
            system["bus"] = {"max_load": round(9 * msg / 20 + headroom, 2)}
            for app in system["applications"]:
                app["state_model"] = {"strategy": "transfer",
                                      "snapshot_size": snapshot}
                for task in app["tasks"]:
                    task["code_size"] = code
                    task["messages"][0]["size"] = msg
            doc = scenario_doc([proc_fault()], system=system, horizon_ms=300)
            result = _run_twice(doc, f"c7 bus {trial}")
            assert [r.outcome for r in result.records] == [Outcome.READMITTED]
            rec = result.records[0]

            model = build_system(system)
            baseline = 3 * sum(message_demand(t)
                               for app in model.applications
                               for t in app.tasks)
            avail = model.bus.max_load - baseline
            app1 = model.applications[0]
            assert abs((rec.t_s_us - rec.t_i_us)
                       - transfer_time(app1.tasks[0].code_size, avail)) <= 1
            assert abs((rec.t_e_us - rec.t_s_us)
                       - transfer_time(app1.state_model.snapshot_size, avail)) <= 1


def test_criterion_8_byte_identical_reruns(capsys):
    with criterion(8, "byte-identical reruns", capsys):
        if not _DETERMINISM:
            # this test was invoked on its own: rerun the reference suite
            for label, doc in (("c8 quiescent", scenario_doc([])),
                               ("c8 processor fault", scenario_doc([proc_fault()])),
                               ("c8 lane fault", scenario_doc([lane_fault()]))):
                _run_twice(doc, label)
        mismatched = [label for label, same in _DETERMINISM if not same]
        assert _DETERMINISM and mismatched == []
