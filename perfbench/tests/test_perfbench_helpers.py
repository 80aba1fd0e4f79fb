"""Tests for the benchmark's own helpers: statistics, failure counting, tracing."""

import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from harness import check_outputs, fresh_import, run_pass
from stats import FailureCounter, IntervalCharger, percentile, spread, tail_percentile
from tracer import Tracer, counting_pops, exact_counts
from yardstick import NEAREST, REFERENCE_S, Yardstick

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles and the tail ------------------------------------------------

def test_percentile_matches_inclusive_quantiles():
    values = [7.0, 1.0, 4.0, 9.0, 2.5, 3.0, 8.0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25) == pytest.approx(q1)
    assert percentile(values, 50) == pytest.approx(q2) == statistics.median(values)
    assert percentile(values, 75) == pytest.approx(q3)
    assert percentile(values, 0) == 1.0 and percentile(values, 100) == 9.0
    assert percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [(100, 90), (64, 84), (48, 79), (20, 50),
                                         (200, 95), (1000, 99), (19, None), (0, None)])
def test_tail_percentile_examples(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(20, 400):
        p = tail_percentile(n)
        samples = list(range(n))
        assert sum(1 for s in samples if s > percentile(samples, p)) >= 10
        assert n * (1 - (p + 1) / 100) < 10


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.2]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / med)


# -- failure counting -----------------------------------------------------------

def test_failure_counter_counts_attempts_and_failures():
    fc = FailureCounter()
    assert fc.ratio == 0.0
    assert fc.record("a", []) is True
    assert fc.record("b", ["exit 2: bad json", "outputs differ"]) is False
    assert fc.record("c", []) is True
    assert (fc.attempted, fc.failed) == (3, 1)
    assert fc.ratio == pytest.approx(1 / 3)
    assert fc.reasons == ["b: exit 2: bad json; outputs differ"]


# -- pop-interval attribution ---------------------------------------------------

def test_interval_charger_charges_the_event_just_popped():
    ch = IntervalCharger()
    ch.pop("A", 1.0)        # nothing before the first pop is charged
    ch.pop("B", 1.5)        # A ran 1.0 -> 1.5
    ch.pop("A", 3.0)        # B ran 1.5 -> 3.0
    ch.close(4.0)           # A ran 3.0 -> 4.0
    assert ch.counts == {"A": 2, "B": 1}
    assert ch.seconds == pytest.approx({"A": 1.5, "B": 1.5})
    ch.close(9.0)           # a second close charges nothing
    ch.pop("B", 10.0)
    ch.close(10.25)
    assert ch.seconds == pytest.approx({"A": 1.5, "B": 1.75})


def test_heap_shim_counts_pops_by_kind():
    import heapq
    fake_sim = SimpleNamespace(heapq=heapq)
    with counting_pops(fake_sim) as pops:
        heap = []
        for at, kind in ((3, "late"), (1, "early"), (2, "early")):
            fake_sim.heapq.heappush(heap, (at, 0, 0, 0, kind, {}))
        order = [fake_sim.heapq.heappop(heap)[4] for _ in range(3)]
    assert fake_sim.heapq is heapq
    assert order == ["early", "early", "late"]
    assert pops.counts == {"early": 2, "late": 1}


# -- the yardstick ------------------------------------------------------------------

def test_yardstick_scale_uses_the_nearest_samples():
    y = Yardstick()
    # a fast phase then a phase at half speed, one sample per second
    y.times = [float(t) for t in range(20)]
    y.seconds = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert y.scale(2.0) == pytest.approx(1.0)
    assert y.scale(17.5) == pytest.approx(0.5)
    assert y.scale(-5.0) == y.scale(0.0) == pytest.approx(1.0)   # clamps at the ends
    assert y.scale(99.0) == pytest.approx(0.5)
    # a lone outlier inside the window does not move the median
    y.seconds[3] = 50 * REFERENCE_S
    assert y.scale(3.0) == pytest.approx(1.0)
    assert NEAREST % 2 == 1


def test_yardstick_samples_with_the_collector_off_and_restores_it():
    import gc
    y = Yardstick()
    assert gc.isenabled()
    y.sample()
    y.sample()
    assert gc.isenabled()
    assert len(y.times) == len(y.seconds) == 2 and all(s > 0 for s in y.seconds)
    assert y.times == sorted(y.times)
    with pytest.raises(ValueError):
        Yardstick().scale(0.0)


# -- tracer spans and self time ---------------------------------------------------

class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_self_time_subtracts_direct_children_only():
    clock = _Clock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 1.0

    def middle():
        clock.t += 2.0
        wrapped_leaf()

    wrapped_leaf = tr._wrap("fault.active_at", leaf, keep=False)
    wrapped_middle = tr._wrap("reconfig.select_spare", middle, keep=True)
    outer = tr._wrap("sim.run", lambda: (wrapped_middle(), wrapped_leaf()), keep=True)
    tr.scenario = "007"
    outer()
    assert tr.seconds["sim.run"] == 4.0
    assert tr.self_seconds["sim.run"] == 0.0
    assert tr.self_seconds["reconfig.select_spare"] == 2.0
    assert tr.calls["fault.active_at"] == 2
    # the run span is the parent of the selection span; leaf calls keep no span
    names = [(s[0], s[3], s[4]) for s in tr.spans]
    assert names == [("sim.run", None, "007"), ("reconfig.select_spare", 0, "007")]


def test_traced_pass_counts_repeat_and_probes_come_off(tmp_path):
    ls = fresh_import()
    doc = ls.scenario.generate_scenario(lanes=4, procs=4, apps=3, seed=11, faults=6,
                                        horizon_ms=120)
    path = tmp_path / "000.json"
    path.write_text(ls.scenario.dump_scenario(doc))
    original = ls.fault.FaultSpec.__dict__["active_at"]
    fc = FailureCounter()
    ref = run_pass(ls, [path], tmp_path / "out", fc, "reference")
    counts = []
    for _ in range(2):
        tr = Tracer()
        tr.install(ls)
        try:
            run_pass(ls, [path], tmp_path / "out", fc, "traced", ref.digests, tr)
        finally:
            tr.remove()
        m = tr.metrics(ls.sim.EventKind)
        counts.append(exact_counts(m))
        assert m["sim.events"] == sum(m[f"sim.events.{k.value}"] for k in ls.sim.EventKind)
        assert m["fault.active_at_calls"] > 0
        assert 0 < m["sim.self_s"] < m["sim.run_s"]
    assert counts[0] == counts[1]
    assert fc.failed == 0 and fc.attempted == 3
    assert ls.fault.FaultSpec.__dict__["active_at"] is original
    assert ls.sim.heapq.__name__ == "heapq"


def test_heap_peak_covers_leading_scenarios_and_grows_with_the_horizon(tmp_path):
    import tracemalloc
    ls = fresh_import()
    paths = []
    for i, horizon in enumerate((20, 200, 20)):
        doc = ls.scenario.generate_scenario(lanes=3, procs=4, apps=3, seed=5,
                                            horizon_ms=horizon)
        paths.append(tmp_path / f"{i:03d}.json")
        paths[-1].write_text(ls.scenario.dump_scenario(doc))
    fc = FailureCounter()
    ref = run_pass(ls, paths, tmp_path / "out", fc, "reference", heap=2)
    assert fc.failed == 0
    assert len(ref.heap_peaks) == 2 and not tracemalloc.is_tracing()
    assert 0 < ref.heap_peaks[0] < ref.heap_peaks[1]
    # once one-time caches are filled, the same scenario peaks about as high again
    again = [run_pass(ls, paths[:1], tmp_path / "out", fc, "again", ref.digests[:1],
                      heap=1).heap_peaks[0] for _ in range(2)]
    assert again[0] == pytest.approx(again[1], rel=0.02) and fc.failed == 0


def test_output_check_flags_bad_coverage_label(tmp_path):
    ls = fresh_import()
    doc = ls.scenario.generate_scenario(seed=3)
    path = tmp_path / "000.json"
    path.write_text(ls.scenario.dump_scenario(doc))
    fc = FailureCounter()
    ref = run_pass(ls, [path], tmp_path / "out", fc, "reference")
    assert fc.failed == 0
    result = ls.sim.Engine(ls.scenario.load_scenario(path)).run()
    csv = tmp_path / "out" / "000" / "coverage.csv"
    csv.write_text(csv.read_text().replace("triplex", "tripplex"))
    digest, problems = check_outputs(result, tmp_path / "out" / "000")
    assert digest != ref.digests[0]
    assert any("tripplex" in p for p in problems)


# -- the declared benchmark matches what the runner prints -------------------------

def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    ls = fresh_import()
    traced = set(Tracer().metrics(ls.sim.EventKind))
    traced |= {f"sim.us_per_event.procs_{p}" for p in run.LADDER_PROCS}
    traced.add("trace.overhead_ratio")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(declared) == traced
    assert all(declared[n] == run.per_layer_units(n) for n in traced)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
