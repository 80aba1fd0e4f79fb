"""lanesim benchmark: end-to-end host time per workload, or traced per-layer numbers.

Times are scaled to a reference host speed by the yardstick kernel timed
around them (see yardstick.py); the unscaled figures are printed too.

Run from the repository root:

    python3 perfbench/run.py --workload steady_large --seed 1 --seconds 8 --trace 0

``--workload all`` runs every workload in turn, each in a process of its
own, and merges their results. The last line of standard
output is one JSON object; the lines before it are the same figures for a
reader, with the environment they were measured in. Results, the spans of
a traced run and the scenario files land in ``.perfbench_out/`` under the
repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import fresh_import, run_pass, workload_digest
from stats import FailureCounter, percentile, tail_percentile
from tracer import Tracer, counting_pops, exact_counts
from workloads import WORKLOADS, generator_seeds, write_pool
from yardstick import REFERENCE_S, Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

TRACED_PASSES = 2              # their exact counts must agree
LADDER_PROCS = (5, 10, 20, 40)
LADDER_HORIZON_MS = 40
LADDER_REPEATS = 3
SETUPS = 7                     # fewest set-ups per run; setup_s is their median

END_TO_END_UNITS = {
    "releases_per_s": "releases/s",
    "scenario_ms_p50": "ms",
    "scenario_ms_tail": "ms",
    "peak_heap_mb": "MB",
    "setup_s": "s",
}


def per_layer_units(name: str) -> str:
    if name.endswith(("_calls", "state_copies", "trace_rows")) or name.startswith("sim.events"):
        return "count"
    if name.startswith("sim.us_per_event"):
        return "us/event"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "s"


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """The end-to-end run: a reference pass, then the planned timed passes.

    A set-up (fresh import plus writing the pool) precedes every pass and
    follows the last, SETUPS at least, so set-ups are spread over the run. Every time is
    scaled by the yardstick sampled around it (see yardstick.py). The
    reference pass also takes the heap peak of the pool's leading scenarios.
    """
    pool, n_passes = workload.plan(seconds)
    failures = FailureCounter()
    yard = Yardstick()
    out_dir = work / "out"
    setup, setup_at, passes = [], [], []
    for k in range(max(n_passes + 2, SETUPS)):
        yard.sample()
        t0 = time.perf_counter()
        ls = fresh_import()
        paths = write_pool(ls.scenario, workload, seed, work / "scenarios", pool)
        setup.append(time.perf_counter() - t0)
        setup_at.append(t0)
        yard.sample()
        if k == 0:
            ref = run_pass(ls, paths, out_dir, failures, "reference",
                           heap=workload.traced)
        elif k <= n_passes:
            passes.append(run_pass(ls, paths, out_dir, failures, f"pass {k}",
                                   ref.digests, yardstick=yard))

    held_paths = write_pool(ls.scenario, workload, seed, work / "heldout",
                            workload.heldout, salt="heldout")
    held_ref = run_pass(ls, held_paths, work / "heldout_out", failures,
                        "held-out reference")
    held = run_pass(ls, held_paths, work / "heldout_out", failures, "held-out",
                    held_ref.digests, yardstick=yard)
    yard.sample()

    def scaled(p):
        return [t * yard.scale(at) for t, at in zip(p.seconds, p.started)]

    per_pass = [scaled(p) for p in passes]
    host_s = [min(p.seconds[i] for p in passes) for i in range(pool)]
    scenario_s = [min(p[i] for p in per_pass) for i in range(pool)]
    samples = [1e3 * s for s in scenario_s]
    tail_pct = tail_percentile(pool)
    held_s = scaled(held)
    metrics = {
        "releases_per_s": sum(ref.releases) / sum(scenario_s),
        "scenario_ms_p50": statistics.median(samples),
        "scenario_ms_tail": percentile(samples, tail_pct),
        "peak_heap_mb": statistics.median(ref.heap_peaks) / 2**20,
        "setup_s": statistics.median(t * yard.scale(at) for t, at in zip(setup, setup_at)),
    }
    details = {
        "scenarios": pool,
        "timed_passes": n_passes,
        "timed_s": sum(p.total_seconds for p in passes),
        "tail_percentile": tail_pct,
        "tail_beyond": sum(1 for s in samples if s > metrics["scenario_ms_tail"]),
        "heap_scenarios": len(ref.heap_peaks),
        "process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_speed": statistics.median(REFERENCE_S / y for y in yard.seconds),
        "unscaled": {
            "releases_per_s": sum(ref.releases) / sum(host_s),
            "scenario_ms_p50": 1e3 * statistics.median(host_s),
            "scenario_ms_tail": 1e3 * percentile(host_s, tail_pct),
            "setup_s": statistics.median(setup),
        },
        "scenario_ms": samples,
        "scenario_releases": ref.releases,
        "setup_runs_s": setup,
        "outputs_sha256": workload_digest(ref.digests),
        "heldout": {
            "scenarios": len(held_paths),
            "scenario_ms_p50": 1e3 * statistics.median(held_s),
            "releases_per_s": sum(held.releases) / sum(held_s),
            "outputs_sha256": workload_digest(held_ref.digests),
        },
    }
    return {"metrics": metrics, "details": details, "failures": failures, "problems": []}


def trace(workload, seed: int, work: Path) -> dict:
    """The traced run: per-layer figures over the pool's leading scenarios.

    Times are scaled, like the end-to-end ones, by the median yardstick
    reading over the run.
    """
    ls = fresh_import()
    paths = write_pool(ls.scenario, workload, seed, work / "scenarios", workload.traced)
    failures = FailureCounter()
    yard = Yardstick()
    out_dir = work / "out"
    ref = run_pass(ls, paths, out_dir, failures, "reference")
    plain = run_pass(ls, paths, out_dir, failures, "untraced", ref.digests,
                     yardstick=yard)

    runs, traced, origin = [], [], time.perf_counter()
    for k in range(TRACED_PASSES):
        tracer = Tracer()
        tracer.install(ls)
        try:
            traced.append(run_pass(ls, paths, out_dir, failures, f"traced {k + 1}",
                                   ref.digests, tracer, yard))
        finally:
            tracer.remove()
        runs.append(tracer.metrics(ls.sim.EventKind))
    tracer.write_spans(work / "spans.tsv", origin)

    problems = []
    counts = [exact_counts(m) for m in runs]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"exact counts differ between traced passes: {diff}")
    if not runs[0]["sim.events"]:
        problems.append("no event pops were counted; lanesim.sim no longer "
                        "pops through heapq.heappop")
    metrics = {k: (counts[0][k] if k in counts[0]
                   else statistics.mean(m[k] for m in runs)) for k in runs[0]}
    metrics.update(ladder(ls, seed, yard))
    scale = statistics.median(REFERENCE_S / y for y in yard.seconds)
    for k in metrics:
        if per_layer_units(k) in ("s", "us/event"):
            metrics[k] *= scale

    def scaled_total(p):
        return sum(t * yard.scale(at) for t, at in zip(p.seconds, p.started))

    metrics["trace.overhead_ratio"] = (statistics.mean(map(scaled_total, traced))
                                       / scaled_total(plain))
    details = {"scenarios": len(paths), "traced_passes": TRACED_PASSES,
               "spans": len(tracer.spans), "host_speed": scale,
               "outputs_sha256": workload_digest(ref.digests)}
    return {"metrics": metrics, "details": details, "failures": failures,
            "problems": problems}


def ladder(ls, seed: int, yard) -> dict:
    """Fault-free µs per event at growing processor counts, short horizon."""
    out = {}
    for procs in LADDER_PROCS:
        gen_seed = generator_seeds("ladder", seed, 1, salt=str(procs))[0]
        scenario = ls.scenario.parse_scenario(ls.scenario.generate_scenario(
            lanes=4, procs=procs, apps=8, seed=gen_seed, horizon_ms=LADDER_HORIZON_MS))
        costs = []
        for _ in range(LADDER_REPEATS):
            engine = ls.sim.Engine(scenario)
            yard.sample()
            with counting_pops(ls.sim) as pops:
                t0 = time.perf_counter()
                engine.run()
                took = time.perf_counter() - t0
            events = sum(pops.counts.values())
            costs.append(took / events * 1e6 if events else 0.0)
        out[f"sim.us_per_event.procs_{procs}"] = statistics.median(costs)
    return out


def _report(workload, seed: int, traced: bool, seconds: float) -> dict:
    work = OUT_ROOT / f"{workload.name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    env = environment(seed)
    rep = trace(workload, seed, work) if traced else measure(workload, seed, seconds, work)
    failures = rep["failures"]
    units = per_layer_units if traced else END_TO_END_UNITS.__getitem__
    print(f"== {workload.name}  seed {seed}  {'traced' if traced else 'untraced'}  "
          f"python {env['python']}, {env['nproc']} cpus, {env['cpu_model']}, "
          f"load {env['loadavg_at_start']}")
    for name, value in rep["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units(name)}")
    d = rep["details"]
    if not traced:
        print(f"  scenario_ms_tail is p{d['tail_percentile']} of {d['scenarios']} "
              f"scenarios ({d['tail_beyond']} beyond); fastest of {d['timed_passes']} "
              f"timed passes, {d['timed_s']:.2f} s timed")
        print(f"  times are scaled to the reference speed; the host ran at "
              f"{d['host_speed']:.3f} of it. Unscaled: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in d["unscaled"].items()))
        print(f"  peak_heap_mb is the median over the pool's first {d['heap_scenarios']} "
              f"scenarios of the peak heap from parse through written outputs; "
              f"the process peaked at {d['process_peak_rss_mb']:.1f} MB resident")
        h = d["heldout"]
        print(f"  held-out pool: {h['scenarios']} scenarios, scenario_ms_p50 "
              f"{h['scenario_ms_p50']:.4g} ms, releases_per_s {h['releases_per_s']:.6g}")
    print(f"  failed_ratio {failures.failed}/{failures.attempted} = {failures.ratio:g}")
    print(f"  outputs sha256 {d['outputs_sha256']}")
    for line in failures.reasons + rep["problems"]:
        print(f"  FAILED {line}")
    record = {"workload": workload.name, "traced": traced, "environment": env,
              "metrics": rep["metrics"], "details": d,
              "attempted": failures.attempted, "failed": failures.failed,
              "failures": failures.reasons, "problems": rep["problems"]}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    rep["units"] = units
    return rep


def run_each(args) -> list:
    """Run every workload in a process of its own, so that no workload's
    memory or imports are left to the next; returns their JSON results."""
    results = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            raise SystemExit(done.returncode)
        results.append((name, json.loads(lines[-1])))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lanesim" / "__init__.py").is_file():
        print(f"error: no lanesim package under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results = run_each(args)
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{k}": m for name, r in results
                        for k, m in r["metrics"].items()}}))
        return 0

    sys.path.insert(0, str(SRC))
    rep = _report(WORKLOADS[args.workload], args.seed, bool(args.trace), args.seconds)
    failures = rep["failures"]
    print(json.dumps({
        "correct": failures.failed == 0 and not rep["problems"],
        "attempted": failures.attempted, "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": rep["units"](k)}
                    for k, v in rep["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
