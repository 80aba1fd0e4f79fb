"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fault_storm --seeds 10

Runs perfbench/run.py once per seed, one after another, and prints for
each metric the median over seeds and the inter-quartile distance as a
share of that median (``statistics.quantiles(values, n=4)``), next to the
bound BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.5g}"
                                           for k, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        sp = spread(vals) if med else 0.0
        bound = bounds.get(name)
        print(f"{name:34s} {med:12.6g} {sp:8.4f} {'' if bound is None else bound:>6}")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
