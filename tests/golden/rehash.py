"""Golden corpus: scenario documents and the sha256 of what each run writes.

``tests/test_golden.py`` runs every document under ``scenarios/`` through
parse, ``Engine`` and ``write_outputs`` and compares the digests of
``metrics.json``, ``trace.tsv`` and ``coverage.csv`` with ``hashes.json``,
and every seed of ``generated.py`` with ``generated_hashes.json``. Each
entry also holds ``results``, the digest of ``SimResult.completions``,
``deadline_misses`` and ``counters``, which no output file writes out in
full. A change that alters any output on purpose rewrites the hashes with

    PYTHONPATH=src python3 tests/golden/rehash.py

and names every changed scenario, seed and file, with the reason, in
CHANGES.md. To compare two checkouts on more seeds than the committed
ones, write the digests of a seed range to a file of your choosing (the
committed files stay untouched) in each checkout and diff the two files:

    PYTHONPATH=src python3 tests/golden/rehash.py --seeds 0 600 --out d.json
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from lanesim.cli import write_outputs
from lanesim.scenario import load_scenario
from lanesim.sim import run

try:
    from generated import SEEDS, generated_scenario
except ImportError:     # imported as golden.rehash
    from golden.generated import SEEDS, generated_scenario

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
HASHES = HERE / "hashes.json"
GENERATED_HASHES = HERE / "generated_hashes.json"
RESULTS = "results"


def results_digest(result) -> str:
    """sha256 of the completions, deadline misses and counters, element by
    element and in their order."""
    h = hashlib.sha256()
    for c in result.completions:
        h.update(repr((c.finish_us, c.start_us, c.release_us, c.lane, c.proc,
                       c.app, c.task)).encode())
    h.update(b"misses")
    for m in result.deadline_misses:
        h.update(repr((m.time_us, m.lane, m.proc, m.app, m.task,
                       m.release_us)).encode())
    h.update(b"counters")
    h.update(repr(sorted(result.counters.items())).encode())
    return h.hexdigest()


def scenario_digests(scenario, out_dir) -> dict:
    """Run one parsed scenario into out_dir; map each written file name to
    its sha256, and ``results`` to the digest of the result lists."""
    result = run(scenario)
    written = write_outputs(result, out_dir)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    digests[RESULTS] = results_digest(result)
    return digests


def output_digests(scenario_path, out_dir) -> dict:
    return scenario_digests(load_scenario(scenario_path), out_dir)


def seed_digests(seeds, tmp) -> dict:
    return {str(seed): scenario_digests(generated_scenario(seed),
                                        Path(tmp) / f"seed{seed}")
            for seed in seeds}


def _rewrite(path, new: dict, what: str):
    """Write new to path, first printing each digest that differs from the
    file there; a new file has nothing to differ from."""
    note = ", new file"
    if path.exists():
        note = ""
        old = json.loads(path.read_text(encoding="utf-8"))
        for name, files in new.items():
            for file, digest in files.items():
                if old.get(name, {}).get(file) != digest:
                    print(f"changed: {name} {file}")
        for name in sorted(set(old) - set(new)):
            print(f"removed: {name}")
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path} ({len(new)} {what}{note})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs=2, type=int, metavar=("START", "STOP"),
                        help="hash generated seeds START..STOP-1 into --out only")
    parser.add_argument("--out", type=Path,
                        help="the file to write the --seeds digests to")
    args = parser.parse_args(argv)
    if (args.seeds is None) != (args.out is None):
        parser.error("--seeds and --out go together")
    if args.out is not None and args.out.resolve() in (HASHES, GENERATED_HASHES):
        parser.error("--out must not name a committed digest file")
    with tempfile.TemporaryDirectory() as tmp:
        if args.seeds is not None:
            _rewrite(args.out, seed_digests(range(*args.seeds), tmp), "seeds")
            return 0
        _rewrite(HASHES, {
            path.stem: output_digests(path, Path(tmp) / path.stem)
            for path in sorted(SCENARIOS.glob("*.json"))}, "scenarios")
        _rewrite(GENERATED_HASHES, seed_digests(SEEDS, tmp), "seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
