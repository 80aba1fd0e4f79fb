"""Golden corpus: scenario documents and the sha256 of what each run writes.

``tests/test_golden.py`` runs every document under ``scenarios/`` through
parse, ``Engine`` and ``write_outputs`` and compares the digests of
``metrics.json``, ``trace.tsv`` and ``coverage.csv`` with ``hashes.json``,
and every seed of ``generated.py`` with ``generated_hashes.json``. A change
that alters any output on purpose rewrites the hashes with

    PYTHONPATH=src python3 tests/golden/rehash.py

and names every changed scenario, seed and file, with the reason, in
CHANGES.md.
"""

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


def scenario_digests(scenario, out_dir) -> dict:
    """Run one parsed scenario into out_dir; map each written file name to
    its sha256."""
    written = write_outputs(run(scenario), out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


def output_digests(scenario_path, out_dir) -> dict:
    return scenario_digests(load_scenario(scenario_path), out_dir)


def _rewrite(path, new: dict, what: str):
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name, files in new.items():
        for file, digest in files.items():
            if old.get(name, {}).get(file) != digest:
                print(f"changed: {name} {file}")
    for name in sorted(set(old) - set(new)):
        print(f"removed: {name}")
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path} ({len(new)} {what})")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _rewrite(HASHES, {
            path.stem: output_digests(path, Path(tmp) / path.stem)
            for path in sorted(SCENARIOS.glob("*.json"))}, "scenarios")
        _rewrite(GENERATED_HASHES, {
            str(seed): scenario_digests(generated_scenario(seed),
                                        Path(tmp) / f"seed{seed}")
            for seed in SEEDS}, "seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
