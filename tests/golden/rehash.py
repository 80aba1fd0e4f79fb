"""Golden corpus: scenario documents and the sha256 of what each run writes.

``tests/test_golden.py`` runs every document under ``scenarios/`` through
parse, ``Engine`` and ``write_outputs`` and compares the digests of
``metrics.json``, ``trace.tsv`` and ``coverage.csv`` with ``hashes.json``.
A change that alters any output on purpose rewrites the hashes with

    PYTHONPATH=src python3 tests/golden/rehash.py

and names every changed scenario and file, with the reason, in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from lanesim.cli import write_outputs
from lanesim.scenario import load_scenario
from lanesim.sim import run

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
HASHES = HERE / "hashes.json"


def output_digests(scenario_path, out_dir) -> dict:
    """Run one scenario into out_dir; map each written file name to its sha256."""
    written = write_outputs(run(load_scenario(scenario_path)), out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


def main() -> int:
    old = json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(SCENARIOS.glob("*.json")):
            new[path.stem] = output_digests(path, Path(tmp) / path.stem)
    for name, files in new.items():
        for file, digest in files.items():
            if old.get(name, {}).get(file) != digest:
                print(f"changed: {name} {file}")
    for name in sorted(set(old) - set(new)):
        print(f"removed: {name}")
    HASHES.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {HASHES} ({len(new)} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
