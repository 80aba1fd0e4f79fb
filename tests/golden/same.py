"""Same behaviour as a base commit: the output and refusal sweeps, compared.

A change that keeps every output proves it by running, in the base and in
this checkout, under each supported interpreter:

- ``rehash.py --seeds 0 600``: the digests of 600 generated scenarios;
- ``refusals.py``: the exit code and text of each hostile document.

The base is taken with ``git archive REF`` into a temporary directory, so
the working tree is never touched. Each sweep runs under ``-W error``.

    python3 tests/golden/same.py --base REF

It prints one verdict line per check and exits 0 when every file of the
head equals the base's under every interpreter. It exits 1 naming the
interpreter and the first differing seed (or refused document), and 2
naming an interpreter that is not installed. The interpreters are the
pyenv builds of 3.10, 3.11, 3.12 and 3.13 under ``$PYENV_ROOT`` (default
``~/.pyenv``), each called by full path: pyenv's shims answer only for
its global version.

Two files one sweep wrote, such as CI's, are compared alone with

    python3 tests/golden/same.py --compare BASE HEAD

Two digest files (``.json``) are compared by seed, two refusal files by
document. It prints ``equal`` or the first difference, and exits 0 or 1.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parents[2]
VERSIONS = ("3.10.13", "3.11.7", "3.12.1", "3.13.0")
SEEDS = (0, 600)


def interpreters() -> list[Path]:
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    return [root / "versions" / v / "bin" / "python" for v in VERSIONS]


def archive(ref: str, into: Path):
    """Extract the tree of commit ref into a directory."""
    tree = subprocess.run(["git", "-C", str(HEAD), "archive", ref],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(into, filter="data")


def sweep(python: Path, tree: Path, out: Path) -> tuple[dict, str]:
    """Run both sweeps of one tree under one interpreter into out, and
    return what they wrote: the digests by seed, and the refusal lines."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    golden = tree / "tests" / "golden"
    digests, refusals = out / "digests.json", out / "refusals.tsv"
    for script, args in (("rehash.py", ["--seeds", *SEEDS, "--out", digests]),
                         ("refusals.py", ["--out", refusals])):
        subprocess.run([str(python), "-W", "error", str(golden / script),
                        *map(str, args)],
                       check=True, env=env, cwd=out, stdout=subprocess.DEVNULL)
    return (json.loads(digests.read_text(encoding="utf-8")),
            refusals.read_text(encoding="utf-8"))


def first_seed_difference(base: dict, head: dict) -> str | None:
    """The first seed, in seed order, whose digests differ, with the files."""
    for seed in sorted(set(base) | set(head), key=int):
        files = base.get(seed, {}), head.get(seed, {})
        changed = sorted(f for f in set(files[0]) | set(files[1])
                         if files[0].get(f) != files[1].get(f))
        if changed:
            return f"seed {seed} ({', '.join(changed)})"
    return None


def first_refusal_difference(base: str, head: str) -> str | None:
    """The first hostile document whose line differs, by its name."""
    lines = base.splitlines(), head.splitlines()
    for old, new in zip(*lines):
        if old != new:
            return f"document {old.split(chr(9))[0]!r}"
    if len(lines[0]) != len(lines[1]):
        return f"{len(lines[0])} documents against {len(lines[1])}"
    return None


def compare(base: Path, head: Path) -> str | None:
    """The first difference between two digest files (``.json``), by
    seed, or between two refusal files, by document."""
    old, new = (p.read_text(encoding="utf-8") for p in (base, head))
    if base.suffix == ".json":
        return first_seed_difference(json.loads(old), json.loads(new))
    return first_refusal_difference(old, new)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--base", help="the commit to compare with")
    what.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                      help="two digest or refusal files to compare")
    args = parser.parse_args(argv)
    if args.compare:
        diff = compare(*args.compare)
        print("equal" if diff is None else diff)
        return 0 if diff is None else 1
    pythons = interpreters()
    missing = [str(p) for p in pythons if not p.is_file()]
    if missing:
        print(f"missing interpreter: {', '.join(missing)}")
        return 2
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        archive(args.base, base)
        rehash = "rehash --seeds {} {}".format(*SEEDS)
        for i, python in enumerate(pythons):
            head = Path(tmp) / f"{i}-head"
            old = sweep(python, base, Path(tmp) / f"{i}-base")
            new = sweep(python, HEAD, head)
            for what, diff, written in (
                    (rehash, first_seed_difference(old[0], new[0]),
                     head / "digests.json"),
                    ("refusals", first_refusal_difference(old[1], new[1]),
                     head / "refusals.tsv")):
                if diff is None:
                    md5 = hashlib.md5(written.read_bytes()).hexdigest()[:8]
                    print(f"{python}: {what}: equal (md5 {md5})")
                else:
                    print(f"{python}: {what}: DIFFERS at {diff}")
                    failed.append(f"{python} {what}")
    if failed:
        print(f"not the same as {args.base}: {'; '.join(failed)}")
        return 1
    print(f"same as {args.base} under {len(pythons)} interpreters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
