"""Running scenarios the way a user does, and checking what they wrote."""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

OUTPUT_FILES = ("metrics.json", "trace.tsv", "coverage.csv")
COVERAGE_LABELS = frozenset({"none", "simplex", "duplex", "triplex", "quadruplex"})
_MODULES = ("cli", "coverage", "fault", "scenario", "sim", "timing")


def fresh_import() -> SimpleNamespace:
    """Import lanesim from scratch, dropping any copy imported earlier."""
    for name in [n for n in sys.modules if n == "lanesim" or n.startswith("lanesim.")]:
        del sys.modules[name]
    importlib.import_module("lanesim")
    return SimpleNamespace(**{m: importlib.import_module(f"lanesim.{m}")
                              for m in _MODULES})


def _exit_code(ls, exc: BaseException) -> str:
    """The exit status `lanesim batch` would give the failure."""
    if isinstance(exc, ls.scenario.InvalidModel):
        return "1"
    if isinstance(exc, (json.JSONDecodeError, ls.scenario.MalformedDocument)):
        return "2"
    if isinstance(exc, OSError):
        return "3"
    return "uncaught"


def run_scenario(ls, path: Path, out_dir: Path):
    """Parse, simulate and write one scenario, as `lanesim batch` does.

    Returns (result or None, host seconds from parse through written
    outputs, problems).
    """
    t0 = time.perf_counter()
    try:
        scenario = ls.scenario.load_scenario(path)
        result = ls.sim.Engine(scenario).run()
        ls.cli.write_outputs(result, out_dir)
    except Exception as exc:  # one failed scenario must not stop the run
        took = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return None, took, [f"exit {_exit_code(ls, exc)}: {type(exc).__name__}: {exc}"]
    return result, time.perf_counter() - t0, []


def check_outputs(result, out_dir: Path):
    """Check one run's written outputs; returns (sha256 over them, problems)."""
    problems = []
    digest = hashlib.sha256()
    blobs = {}
    for name in OUTPUT_FILES:
        blobs[name] = (out_dir / name).read_bytes()
        digest.update(name.encode() + b"\0" + blobs[name])
    try:
        metrics = json.loads(blobs["metrics.json"])
        records_match = metrics["summary"]["records"] == len(metrics["records"])
        labels = {label for app in metrics["coverage_final"].values()
                  for label in app.values()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return digest.hexdigest(), [f"metrics.json is not a valid report: {exc!r}"]
    if not records_match:
        problems.append("summary.records differs from the record count")
    if not all(rec.ordering_ok() for rec in result.records):
        problems.append("a record's phase timestamps are out of order")
    for line in blobs["coverage.csv"].decode().splitlines()[1:]:
        labels.update(line.split(",")[2:])
    if not labels <= COVERAGE_LABELS:
        problems.append(f"invalid coverage labels {sorted(labels - COVERAGE_LABELS)}")
    return digest.hexdigest(), problems


@dataclass
class PassResult:
    seconds: list = field(default_factory=list)    # per scenario, parse..written
    started: list = field(default_factory=list)    # perf_counter at each scenario start
    releases: list = field(default_factory=list)   # counters.releases per scenario
    digests: list = field(default_factory=list)    # sha256 of each scenario's outputs
    heap_peaks: list = field(default_factory=list) # bytes, leading scenarios only

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds)


def run_pass(ls, paths, out_root: Path, failures, label: str,
             reference=None, tracer=None, yardstick=None, heap=0) -> PassResult:
    """Run every scenario once, closed loop, checking each one's outputs.

    With ``reference`` (the digests of an earlier pass) the outputs must be
    byte-identical to it. With ``tracer`` each scenario is a kept span. With
    ``yardstick`` the host speed is sampled before each scenario. For the
    first ``heap`` scenarios, ``tracemalloc`` records the peak of what
    parse, run and write allocate; it slows them several times over, so
    their times mean nothing.
    """
    out = PassResult()
    for index, path in enumerate(paths):
        out_dir = out_root / path.stem
        if yardstick is not None:
            yardstick.sample()
        if index < heap:
            tracemalloc.start()
        out.started.append(time.perf_counter())
        if tracer is None:
            result, took, problems = run_scenario(ls, path, out_dir)
        else:
            tracer.scenario = path.stem
            result, took, problems = tracer.span(
                "scenario", run_scenario, ls, path, out_dir)
        if index < heap:
            out.heap_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        digest = None
        if result is not None:
            digest, found = check_outputs(result, out_dir)
            problems += found
            if reference is not None and digest != reference[index]:
                problems.append("outputs differ from the reference run")
        failures.record(f"{label} {path.name}", problems)
        out.seconds.append(took)
        out.releases.append(result.counters["releases"] if result is not None else 0)
        out.digests.append(digest)
    return out


def workload_digest(digests) -> str:
    """One sha256 over every scenario's outputs, in pool order."""
    h = hashlib.sha256()
    for d in digests:
        h.update((d or "missing").encode())
    return h.hexdigest()
