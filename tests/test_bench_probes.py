"""The benchmark's tracer must find every name it patches in lanesim.

``perfbench/tracer.py`` wraps functions by module attribute and path, e.g.
``lanesim.sim.classify``. A refactor that moves such a name breaks the
traced benchmark run, so this check keeps that failure in the test suite.
"""

import heapq
import importlib
import importlib.util
from pathlib import Path

import lanesim.sim

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))      # tracer imports its siblings
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer._TARGETS


def test_every_benchmark_probe_resolves_on_lanesim(monkeypatch):
    targets = _bench_targets(monkeypatch)
    assert targets
    for module, path, name, _keep in targets:
        owner = importlib.import_module(f"lanesim.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{name}: lanesim.{module}.{path} is gone"
        assert callable(vars(owner)[attr]) or isinstance(vars(owner)[attr], property)


def test_the_event_heap_is_reachable_as_lanesim_sim_heapq():
    # the tracer swaps this module attribute for a pop-counting shim
    assert vars(lanesim.sim)["heapq"] is heapq
