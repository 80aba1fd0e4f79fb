"""The benchmark's tracer must find every name it patches in lanesim.

``perfbench/tracer.py`` wraps functions by module attribute and path, e.g.
``lanesim.sim.classify``, and reads the kind of each popped event from the
engine's heap entries. A refactor that moves such a name or reorders the
entry breaks the traced benchmark run, so these checks keep that failure
in the test suite.
"""

import heapq
import importlib
import importlib.util
from pathlib import Path

import lanesim.sim
from lanesim.sim import EventKind, run

from conftest import proc_fault, scen

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))      # tracer imports its siblings
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_benchmark_probe_resolves_on_lanesim(monkeypatch):
    targets = _tracer(monkeypatch)._TARGETS
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


def test_the_tracer_reads_each_popped_event_kind(monkeypatch):
    # the pop shim takes the kind from index 4 of every heap entry
    tracer = _tracer(monkeypatch)
    with tracer.counting_pops(lanesim.sim) as pops:
        run(scen([proc_fault(kind="transient", duration_ms=40)]))
    assert pops.counts
    assert all(isinstance(kind, EventKind) for kind in pops.counts)
    # fault-free, one TaskRelease releases a task's copy on each of the
    # three lanes
    with tracer.counting_pops(lanesim.sim) as pops:
        result = run(scen([]))
    assert pops.counts[EventKind.TASK_RELEASE] * 3 == result.counters["releases"]
