"""The benchmark's tracer must find every name it patches in lanesim.

``perfbench/tracer.py`` wraps functions by module attribute and path, e.g.
``lanesim.sim.classify``, and reads the kind of each popped event from the
engine's heap entries. A refactor that moves such a name or reorders the
entry breaks the traced benchmark run, so these checks keep that failure
in the test suite. The tracer's pop count also pins how many
``TaskRelease`` events pop on fault-free runs, one an instant that
releases, and how many ``BITCheck`` events pop: one a built-in test
period, from the first fault on a start every set proves.
"""

import heapq
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import lanesim.cli
import lanesim.coverage
import lanesim.fault
import lanesim.scenario
import lanesim.sim
import lanesim.timing
from lanesim.scenario import generate_scenario, load_scenario, parse_scenario
from lanesim.sim import EventKind, run

from scenario_builders import proc_fault, scen
from test_reach import listed

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden" / "scenarios"


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


def _fault_free_generated():
    doc = generate_scenario(lanes=4, procs=6, apps=3, seed=3, horizon_ms=100)
    doc["sim"]["bit_period_ms"] = 7     # the horizon is no multiple of it
    return parse_scenario(doc)


def _release_instants(scenario) -> int:
    """How many distinct instants a fault-free run releases at: every
    multiple of a task period, from 0 to the horizon."""
    horizon = scenario.settings.horizon_us
    return len({at for app in scenario.model.applications for task in app.tasks
                for at in range(0, horizon + 1, task.period_us)})


def test_the_tracer_reads_each_popped_event_kind(monkeypatch):
    # the pop shim takes the kind from index 4 of every heap entry
    tracer = _tracer(monkeypatch)
    with tracer.counting_pops(lanesim.sim) as pops:
        run(scen([proc_fault(kind="transient", duration_ms=40)]))
    assert pops.counts
    assert all(isinstance(kind, EventKind) for kind in pops.counts)
    # fault-free, one TaskRelease runs every release group due at its
    # instant
    for scenario in (scen([]), _fault_free_generated()):
        with tracer.counting_pops(lanesim.sim) as pops:
            run(scenario)
        assert pops.counts[EventKind.TASK_RELEASE] == _release_instants(scenario)


def _golden(name):
    return lambda: load_scenario(GOLDEN / f"{name}.json")


@pytest.mark.parametrize("scenario, first", [
    pytest.param(_fault_free_generated, None, id="fault_free_generated"),
    *(pytest.param(_golden(name), first, id=name) for name, first in (
        ("customer_cap_refuses_spare", 25_000),
        ("triplex_bit_detection", 50_000),
        ("round_and_sweep_at_first_fault", 40_000),
        ("overload_deadline_misses", 25_000)))])
def test_bit_runs_as_one_event_per_period(monkeypatch, scenario, first):
    # one BITCheck tests every place, one a period from the first sweep to
    # the horizon, whatever the places hold and whether they are dead. On
    # a start every set proves, BIT starts at the first period at or after
    # the first fault: none on a fault-free run, the next period after a
    # fault between two (customer_cap_refuses_spare: 10 ms, every 25 ms),
    # the fault's own instant when it falls on one (triplex_bit_detection:
    # 50 ms, every 25; round_and_sweep_at_first_fault: 40 ms, every 20).
    # An unproven start (overload_deadline_misses) sweeps from the first
    # period
    scenario = scenario()
    with _tracer(monkeypatch).counting_pops(lanesim.sim) as pops:
        run(scenario)
    settings = scenario.settings
    want = 0 if first is None else len(
        range(first, settings.horizon_us + 1, settings.bit_period_us))
    assert pops.counts.get(EventKind.BIT_CHECK, 0) == want


def test_the_tracer_counts_one_placement_a_spare_selected(monkeypatch):
    # reconfig.placed_ratio reads Tracer.placed, the length of each plan's
    # placements; installed under the benchmark's own names, so that its
    # observers attach, it must count the SpareSelected rows
    tracer = _tracer(monkeypatch).Tracer()
    ls = SimpleNamespace(cli=lanesim.cli, coverage=lanesim.coverage,
                         fault=lanesim.fault, scenario=lanesim.scenario,
                         sim=lanesim.sim, timing=lanesim.timing)
    selected = 0
    tracer.install(ls)
    try:
        # the four goldens test_every_traced_probe_counts_a_call runs
        for name in ("triplex_bit_detection", "quadruplex_byzantine_per_receiver",
                     "spare_dies_in_transfer", "triplex_processor_permanent"):
            scenario = ls.scenario.load_scenario(GOLDEN / f"{name}.json")
            result = ls.sim.Engine(scenario).run()
            selected += sum(row[1] == "SpareSelected" for row in result.rows)
    finally:
        tracer.remove()
    assert selected and tracer.placed == selected


def test_every_traced_probe_counts_a_call(monkeypatch, tmp_path):
    # a probe that exists but is called around the patched module attribute
    # (fault.cross_monitor in place of lanesim.sim.cross_monitor) reads
    # zero in the traced benchmark without failing anything else. Each
    # target is counted under its own name here, so that a figure shared
    # by two targets (fault.vote) cannot hide one of them
    tracer_module = _tracer(monkeypatch)
    figure = {f"{module}.{path}": name
              for module, path, name, _keep in tracer_module._TARGETS}
    tracer_module._TARGETS = tuple(
        (module, path, f"{module}.{path}", keep)
        for module, path, _name, keep in tracer_module._TARGETS)
    tracer_module.NAMES = sorted(figure)
    tracer = tracer_module.Tracer()
    ls = SimpleNamespace(cli=lanesim.cli, coverage=lanesim.coverage,
                         fault=lanesim.fault, scenario=lanesim.scenario,
                         sim=lanesim.sim, timing=lanesim.timing)
    tracer.install(ls)
    try:
        for name in ("triplex_bit_detection", "quadruplex_byzantine_per_receiver",
                     "spare_dies_in_transfer", "triplex_processor_permanent"):
            scenario = ls.scenario.load_scenario(GOLDEN / f"{name}.json")
            result = ls.sim.Engine(scenario).run()
            ls.cli.write_outputs(result, tmp_path / name)
    finally:
        tracer.remove()
    calls = tracer.calls
    # the probes no scenario reaches are exempt: README's list "Functions
    # no scenario reaches" names each with its reason
    uncalled = set(listed()) & calls.keys()
    assert [target for target in uncalled if calls[target]] == []
    assert [target for target, n in calls.items()
            if not n and target not in uncalled] == []
    # so every figure the traced benchmark reports counts a call, but one
    # whose every target README lists (timing.sum: the engine checks its
    # start-up loads in integers)
    assert {figure[target] for target, n in calls.items() if n} == {
        figure[target] for target in calls if target not in uncalled}
    assert {figure[target] for target in uncalled} - {
        figure[target] for target in calls if target not in uncalled} == {"timing.sum"}
