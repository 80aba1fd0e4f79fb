"""Metamorphic relations over generated scenarios.

A relation checks a run against a run of a transformed scenario, so it
needs no second implementation of the engine (Chen, Cheung & Yiu 1998).

Horizon prefix: a run to an earlier horizon H1, given only the faults that
start before H1, is the first part of the run to the later horizon. Up to
and including H1 both write the same completions, deadline misses and
trace rows. What a run computes when it wraps up (abandoned outcomes, risk
windows, final coverage) depends on where it stops, so it is not compared.
It is checked over generated scenarios and over the golden ones, each cut
at three fractions of its horizon. Where a scripted fault starts at a
golden H1, the runs are compared only before H1: no scenario may hold a
fault at its own horizon, so the short run cannot hold the fault that the
long one activates at H1.

Time scaling, fault-free only: multiply every duration and every size of a
scenario by k and keep the bus ``max_load`` (message sizes and periods
both scale, so the bus load is unchanged). Every time stamp the run writes
is then k times the original: completions, deadline misses, trace rows and
the microsecond figures inside a row's detail. Faults are left out because
``transfer_time`` rounds each transfer up to a whole microsecond, so a
scaled transfer may end a microsecond before k times the original.

Idle processors: ``allocated`` processors that host nothing, added to
every lane under fresh ids at drawn positions (before the spare too),
change no byte of any output and not the ``results`` digest. No task
starts on them, so they only widen what a lane holds: the places a lane
fault halts, the places built-in test sweeps and the places classification
counts for hosting. Each run is compared with the digests the golden
corpus pins, of a hand-written golden or a generated one.
"""

import copy
import functools
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lanesim.scenario import generate_scenario, parse_scenario
from lanesim.sim import run
from lanesim.timebase import ms_to_us

from golden.generated import SEEDS, generated_document
from golden.rehash import (GENERATED_HASHES, HASHES, SCENARIOS,
                           scenario_digests)

_HORIZON_MS = 100
_H1_MS = 60


def _up_to(result, until_us):
    return ([c for c in result.completions if c.finish_us <= until_us],
            [m for m in result.deadline_misses if m.time_us <= until_us],
            [row for row in result.trace if row.time_us <= until_us])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([0, 10, 40]), st.integers(1, 4))
@example(0, 40, 2)
@example(7, 10, 4)
def test_a_shorter_horizon_is_a_prefix_of_the_longer_run(seed, faults, apps):
    doc = generate_scenario(lanes=4, procs=6, apps=apps, seed=seed,
                            faults=faults, horizon_ms=_HORIZON_MS)
    short = copy.deepcopy(doc)
    short["sim"]["horizon_ms"] = _H1_MS
    short["faults"] = [f for f in doc["faults"] if f["at_ms"] < _H1_MS]
    whole = run(parse_scenario(doc))
    prefix = run(parse_scenario(short))
    h1_us = _H1_MS * 1000
    assert prefix.horizon_us == h1_us
    assert _up_to(whole, h1_us) == _up_to(prefix, h1_us)
    # the earlier run wrote nothing past its horizon
    assert _up_to(prefix, h1_us) == (prefix.completions,
                                      prefix.deadline_misses, prefix.trace)


@functools.cache
def _golden(name):
    """A golden scenario's document and its run to the whole horizon."""
    doc = json.loads((SCENARIOS / name).read_text())
    return doc, run(parse_scenario(doc))


@pytest.mark.parametrize("fraction", [Fraction(3, 10), Fraction(1, 2),
                                      Fraction(4, 5)], ids=str)
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_a_golden_run_cut_short_is_a_prefix_of_the_whole_run(name, fraction):
    doc, whole = _golden(name)
    h1_us = int(whole.horizon_us * fraction)
    # a fault keeps the id its position gave it in the whole document
    faults = [dict(f, fault_id=f.get("fault_id", i))
              for i, f in enumerate(doc.get("faults", []))]
    starts = [ms_to_us(f["at_ms"]) for f in faults]
    short = copy.deepcopy(doc)
    short["sim"]["horizon_ms"] = h1_us / 1000
    short["faults"] = [f for f, at in zip(faults, starts) if at < h1_us]
    prefix = run(parse_scenario(short))
    assert prefix.horizon_us == h1_us
    until = h1_us - 1 if h1_us in starts else h1_us
    assert _up_to(whole, until) == _up_to(prefix, until)


_K = 2
# the document keys that hold a duration or a size
_SCALED_KEYS = frozenset({"wcet_ms", "period_ms", "deadline_ms", "horizon_ms",
                          "bit_period_ms", "size", "code_size",
                          "snapshot_size", "min_state_size"})
_US = re.compile(r"(\d+)us")


def _scaled(doc, k):
    if isinstance(doc, dict):
        return {key: value * k if key in _SCALED_KEYS else _scaled(value, k)
                for key, value in doc.items()}
    if isinstance(doc, list):
        return [_scaled(value, k) for value in doc]
    return doc


def _stamps(result, k=1):
    """Every row of a run with each time stamp multiplied by k."""
    def us(text):
        return _US.sub(lambda m: f"{k * int(m.group(1))}us", text)
    return ([(k * c.finish_us, k * c.start_us, k * c.release_us, c.lane,
              c.proc, c.app, c.task) for c in result.completions],
            [(k * m.time_us, m.lane, m.proc, m.app, m.task, k * m.release_us)
             for m in result.deadline_misses],
            [(k * r.time_us, r.kind, r.lane, r.proc, r.app, r.task,
              us(r.detail)) for r in result.trace])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 4),
       st.sampled_from([0.3, 0.5, 0.69]), st.booleans())
@example(0, 1, 0.5, True)
@example(3, 4, 0.69, False)
# a 1 us WCET lift carried a processor past the bound; the draw takes the
# excess off the processor's largest WCET, so the document is valid
@example(8224, 1, 0.69, False)
def test_scaling_every_duration_scales_every_time_stamp(seed, apps, load,
                                                        infeasible):
    # an infeasible scenario misses deadlines, and its skewed votes drive
    # detection, shutdown and abandonment rows, all without a fault
    doc = generate_scenario(lanes=4, procs=6, apps=apps, seed=seed,
                            target_utilization=load, infeasible=infeasible,
                            horizon_ms=_HORIZON_MS)
    assert doc["faults"] == []
    original = run(parse_scenario(doc))
    scaled = run(parse_scenario(_scaled(doc, _K)))
    assert scaled.horizon_us == _K * original.horizon_us
    assert _stamps(scaled) == _stamps(original, _K)


_PINNED = json.loads(HASHES.read_text(encoding="utf-8"))
_PINNED_GENERATED = json.loads(GENERATED_HASHES.read_text(encoding="utf-8"))


def _with_idle(doc, positions):
    """The document with one idle ``allocated`` processor per position
    inserted into every lane's list there, under ids above every other."""
    doc = copy.deepcopy(doc)
    lanes = doc["system"]["lanes"]
    fresh = 1 + max(p["proc_id"] for lane in lanes for p in lane["processors"])
    for lane in lanes:
        procs = lane["processors"]
        for i, at in enumerate(positions):
            procs.insert(min(at, len(procs)),
                         {"proc_id": fresh + i, "role": "allocated"})
    return doc


# a golden by name, or a generated golden by seed
_SOURCES = st.one_of(st.sampled_from(sorted(_PINNED)), st.sampled_from(SEEDS))


@settings(max_examples=200, deadline=None)
@given(_SOURCES, st.lists(st.integers(0, 6), min_size=1, max_size=3))
# before the spare, after it, and between allocated processors
@example("triplex_lane_permanent", [3])
@example("triplex_lane_transient", [4, 4])
@example("same_instant_faults", [0, 2, 5])
@example(23, [9])
def test_idle_processors_change_no_output(source, positions):
    if isinstance(source, str):
        doc = json.loads((SCENARIOS / f"{source}.json").read_text())
        pinned = _PINNED[source]
    else:
        doc, pinned = generated_document(source), _PINNED_GENERATED[str(source)]
    with tempfile.TemporaryDirectory() as tmp:
        got = scenario_digests(parse_scenario(_with_idle(doc, positions)),
                               Path(tmp))
    assert got == pinned
