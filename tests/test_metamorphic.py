"""Metamorphic relations over generated scenarios.

A relation checks a run against a run of a transformed scenario, so it
needs no second implementation of the engine (Chen, Cheung & Yiu 1998).

Horizon prefix: a run to an earlier horizon H1, given only the faults that
start before H1, is the first part of the run to the later horizon. Up to
and including H1 both write the same completions, deadline misses and
trace rows. What a run computes when it wraps up (abandoned outcomes, risk
windows, final coverage) depends on where it stops, so it is not compared.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from lanesim.scenario import generate_scenario, parse_scenario
from lanesim.sim import run

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
