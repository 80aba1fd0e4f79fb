"""Generated golden cases: seeded scenario documents hashed by seed.

``generated_document(seed)`` builds one fault scenario from
``generate_scenario`` and then varies what that generator keeps fixed:
the state model of each application (transfer with and without history
replay, convergence, hybrid), the bus capacity, the BIT period, the voter's
consensus rule and the pilot gate with scripted approvals of lane,
processor, application and sensor scope. ``rehash.py`` writes the digests
of seeds ``SEEDS`` to ``generated_hashes.json`` and ``tests/test_golden.py``
compares them, so a refactor shows on a few hundred recovery paths, not
only on the hand-written corpus, that it changed no output.
"""

import random
from fractions import Fraction

from lanesim.scenario import generate_scenario, parse_scenario

SEEDS = range(120)

_STATE_MODELS = (
    lambda size: {"strategy": "transfer", "snapshot_size": size},
    lambda size: {"strategy": "transfer", "snapshot_size": size, "history_len": 4},
    lambda size: {"strategy": "convergence", "convergence_rounds": 3},
    lambda size: {"strategy": "hybrid", "snapshot_size": size,
                  "min_state_size": max(1, size // 4), "convergence_rounds": 2},
)


def _baseline_load(doc) -> Fraction:
    """The bus load of every initial copy, in data units per ms."""
    lanes = len(doc["system"]["lanes"])
    return sum((Fraction(m["size"]) / Fraction(str(m["period_ms"])) * lanes
                for app in doc["system"]["applications"]
                for task in app["tasks"] for m in task["messages"]),
               Fraction(0))


def _approval(rng, doc) -> dict:
    horizon_ms = doc["sim"]["horizon_ms"]
    lane = rng.choice(doc["system"]["lanes"])["lane_id"]
    app = rng.choice(doc["system"]["applications"])["app_id"]
    approval = {"at_ms": round(rng.uniform(5, horizon_ms), 1)}
    scope = rng.choice(("lane", "processor", "app", "sensor"))
    if scope == "lane":
        approval["lane"] = lane
    elif scope == "processor":
        approval.update(lane=lane, proc=rng.randrange(len(doc["system"]["lanes"][0]
                                                          ["processors"])))
    elif scope == "app":
        approval["app"] = app
    else:
        approval.update(lane=lane, app=app, sensor=True)
    return approval


def generated_document(seed: int) -> dict:
    rng = random.Random(f"golden-{seed}")
    doc = generate_scenario(lanes=rng.randint(2, 4), procs=rng.randint(3, 4),
                            apps=rng.randint(1, 3), seed=seed,
                            faults=rng.randint(1, 12),
                            horizon_ms=rng.choice((60, 120, 200)))
    for app in doc["system"]["applications"]:
        size = app["state_model"]["snapshot_size"]
        app["state_model"] = rng.choice(_STATE_MODELS)(size)
    # a capacity under the baseline load would refuse the scenario outright
    load = _baseline_load(doc)
    doc["system"]["bus"]["max_load"] = rng.choice(
        [cap for cap in (5, 10, 50) if cap >= load])
    doc["sim"]["bit_period_ms"] = rng.randint(5, 50)
    if rng.random() < 0.25:
        doc["voter"]["consensus"] = "mean_of_others"
    if rng.random() < 0.5:
        doc["policies"] = {"pilot_gate": True, "pilot_approvals": [
            _approval(rng, doc) for _ in range(rng.randint(0, 5))]}
    return doc


def generated_scenario(seed: int):
    return parse_scenario(generated_document(seed))
