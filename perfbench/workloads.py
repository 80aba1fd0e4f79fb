"""The benchmark's workloads: which scenarios each one runs, and why.

Every workload is a fixed pool of scenario documents made with
``lanesim.scenario.generate_scenario``. The generator seeds of a pool are
drawn from the workload name and the benchmark's ``--seed``, so one seed
always gives the same pool and different seeds give unrelated pools.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# fault_storm rotates its applications through these recovery strategies,
# so every state path (history replay, convergence, hybrid) is exercised
_STATE_MODELS = (
    lambda size: {"strategy": "transfer", "snapshot_size": size, "history_len": 4},
    lambda size: {"strategy": "convergence", "convergence_rounds": 3},
    lambda size: {"strategy": "hybrid", "snapshot_size": size,
                  "min_state_size": max(1, size // 4), "convergence_rounds": 2},
)


def _steady_large(generate, gen_seed: int, index: int) -> dict:
    return generate(lanes=4, procs=20, apps=8, seed=gen_seed, horizon_ms=100)


def _many_short(generate, gen_seed: int, index: int) -> dict:
    return generate(lanes=4, procs=20, apps=8, seed=gen_seed, horizon_ms=20)


def _fault_storm(generate, gen_seed: int, index: int) -> dict:
    doc = generate(lanes=4, procs=10, apps=8, seed=gen_seed, faults=40,
                   horizon_ms=100)
    for k, app in enumerate(doc["system"]["applications"]):
        size = app["state_model"]["snapshot_size"]
        app["state_model"] = _STATE_MODELS[(k + index) % len(_STATE_MODELS)](size)
    return doc


MIN_POOL = 20    # the smallest pool whose median keeps ten samples beyond it
MAX_POOL = 150   # past this, more passes beat more scenarios: generating costs too


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    scenario_s: float  # nominal scaled seconds per scenario, sizes the pool
    passes: int        # fewest timed passes; a scenario's time is its fastest
    traced: int        # leading pool scenarios the traced run instruments
    heldout: int       # scenarios drawn from the held-out seed
    build: Callable    # (generate_scenario, generator seed, pool index) -> document

    def plan(self, seconds: float) -> tuple[int, int]:
        """(pool size, timed passes) for timed passes lasting about ``seconds``.

        Fixed by the arguments alone, so parent and change at one seed run
        the same scenarios the same number of times whatever their speed.
        """
        pool = max(MIN_POOL, min(MAX_POOL, round(seconds / (self.passes * self.scenario_s))))
        return pool, max(self.passes, round(seconds / (pool * self.scenario_s)))


# Over ten seeds, fault_storm's spread comes from which scenarios a seed
# draws (their cost varies with how much survives the faults), so it spends
# its time on one pass over many scenarios; the others' from one-off stalls
# within single runs, so they repeat each scenario and keep the fastest.
WORKLOADS = {
    w.name: w for w in (
        Workload("steady_large", scenario_s=0.072, passes=2, traced=16, heldout=6,
                 build=_steady_large),
        Workload("fault_storm", scenario_s=0.078, passes=1, traced=16, heldout=8,
                 build=_fault_storm),
        Workload("many_short", scenario_s=0.022, passes=3, traced=40, heldout=12,
                 build=_many_short),
    )
}


def generator_seeds(workload: str, seed: int, count: int, salt: str = "") -> list[int]:
    rng = random.Random(f"{workload}/{salt}/{seed}")
    return [rng.getrandbits(31) for _ in range(count)]


def write_pool(scenario_module, workload: Workload, seed: int, directory: Path,
               count: int, salt: str = "") -> list[Path]:
    """Generate ``count`` scenario files of the workload into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, gen_seed in enumerate(generator_seeds(workload.name, seed, count, salt)):
        doc = workload.build(scenario_module.generate_scenario, gen_seed, index)
        path = directory / f"{index:03d}.json"
        path.write_text(scenario_module.dump_scenario(doc), encoding="utf-8")
        paths.append(path)
    return paths
