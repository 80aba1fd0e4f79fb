"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the same work runs up to about twice as slow in phases
lasting seconds to minutes (a CPU loop timed back to back ranged from 47 to
103 ms on a shared 2-core Intel Xeon host), and a phase can outlast a whole
run. The kernel does the kind of work lanesim does (heap operations on
tuples, dict updates, Fraction sums) but none of lanesim's code, so a change
to lanesim leaves its time alone while a slow phase of the host stretches
both alike. Timed between scenarios, it gives each scenario's host time a
scale back to the reference speed.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
import time
from fractions import Fraction

# the kernel's time on the reference host (2-core Intel Xeon, Python 3.11.7)
# in a fast phase: scaled times read as host time on that host, fast phase
REFERENCE_S = 0.0015
NEAREST = 7            # samples whose median gives the speed around an instant


def kernel() -> Fraction:
    heap, totals, acc = [], {}, Fraction(0)
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1009, i, ("k", i % 17)))
    while heap:
        t, i, key = heapq.heappop(heap)
        totals[key] = totals.get(key, 0) + t
        if i % 25 == 0:
            acc += Fraction(t, 1 + i % 13)
    return acc


class Yardstick:
    def __init__(self):
        self.times: list = []      # when each sample started, ascending
        self.seconds: list = []    # how long the kernel took

    def sample(self):
        """Time the kernel once, with the cyclic collector off, as lanesim's
        garbage must not change the kernel's cost."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.times.append(t0)
        self.seconds.append(took)

    def scale(self, at: float) -> float:
        """Reference speed over the host's speed around ``at``."""
        if not self.seconds:
            raise ValueError("no yardstick samples")
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + NEAREST])
