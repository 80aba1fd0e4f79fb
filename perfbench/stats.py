"""Pure statistics and accounting helpers for the benchmark.

Nothing here imports lanesim, so the helpers can be tested on their own.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10   # a reported tail percentile keeps this many samples above it


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method) of a sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile of n samples with TAIL_BEYOND samples above it.

    None when n is too small for any percentile at or above the median to
    keep that many samples beyond it.
    """
    if n <= 0:
        return None
    pct = math.floor(100 * (1 - TAIL_BEYOND / n))
    return pct if pct >= 50 else None


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (quantiles n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


class FailureCounter:
    """Counts attempted scenario runs and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems) -> bool:
        """Count one attempt; it failed if it reported any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{label}: {'; '.join(problems)}")
        return not problems

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class IntervalCharger:
    """Charges each pop-to-pop interval to the kind of the event just popped.

    ``pop(kind, t)`` closes the interval opened by the previous pop and
    charges it to that pop's kind; ``close(t)`` ends the last interval. Time
    before the first pop is not charged to any kind.
    """

    def __init__(self):
        self.counts: dict = {}
        self.seconds: dict = {}
        self._kind = None
        self._since = 0.0

    def pop(self, kind, t: float):
        self._charge(t)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._kind = kind
        self._since = t

    def close(self, t: float):
        self._charge(t)
        self._kind = None

    def _charge(self, t: float):
        if self._kind is not None:
            self.seconds[self._kind] = self.seconds.get(self._kind, 0.0) + (t - self._since)
