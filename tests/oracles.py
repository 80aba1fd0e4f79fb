"""Reference rules the tests check lanesim against, written from README.

Each is stated from the rule itself and reads only public fields, so a
check that compares the engine with one of these never agrees with the
engine merely because both run the same code:

- scopes: a lane contains its processors and a processor the task copies
  it runs; a sensor channel (app, lane) is a scope of its own;
- utilization: a task's share of its processor is C/min(D, T);
- catch-up: a backlog of H jobs of C microseconds replays in the spare
  capacity 1 - U of its processor, within (H * C) / (1 - U).
"""

import math
from fractions import Fraction

from lanesim.fault import TargetKind


def contains(scope, other) -> bool:
    """Is the element ``other`` inside ``scope``, or equal to it?

    Both are ``FaultTarget``s, which set only the coordinates of their
    kind and leave the others None. Outside sensor channels, ``other`` is
    inside when it sets every coordinate ``scope`` sets, to the same
    value. A sensor channel holds only itself and is held by nothing else.
    """
    if TargetKind.SENSOR in (scope.kind, other.kind):
        return (scope.kind is other.kind and scope.lane == other.lane
                and scope.app == other.app)
    return ((scope.lane is None or scope.lane == other.lane)
            and (scope.proc is None or scope.proc == other.proc)
            and (scope.app is None or scope.app == other.app)
            and (scope.task is None or scope.task == other.task))


def overlaps(a, b) -> bool:
    """Does one of the two scopes contain the other?"""
    return contains(a, b) or contains(b, a)


def task_utilization(wcet_us: int, period_us: int,
                     deadline_us: int | None = None) -> Fraction:
    """C/min(D, T), exactly; with no deadline the window is the period."""
    window = period_us if deadline_us is None else min(deadline_us, period_us)
    return Fraction(wcet_us, window)


def catchup_time(history_len: int, wcet_us: int, utilization: Fraction) -> int:
    """Worst-case microseconds to replay history_len jobs of wcet_us each
    in the spare capacity 1 - utilization, rounded up."""
    if history_len < 0:
        raise ValueError("negative history length")
    if history_len == 0:
        return 0
    spare = 1 - Fraction(utilization)
    if spare <= 0:
        raise ValueError("no spare capacity to replay history")
    return math.ceil(history_len * wcet_us / spare)
