"""Release, input and output jitter of one copy, read from a run's completions."""

from __future__ import annotations


class InsufficientInstances(Exception):
    """Jitter needs at least two observed instances of the selection."""


def measure_jitter(result, *, app=None, task=None, lane=None, proc=None,
                   kind: str = "output", period_us: int | None = None) -> int:
    """Max-min spread of per-instance offsets for one copy selection.

    kind 'output' measures completion minus release, 'input' measures first
    dispatch minus release, and 'release' measures drift of release times
    against the periodic grid (which needs period_us, a positive int).
    """
    completions = result.completions if hasattr(result, "completions") else result
    picked = [
        c for c in completions
        if (app is None or c.app == app) and (task is None or c.task == task)
        and (lane is None or c.lane == lane) and (proc is None or c.proc == proc)
    ]
    if len(picked) < 2:
        raise InsufficientInstances(
            f"need at least 2 instances to measure jitter, got {len(picked)}")
    if kind == "output":
        offsets = [c.finish_us - c.release_us for c in picked]
    elif kind == "input":
        offsets = [c.start_us - c.release_us for c in picked]
    elif kind == "release":
        # a grid needs a whole, positive period: a bool is no period
        if (isinstance(period_us, bool) or not isinstance(period_us, int)
                or period_us <= 0):
            raise ValueError("release jitter needs period_us")
        offsets = [c.release_us % period_us for c in picked]
    else:
        raise ValueError(f"unknown jitter kind {kind!r}")
    return max(offsets) - min(offsets)
