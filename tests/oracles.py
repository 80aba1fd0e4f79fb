"""Reference rules the tests check lanesim against, written from README.

Each is stated from the rule itself and reads only public fields, so a
check that compares the engine with one of these never agrees with the
engine merely because both run the same code:

- scopes: a lane contains its processors and a processor the task copies
  it runs; a sensor channel (app, lane) is a scope of its own;
- utilization: a task's share of its processor is C/min(D, T);
- catch-up: a backlog of H jobs of C microseconds replays in the spare
  capacity 1 - U of its processor, within (H * C) / (1 - U);
- the bus: the load is the sum of size/period over the messages it
  carries, a demand d is admitted when load + d <= max_load, and a
  transfer takes ceil(payload / (max_load - load) * 1000) microseconds;
- spare selection: ``plan_spares`` plans failed tasks in the order given,
  each at the first spare, by tier, utilization and (lane, proc), that
  admits it, while the plan's bus admits its demand;
- the exchange vote: ``exchange_vote`` as it read each sender's reports
  as (receiver, value) pairs and took ``statistics.median``, kept as the
  reference its list kernel is held to.
"""

import math
import statistics
from fractions import Fraction

from lanesim.fault import InsufficientLanes, TargetKind, VoteOutcome


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


def message_demand(spec) -> Fraction:
    """A task's bus demand, data units per ms: the sum of size/period over
    its messages, periods taken in ms."""
    return sum((Fraction(m.size) / Fraction(m.period_us, 1000)
                for m in spec.messages), Fraction(0))


def bus_admits(load, demand, max_load) -> bool:
    """Does the bus take demand on top of load?"""
    return load + demand <= max_load


def bus_transfer_us(payload, load, max_load) -> int:
    """Microseconds to move payload units in what max_load leaves free of
    load, rounded up; the residual must be positive. Each is exact: an
    int or a Fraction."""
    residual = Fraction(max_load) - Fraction(load)
    if residual <= 0:
        raise ValueError("no residual bandwidth")
    return math.ceil(Fraction(payload) / residual * 1000)


def plan_spares(failed, spares, bound, load, max_load, restricted):
    """Spare selection by README's rule, in exact Fractions.

    ``failed`` lists (key, home lane, utilization, demand) of each failed
    task, key (app, task); ``spares`` maps each spare's (lane, proc) to
    the {key: utilization} it holds. Tasks are planned in the order given.
    A spare is usable unless it already holds the task, or, restricted, it
    holds anything; both are read from the spares as given. The usable
    spares rank by tier (the home lane first), then by their utilization
    under the plan so far, then by (lane, proc). The task goes to the first
    whose utilization plus the task's stays within the bound, provided the
    bus load plus its demand stays within max_load; otherwise it degrades.

    Returns the placements as (task id, place), the degraded task ids, the
    bus load after the plan, and each spare's utilization after it.
    """
    held = {place: dict(entries) for place, entries in spares.items()}

    def load_of(place):
        return sum(held[place].values(), Fraction(0))

    placements, degraded = [], []
    for key, home, u, demand in failed:
        usable = [place for place, entries in spares.items()
                  if key not in entries and not (restricted and entries)]
        ranked = sorted(usable, key=lambda p: (p[0] != home, load_of(p), p))
        fits = [place for place in ranked if load_of(place) + u <= bound]
        if fits and bus_admits(load, demand, max_load):
            held[fits[0]][key] = u
            load += demand
            placements.append((key[1], fits[0]))
        else:
            degraded.append(key[1])
    return placements, degraded, load, {place: load_of(place) for place in held}


_EQUIVOCAL = object()
_SILENT = object()


def _largest_clique(items: list, tol: float):
    """Largest pairwise-agreeing subset of (key, value) items;
    deterministic on ties (first anchor)."""
    best = []
    for _, anchor in items:
        clique = [(k, v) for k, v in items if abs(v - anchor) <= tol]
        vals = [v for _, v in clique]
        if max(vals) - min(vals) <= tol and len(clique) > len(best):
            best = clique
    return best


def exchange_vote(received, cfg) -> VoteOutcome:
    """The exchange vote over the received-values matrix, by its rules:
    each sender's reports from the other receivers establish it silent (a
    majority of silences, which win a tie with the largest agreeing value
    clique), at the median of a majority clique, or else equivocal; a lone
    receiver's own claim stands for itself. Present senders whose value is
    equivocal or more than the tolerance from the median of the
    established values are flagged; two present senders that disagree, or
    a flagged set the rest cannot out-vote, leave the outcome ambiguous.
    A silent sender is left out: neither flagged nor counted."""
    receivers = sorted(received)
    senders = sorted({s for r in receivers for s in received[r]})
    if len(senders) < 2:
        raise InsufficientLanes(f"need at least 2 participants, got {len(senders)}")
    tol = cfg.tolerance

    established: dict = {}
    for s in senders:
        reports = [(r, received[r][s]) for r in receivers if r != s and s in received[r]]
        if not reports:
            established[s] = received[s][s] if s in received and s in received[s] else _EQUIVOCAL
            continue
        none_cluster = [(r, v) for r, v in reports if v is None]
        value_cluster = _largest_clique([(r, v) for r, v in reports if v is not None], tol)
        cluster = none_cluster if len(none_cluster) >= len(value_cluster) else value_cluster
        if 2 * len(cluster) > len(reports):
            if cluster and cluster[0][1] is None:
                established[s] = _SILENT
            else:
                established[s] = statistics.median(v for _, v in cluster)
        else:
            established[s] = _EQUIVOCAL

    silent = frozenset(s for s, e in established.items() if e is _SILENT)
    present = [s for s in senders if s not in silent]
    numeric = {s: established[s] for s in present if established[s] is not _EQUIVOCAL}

    if not numeric:
        return VoteOutcome(frozenset(present), ambiguous=bool(present))

    if len(present) == 2 and len(numeric) == 2:
        a, b = numeric
        if abs(numeric[a] - numeric[b]) > tol:
            return VoteOutcome(frozenset(present), ambiguous=True)

    consensus = statistics.median(numeric.values())
    flagged = {s for s in present
               if established[s] is _EQUIVOCAL or abs(numeric[s] - consensus) > tol}
    unflagged = [s for s in present if s not in flagged]
    if flagged and len(unflagged) <= len(flagged):
        return VoteOutcome(frozenset(flagged), ambiguous=True)
    return VoteOutcome(frozenset(flagged))
