"""Fault model, cross-monitoring voters, and detection classification.

Faults strike :class:`FaultTarget`s: a lane, a processor, a task copy or
a sensor channel. A target's ``key`` is its coordinate prefix: ``(lane,)``,
``(lane, proc)`` or ``(lane, proc, app, task)``; a sensor channel's key
prefixes no other. Shutdown scopes are such keys themselves, with no
target built around them: ``classify`` returns them, and built-in test
hands on the key of the target it caught. Scopes nest as keys do: a fault
or shutdown covers an element when its key prefixes the element's. The
engine answers that question by key prefix: it looks the prefixes of a
key up in its index of active faults by target key, and reads a scope's
copies from its index of copies by (lane, proc). A scope's kind is its
key's length (``SCOPE_KINDS``).

Detection has two mechanisms. Built-in test (BIT) is local health
monitoring: it catches permanent and transient hardware faults on the
processor it runs on, and is structurally blind to Byzantine behaviour. The
cross-monitor compares replicated output values across lanes every voting
round; silence and wrong values both show up there.

Two voters are provided. Both return a :class:`VoteOutcome`: the places
flagged, and whether the verdict is ambiguous. Silence is not theirs to
find: the engine implicates every copy that emits nothing before it votes.

``cross_monitor``
    One value per place (lane, proc). A place is flagged when its value
    sits more than the tolerance away from the consensus of the agreeing
    majority among the other places (median or mean per config; the mean
    is clamped to the values' range, where the exact mean lies). Two
    places that disagree cannot out-vote each other, and three-plus
    mutually divergent values have no majority; both cases come back
    ambiguous rather than flagged.

``exchange_vote``
    The full received-values matrix (what each receiver claims every sender
    sent it), read per sender as the plain list of the values its receivers
    report and a count of those that heard nothing. A sender that a
    majority reports silent is left out of the vote. The others are flagged
    for equivocation (no majority-coherent story about what they sent) or
    for a majority-agreed value outside tolerance. A single Byzantine
    lane needs at least four lanes to be identified uniquely: with three,
    its asymmetric values and lying relays leave no healthy majority and
    the outcome is ambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .model import TimingConfig


class FaultKind(Enum):
    TRANSIENT = "transient"
    PERMANENT = "permanent"
    BYZANTINE = "byzantine"


class TargetKind(Enum):
    LANE = "lane"
    PROCESSOR = "processor"
    TASK = "task"
    SENSOR = "sensor"


# The coordinates each kind of scope names; a FaultTarget sets exactly these.
TARGET_FIELDS = {
    TargetKind.LANE: ("lane",),
    TargetKind.PROCESSOR: ("lane", "proc"),
    TargetKind.TASK: ("lane", "proc", "app", "task"),
    TargetKind.SENSOR: ("app", "lane"),
}

# The kind of a shutdown scope, by the length of its key.
SCOPE_KINDS = {1: TargetKind.LANE, 2: TargetKind.PROCESSOR, 4: TargetKind.TASK}


@dataclass(slots=True, unsafe_hash=True)
class FaultTarget:
    """What a fault strikes.

    A lane contains its processors and a processor the task copies it
    runs; a sensor channel (app, lane) is a scope of its own. Only the
    coordinates of ``TARGET_FIELDS[kind]`` are set, so two targets that
    name one scope are equal and hash alike, and so are their keys.
    """

    kind: TargetKind
    lane: int | None = None
    proc: int | None = None
    app: int | None = None
    task: int | None = None
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = tuple(getattr(self, name) for name in TARGET_FIELDS[self.kind])
        coords = (self.lane, self.proc, self.app, self.task)
        if None in key or len(key) != len(coords) - coords.count(None):
            raise ValueError(f"a {self.kind.value} target sets exactly "
                             f"{', '.join(TARGET_FIELDS[self.kind])}")
        # a sensor key starts with its kind, not a lane: no key prefixes it
        # and it prefixes no other
        if self.kind is TargetKind.SENSOR:
            key = (self.kind, *key)
        self.key = key


@dataclass(slots=True, unsafe_hash=True)
class FaultSpec:
    fault_id: int
    at_us: int
    kind: FaultKind
    target: FaultTarget
    duration_us: int | None = None   # transient only
    value_skew: float = 0.0          # byzantine / sensor value corruption
    per_receiver: bool = False       # byzantine: different value per receiver
    bit_detectable: bool = True

    def active_at(self, t_us: int) -> bool:
        clears = self.clears_at_us
        return self.at_us <= t_us and (clears is None or t_us < clears)

    @property
    def clears_at_us(self) -> int | None:
        if self.kind is FaultKind.TRANSIENT and self.duration_us is not None:
            return self.at_us + self.duration_us
        return None


class Consensus(Enum):
    MEDIAN_OF_OTHERS = "median_of_others"
    MEAN_OF_OTHERS = "mean_of_others"


@dataclass(frozen=True)
class VoterConfig:
    tolerance: float = 0.5
    consensus: Consensus = Consensus.MEDIAN_OF_OTHERS


class InsufficientLanes(Exception):
    """Cross-monitoring needs at least two values to compare."""


@dataclass(frozen=True)
class VoteOutcome:
    flagged: frozenset
    ambiguous: bool = False


_QUIET = VoteOutcome(frozenset())     # what every quiet vote returns


def median(values: list) -> float:
    """The median of a non-empty list, as ``statistics.median`` takes it:
    the middle value, or the mean of the middle two. Sorts the list."""
    values.sort()
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def _consensus_value(values: list, cfg: VoterConfig) -> float:
    if cfg.consensus is Consensus.MEAN_OF_OTHERS:
        # the exact mean lies in [min, max]; the float one need not:
        # (0.1 + 0.1 + 0.1) / 3 > 0.1
        return min(max(sum(values) / len(values), min(values)), max(values))
    return median(values)


def _largest_clique(values: list, tol: float) -> list:
    """Largest pairwise-agreeing sublist of the values, in their order;
    deterministic on ties (first anchor)."""
    best = []
    for anchor in values:
        clique = [v for v in values if abs(v - anchor) <= tol]
        # pairwise coherence, not just anchor distance
        if max(clique) - min(clique) <= tol and len(clique) > len(best):
            best = clique
    return best


def cross_monitor(values: Mapping, cfg: VoterConfig) -> VoteOutcome:
    """Flag the places whose value deviates from the agreeing majority of
    the rest. ``values`` maps each emitting place to its value."""
    if len(values) < 2:
        raise InsufficientLanes(f"need at least 2 lane values, got {len(values)}")
    items = sorted(values.items())
    tol = cfg.tolerance

    if len(items) == 2:
        (a, va), (b, vb) = items
        if abs(va - vb) <= tol:
            return _QUIET
        return VoteOutcome(frozenset({a, b}), ambiguous=True)

    vals = [v for _, v in items]
    # In a quiet round every pair agrees, so the search's first anchor
    # already takes every item (float subtraction is monotone) and no later
    # anchor takes more: the clique is all of them. The argument needs
    # finite values; a NaN or an infinity makes the sum not finite. The
    # consensus, median or mean, then lies between the extremes, so no
    # value is further from it than the spread, and none is flagged.
    if max(vals) - min(vals) <= tol and math.isfinite(sum(vals)):
        return _QUIET
    clique = _largest_clique(vals, tol)
    if 2 * len(clique) <= len(items):
        return VoteOutcome(frozenset(k for k, _ in items), ambiguous=True)
    consensus = _consensus_value(clique, cfg)
    flagged = frozenset(k for k, v in items if abs(v - consensus) > tol)
    return VoteOutcome(flagged)


_EQUIVOCAL = object()


def exchange_vote(received: Mapping, cfg: VoterConfig) -> VoteOutcome:
    """Vote over the full received-values matrix.

    ``received[r][s]`` is the value receiver r claims sender s delivered
    (None for nothing received). Receivers are the participants still
    executing; senders may include silent ones. A sender a majority of
    reports find silent is left out of the vote, neither flagged nor
    counted: the caller implicates its silent copies itself. Value
    disagreements fall back to majority rule and come back ambiguous when
    the coherent lanes cannot out-vote the flagged ones.

    Each sender's reports, what the other receivers claim of it, are read
    as the list of the values in receiver order and the count of silences.
    A majority of silences leaves it out, a majority value clique
    establishes its median, and anything else leaves it equivocal. The two
    cannot both be majorities, so silence winning a tie with the clique
    never shows: a tie leaves neither one.
    """
    receivers = sorted(received)
    senders = sorted({s for claims in received.values() for s in claims})
    if len(senders) < 2:
        raise InsufficientLanes(f"need at least 2 participants, got {len(senders)}")
    tol = cfg.tolerance

    heard: dict = {}        # sender -> the values reported, in receiver order
    hushed: dict = {}       # sender -> how many receivers heard nothing
    for r in receivers:
        for s, v in received[r].items():
            if s == r:
                continue
            if v is None:
                hushed[s] = hushed.get(s, 0) + 1
            else:
                heard.setdefault(s, []).append(v)

    established: dict = {}
    for s in senders:
        values = heard.get(s)
        quiet = hushed.get(s, 0)
        reports = quiet + (len(values) if values else 0)
        if not reports:
            # s is the only receiver left; its own claim is all there is.
            established[s] = received[s][s] if s in received and s in received[s] else _EQUIVOCAL
        elif 2 * quiet > reports:
            continue        # silent: out of the vote
        elif values and 2 * len(clique := _largest_clique(values, tol)) > reports:
            established[s] = median(clique)
        else:
            established[s] = _EQUIVOCAL

    numeric = {s: e for s, e in established.items() if e is not _EQUIVOCAL}

    if not numeric:
        return VoteOutcome(frozenset(established), ambiguous=bool(established))

    if len(established) == 2 and len(numeric) == 2:
        a, b = numeric.values()
        if abs(a - b) > tol:
            return VoteOutcome(frozenset(established), ambiguous=True)

    consensus = median(list(numeric.values()))
    flagged = frozenset(s for s, e in established.items()
                        if e is _EQUIVOCAL or abs(e - consensus) > tol)
    if flagged and len(established) - len(flagged) <= len(flagged):
        return VoteOutcome(flagged, ambiguous=True)
    return VoteOutcome(flagged)


def bit_visible(fault: FaultSpec) -> bool:
    """Can built-in test ever see the fault: a bit-detectable, not Byzantine
    fault on a processor or a task copy?

    A lane fault takes the monitor down with everything else, and Byzantine
    behaviour passes every local check.
    """
    return (fault.bit_detectable and fault.kind is not FaultKind.BYZANTINE
            and fault.target.kind in (TargetKind.PROCESSOR, TargetKind.TASK))


def bit_detects(fault: FaultSpec, place: tuple,
                hosted_tasks, now_us: int) -> bool:
    """Would the built-in test of the processor at ``place`` (lane, proc)
    catch the fault right now?

    BIT sees a :func:`bit_visible` fault that is active and whose target key
    is ``place`` or ``place`` plus an (app, task) in ``hosted_tasks``.
    """
    if not bit_visible(fault):
        return False
    if not fault.active_at(now_us):
        return False
    key = fault.target.key
    return key[:2] == place and (len(key) == 2 or key[2:] in hosted_tasks)


def classify(implicated, hosted, hosting) -> list[tuple]:
    """Fold implicated copies into the keys of lane, processor or task
    shutdown scopes: ``(lane,)``, ``(lane, proc)`` or ``(lane, proc, app,
    task)``.

    ``implicated`` is a set of (lane, proc, app, task) copies that deviated
    or fell silent this round. ``hosted`` maps the (lane, proc) of each
    implicated copy to the set of (app, task) copies that processor hosts
    now, and ``hosting`` maps each implicated copy's lane to the number of
    its processors that host any copy. A lane scope needs every hosting
    processor of the lane implicated in full, and at least two of them
    (voting cannot implicate an empty spare, and single-processor evidence
    only supports a processor scope). A processor scope needs all of its
    hosted copies implicated; anything less is per-task. Lane scopes come
    first, then processor scopes, then task scopes, each in coordinate
    order.
    """
    by_proc: dict = {}
    for copy in implicated:
        tasks = by_proc.get(copy[:2])
        if tasks is None:
            by_proc[copy[:2]] = {copy[2:]}
        else:
            tasks.add(copy[2:])

    full = set()            # the processors implicated in full
    per_lane: dict = {}     # lane -> how many of its processors those are
    for place, tasks in by_proc.items():
        held = hosted[place]
        if held and tasks >= held:
            full.add(place)
            per_lane[place[0]] = per_lane.get(place[0], 0) + 1
    # a processor implicated in full hosts a copy, so the lane's count of
    # them reaches its count of hosting processors only when it covers them
    lanes = {lane for lane, n in per_lane.items() if 2 <= n == hosting[lane]}
    scopes = [(lane,) for lane in sorted(lanes)]
    scopes += sorted(place for place in full if place[0] not in lanes)
    scopes += sorted(copy for copy in implicated
                     if copy[0] not in lanes and copy[:2] not in full)
    return scopes


def police_matches(value: float, consensus: float, cfg: TimingConfig) -> bool:
    """Is a policed copy's output within tolerance of the active consensus?"""
    return abs(value - consensus) <= cfg.tolerance
