"""Fault model, cross-monitoring voters, and detection classification.

Fault targets and shutdown scopes are one type, :class:`FaultTarget`: a
lane, a processor, a task copy or a sensor channel. A scope is its
coordinate prefix ``key``: ``(lane,)``, ``(lane, proc)`` or ``(lane, proc,
app, task)``; a sensor channel's key prefixes no other. Scopes nest as
keys do: a fault or shutdown covers an element when its key prefixes the
element's. The engine answers that question by key prefix: it looks the
prefixes of a key up in its index of active faults by target key, and
reads a scope's copies from its index of copies by (lane, proc).
``classify`` turns vote evidence into the ``FaultTarget``s to shut down.

Detection has two mechanisms. Built-in test (BIT) is local health
monitoring: it catches permanent and transient hardware faults on the
processor it runs on, and is structurally blind to Byzantine behaviour. The
cross-monitor compares replicated output values across lanes every voting
round; silence and wrong values both show up there.

Two voters are provided. Both return a :class:`VoteOutcome`: the lanes
flagged, whether the verdict is ambiguous, and the lanes established as
silent, which only ``exchange_vote`` can find.

``cross_monitor``
    One value per lane. A lane is flagged when its value sits more than the
    tolerance away from the consensus of the agreeing majority among the
    other lanes (median or mean per config). The mean is taken within the
    range of the values it averages, where the exact mean always lies.
    Two lanes that disagree cannot out-vote each other, and three-plus
    mutually divergent values have no majority; both cases come back
    ambiguous rather than flagged.

``exchange_vote``
    The full received-values matrix (what each receiver claims every sender
    sent it). Senders are flagged for equivocation (no majority-coherent
    story about what they sent) or for a majority-agreed value outside
    tolerance. A single Byzantine lane needs at least four lanes to be
    identified uniquely: with three, its asymmetric values and lying relays
    leave no healthy majority and the outcome is ambiguous.
"""

from __future__ import annotations

import math
import statistics
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

@dataclass(slots=True, unsafe_hash=True)
class FaultTarget:
    """A scope: what a fault strikes, and what a shutdown removes.

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
    silent: frozenset = frozenset()     # exchange_vote's silent senders


_QUIET = VoteOutcome(frozenset())     # what every quiet vote returns


def _consensus_value(values: list, cfg: VoterConfig) -> float:
    if cfg.consensus is Consensus.MEAN_OF_OTHERS:
        # the exact mean lies in [min, max]; the float one need not:
        # (0.1 + 0.1 + 0.1) / 3 > 0.1
        return min(max(sum(values) / len(values), min(values)), max(values))
    return statistics.median(values)


def _largest_clique(items: list, tol: float):
    """Largest pairwise-agreeing subset; deterministic on ties (first anchor).

    items: list of (key, value) with comparable float values.
    """
    best = []
    for _, anchor in items:
        clique = [(k, v) for k, v in items if abs(v - anchor) <= tol]
        # pairwise coherence, not just anchor distance
        vals = [v for _, v in clique]
        if max(vals) - min(vals) <= tol and len(clique) > len(best):
            best = clique
    return best


def cross_monitor(values: Mapping[int, float], cfg: VoterConfig) -> VoteOutcome:
    """Flag lanes whose value deviates from the agreeing majority of the rest."""
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
    clique = _largest_clique(items, tol)
    if 2 * len(clique) <= len(items):
        return VoteOutcome(frozenset(k for k, _ in items), ambiguous=True)
    consensus = _consensus_value([v for _, v in clique], cfg)
    flagged = frozenset(k for k, v in items if abs(v - consensus) > tol)
    return VoteOutcome(flagged)


_EQUIVOCAL = object()
_SILENT = object()


def exchange_vote(received: Mapping, cfg: VoterConfig) -> VoteOutcome:
    """Vote over the full received-values matrix.

    ``received[r][s]`` is the value receiver r claims sender s delivered
    (None for nothing received). Receivers are the participants still
    executing; senders may include silent ones. Silence established by a
    majority of reports is a confident implication on its own; value
    disagreements fall back to majority rule and come back ambiguous when
    the coherent lanes cannot out-vote the flagged ones.
    """
    receivers = sorted(received)
    senders = sorted({s for r in receivers for s in received[r]})
    if len(senders) < 2:
        raise InsufficientLanes(f"need at least 2 participants, got {len(senders)}")
    tol = cfg.tolerance

    established: dict = {}
    for s in senders:
        reports = [(r, received[r][s]) for r in receivers if r != s and s in received[r]]
        if not reports:
            # s is the only receiver left; its own claim is all there is.
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
        return VoteOutcome(frozenset(present), ambiguous=bool(present),
                           silent=silent)

    if len(present) == 2 and len(numeric) == 2:
        a, b = numeric
        if abs(numeric[a] - numeric[b]) > tol:
            return VoteOutcome(frozenset(present), ambiguous=True, silent=silent)

    consensus = statistics.median(numeric.values())
    flagged = {s for s in present
               if established[s] is _EQUIVOCAL or abs(numeric[s] - consensus) > tol}
    unflagged = [s for s in present if s not in flagged]
    if flagged and len(unflagged) <= len(flagged):
        return VoteOutcome(frozenset(flagged), ambiguous=True, silent=silent)
    return VoteOutcome(frozenset(flagged), silent=silent)


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


def classify(implicated, hosted) -> list[FaultTarget]:
    """Fold implicated copies into lane, processor or task shutdown scopes.

    ``implicated`` is a set of (lane, proc, app, task) copies that deviated
    or fell silent this round; ``hosted`` maps (lane, proc) to the set of
    (app, task) copies the processor currently hosts. Only the places in
    the implicated copies' lanes are read, so a map of those is enough. A
    lane scope needs every hosting processor of the lane implicated in
    full, and at least two of them (voting cannot implicate an empty spare,
    and single-processor evidence only supports a processor scope). A
    processor scope needs all of its hosted copies implicated; anything
    less is per-task. Lane scopes come first, then processor scopes, then
    task scopes, each in coordinate order.
    """
    by_proc: dict = {}
    for (lane, proc, app, task) in implicated:
        by_proc.setdefault((lane, proc), set()).add((app, task))

    lane_scopes: list[FaultTarget] = []
    proc_scopes: list[FaultTarget] = []
    task_scopes: list[FaultTarget] = []
    consumed = set()

    full_procs = {
        key for key, tasks in by_proc.items()
        if hosted.get(key) and tasks >= hosted[key]
    }
    lanes = {lane for lane, _ in by_proc}
    for lane in sorted(lanes):
        hosting = {key for key in hosted if key[0] == lane and hosted[key]}
        lane_full = {key for key in full_procs if key[0] == lane}
        if hosting and lane_full >= hosting and len(lane_full) >= 2:
            lane_scopes.append(FaultTarget(TargetKind.LANE, lane=lane))
            consumed.update(key for key in by_proc if key[0] == lane)

    for key in sorted(by_proc):
        if key in consumed:
            continue
        lane, proc = key
        if key in full_procs:
            proc_scopes.append(FaultTarget(TargetKind.PROCESSOR, lane=lane, proc=proc))
        else:
            for app, task in sorted(by_proc[key]):
                task_scopes.append(FaultTarget(
                    TargetKind.TASK, lane=lane, proc=proc, app=app, task=task))
    return lane_scopes + proc_scopes + task_scopes


def police_matches(value: float, consensus: float, cfg: TimingConfig) -> bool:
    """Is a policed copy's output within tolerance of the active consensus?"""
    return abs(value - consensus) <= cfg.tolerance
