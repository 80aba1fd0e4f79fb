"""Reconfiguration domain: replica groups, spare selection, recovery records.

A recovery episode runs through a fixed phase order. The timestamps only
promise ordering, never spacing:

    t_f  failure detected                (cross-monitor or BIT)
    t_r  replacement selected            (selection itself is instantaneous)
    t_i  installation commences          (code image queued on the bus)
    t_s  state transfer commences        (= installation complete)
    t_e  new copy eligible to execute    (= state transfer complete)
    t_a  copy readmitted to voting       (after policed execution, and the
                                          pilot gate for restabilized parts)

Spare selection prefers the failed copy's own lane, then other lanes;
within a tier candidates are ranked by lowest resulting utilization with
ties broken by (lane id, proc id). Every placement must pass both the
processor admission test and the bus comms test at the moment of
selection. A spare never takes a second copy of a task it already holds,
and in the restricted architecture a spare accepts at most one
application. When nothing fits the task degrades: the application simply
continues one level weaker.

The discrete-event engine (:mod:`lanesim.sim`) drives the episode through
these phases; this module holds the pure pieces it leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .model import StateStrategy, TaskSpec
from .timing import (AdmissionDecision, BusState, ProcessorState, admit_task,
                     check_comms)


class Health(Enum):
    ACTIVE = "active"
    POLICED = "policed"
    RESTABILIZING = "restabilizing"
    SHUTDOWN = "shutdown"


@dataclass(slots=True)
class Copy:
    """One replica of one task, living on (lane, proc)."""

    copy_id: int
    app_id: int
    task_id: int
    lane: int
    proc: int
    health: Health = Health.ACTIVE


@dataclass(slots=True)
class ReplicaGroup:
    """The copies in service of one application: task id -> its copies
    by copy id. A withdrawn copy leaves its task's list.

    Every task of the application has an entry, even one with no copy
    left, so the keys are its task universe.
    """

    app_id: int
    copies: dict[int, list[Copy]] = field(default_factory=dict)


class Outcome(Enum):
    READMITTED = "readmitted"
    DEGRADED_DUPLEX = "degraded_duplex"
    ABANDONED = "abandoned"


@dataclass
class ReconfigRecord:
    record_id: int
    app_id: int
    failed_copy_ids: tuple[int, ...]
    strategy: StateStrategy
    outcome: Outcome
    t_f_us: int | None = None
    t_r_us: int | None = None
    t_i_us: int | None = None
    t_s_us: int | None = None
    t_e_us: int | None = None
    t_a_us: int | None = None
    placements: dict = field(default_factory=dict)   # task_id -> (lane, proc)
    degraded_tasks: tuple[int, ...] = ()

    def timestamps(self) -> list[int]:
        stamps = [self.t_f_us, self.t_r_us, self.t_i_us,
                  self.t_s_us, self.t_e_us, self.t_a_us]
        return [s for s in stamps if s is not None]

    def ordering_ok(self) -> bool:
        stamps = self.timestamps()
        return all(a <= b for a, b in zip(stamps, stamps[1:]))


@dataclass
class FailedTask:
    app_id: int
    task_id: int
    task: TaskSpec
    home_lane: int


@dataclass
class PlacementDecision:
    task_id: int
    lane: int
    proc: int
    admission: AdmissionDecision
    comms: AdmissionDecision | None
    chosen: bool


@dataclass
class PlacementPlan:
    app_id: int
    placements: list = field(default_factory=list)   # (task_id, lane, proc)
    degraded: list = field(default_factory=list)     # task_ids with no home
    decisions: list = field(default_factory=list)    # every PlacementDecision tried
    bus: BusState | None = None                      # after the plan's reservations
    states: dict = field(default_factory=dict)       # (lane, proc) -> spare state after them


def recovery_rank(app) -> tuple:
    """An application's place in the recovery order: ascending criticality
    ordinal, then id."""
    return (app.criticality, app.app_id)


def recovery_order(apps) -> list[int]:
    """App ids, most critical first (by ``recovery_rank``)."""
    return [a.app_id for a in sorted(apps, key=recovery_rank)]


def select_spare(failed: list[FailedTask],
                 spares: dict[tuple[int, int], ProcessorState],
                 bus: BusState, cfg, restricted: bool) -> PlacementPlan:
    """Plan placements for one application's failed tasks, in the order
    given: an earlier task's reservation is what a later one sees.
    ``spares`` maps each spare's (lane, proc) to the ProcessorState it has
    admitted; a spare is occupied when that state is not empty.

    Mutates nothing: capacity is reserved under the (app, task) key in new
    spare states and a new bus, which the plan carries back to the caller.
    """
    if not failed:
        raise ValueError("nothing to place")
    plan = PlacementPlan(app_id=failed[0].app_id, bus=bus, states=dict(spares))
    states = plan.states

    for f in failed:
        ranked = _ranked_candidates(f, spares, states, restricted)
        placed = False
        for lane, proc in ranked:
            state = states[(lane, proc)]
            admission = admit_task(state, f.task, cfg)
            comms = None
            if admission.accepted:
                comms = check_comms(plan.bus, f.task.message_demand)
            chosen = admission.accepted and comms is not None and comms.accepted
            plan.decisions.append(PlacementDecision(
                f.task_id, lane, proc, admission, comms, chosen))
            if chosen:
                states[(lane, proc)] = state.with_task(
                    (f.app_id, f.task_id),
                    f.task.wcet_us, f.task.period_us, f.task.deadline_us)
                plan.bus = plan.bus.with_demand(f.task.message_demand)
                plan.placements.append((f.task_id, lane, proc))
                placed = True
                break
        if not placed:
            plan.degraded.append(f.task_id)
    return plan


def _ranked_candidates(f: FailedTask, spares: dict, states, restricted):
    def usable(state):
        # a spare never takes a second copy of a task it already runs; a
        # restricted one that another application claimed is taken. Both
        # read the spare as given: the plan's own reservations do not count,
        # since restriction is one application per processor.
        if (f.app_id, f.task_id) in state:
            return False
        return not (restricted and len(state) > 0)

    # by the resulting utilization: the task adds the same to each, so rank
    # by the utilization now, as integer numerators over one denominator
    places = [place for place, state in spares.items() if usable(state)]
    ratios = [states[place].utilization_ratio for place in places]
    common = math.lcm(*(den for _, den in ratios))
    keys = [(num * (common // den), *place)
            for (num, den), place in zip(ratios, places)]
    same = sorted(k for k in keys if k[1] == f.home_lane)
    other = sorted(k for k in keys if k[1] != f.home_lane)
    return [(lane, proc) for _, lane, proc in same + other]


class PoliceCounter:
    """Counts consecutive in-tolerance rounds; any deviation resets it."""

    def __init__(self, required: int):
        self.required = required
        self.count = 0

    def update(self, matched: bool) -> bool:
        self.count = self.count + 1 if matched else 0
        return self.count >= self.required
