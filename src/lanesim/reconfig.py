"""Reconfiguration domain: task copies, spare selection, recovery records.

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
these phases. Its run-time state lives in the types here: a ``Copy``,
named by its ``key`` (app, task) and its ``place`` (lane, proc), and the
``ReconfigRecord`` of its episode. Spare selection is pure; its plan's
placements are the decisions it chose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .model import StateStrategy, TaskSpec
from .timebase import lcm_sum
from .timing import (AdmissionDecision, BusState, ProcessorState, admit_task,
                     check_comms)


class Health(Enum):
    ACTIVE = "active"
    POLICED = "policed"
    RESTABILIZING = "restabilizing"
    SHUTDOWN = "shutdown"


# Read once, for the functions here, in coverage and in sim (see lanesim.sim).
_ACTIVE = Health.ACTIVE
_POLICED = Health.POLICED
_RESTABILIZING = Health.RESTABILIZING
_SHUTDOWN = Health.SHUTDOWN


@dataclass(eq=False, init=False, slots=True)
class Copy:
    """One replica of one task, named by its ``key`` (app, task) and its
    ``place`` (lane, proc), together with the engine's run-time state of it.

    Recovery records keep their lost and rebuilt copies through report
    writing, so a copy keeps its fields in slots. It names its episode by
    record id, so the two form no reference cycle. ``place + key`` is the
    key of its task scope. Set-up builds one copy per task per lane, so a
    copy is built through a positional ``__init__``: the dataclass's
    keyword one cost half of ``Engine.__init__``. Its phase starts where
    it is filed: at 0 by set-up, at its spawn if rebuilt. Its history
    replay is its background job, keyed by copy id (``Engine._replaying``).
    ``streak`` counts its consecutive in-tolerance police rounds; any
    deviation resets it.
    """

    copy_id: int
    health: Health
    spec: TaskSpec
    completed_ever: bool
    converge_left: int
    streak: int
    episode: int | None                             # its episode's record id
    # (app, task) and (lane, proc), given by the caller: the copies of a
    # task share one key tuple, and a copy never moves
    key: tuple
    place: tuple

    def __init__(self, copy_id: int, key: tuple, place: tuple, spec: TaskSpec):
        self.copy_id = copy_id
        self.key = key
        self.place = place
        self.health = _ACTIVE
        self.spec = spec
        self.completed_ever = False
        self.converge_left = 0
        self.streak = 0
        self.episode = None


class Outcome(Enum):
    READMITTED = "readmitted"
    DEGRADED_DUPLEX = "degraded_duplex"
    ABANDONED = "abandoned"


@dataclass
class ReconfigRecord:
    """One recovery: in flight while the engine runs it, then its record.

    ``outcome`` stays None until the episode closes. The engine's
    bookkeeping fields, from ``cause_ids`` on, take no part in comparison:
    two records are equal by what they report.
    """

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
    cause_ids: tuple = field(default=(), compare=False)
    uncleared: int = field(default=0, compare=False)    # restabilize: causes not cleared
    copies: list = field(default_factory=list, compare=False)   # Copy awaiting readmission
    lost: list = field(default_factory=list, compare=False)     # Copy withdrawn at t_f

    def timestamps(self) -> list[int]:
        stamps = [self.t_f_us, self.t_r_us, self.t_i_us,
                  self.t_s_us, self.t_e_us, self.t_a_us]
        return [s for s in stamps if s is not None]

    def ordering_ok(self) -> bool:
        stamps = self.timestamps()
        return all(a <= b for a, b in zip(stamps, stamps[1:]))


@dataclass(slots=True)
class PlacementDecision:
    """One spare tried for one task: its admission test and, once a spare
    admitted the task, the bus test. It is chosen when both accept, and
    then it is the task's placement in its plan."""

    task_id: int
    place: tuple                        # (lane, proc)
    admission: AdmissionDecision
    comms: AdmissionDecision | None


@dataclass
class PlacementPlan:
    placements: list = field(default_factory=list)   # the chosen decisions, in task order
    degraded: list = field(default_factory=list)     # task_ids with no home
    decisions: list = field(default_factory=list)    # every PlacementDecision tried
    bus: BusState | None = None                      # after the plan's reservations
    states: dict = field(default_factory=dict)       # (lane, proc) -> spare state after them


def recovery_rank(app) -> tuple:
    """An application's place in the recovery order: ascending criticality
    ordinal, then id."""
    return (app.criticality, app.app_id)


def select_spare(failed: list[Copy],
                 spares: dict[tuple[int, int], ProcessorState],
                 bus: BusState, cfg, restricted: bool) -> PlacementPlan:
    """Plan placements for one application's failed tasks, in the order
    given: an earlier task's reservation is what a later one sees.
    ``spares`` maps each spare's (lane, proc) to the ProcessorState it has
    admitted; a spare is occupied when that state is not empty. A task's
    message demand is read, and its bus test made, once: at its first
    spare that passes admission, as an integer pair. The first spare that
    passes both tests is chosen: its decision is the task's placement.

    Mutates nothing: capacity is reserved under the (app, task) key in new
    spare states and a new bus, which the plan carries back to the caller.
    """
    if not failed:
        raise ValueError("nothing to place")
    plan = PlacementPlan(bus=bus, states=dict(spares))
    states, decisions = plan.states, plan.decisions

    for f in failed:
        spec, task_id = f.spec, f.key[1]
        comms = None
        for place in _ranked_candidates(f, spares, states, restricted):
            state = states[place]
            admission = admit_task(state, spec, cfg)
            # the plan's bus moves only when a spare is chosen, which ends
            # the task's loop: its first bus test serves every later spare
            if admission.accepted and comms is None:
                # its messages' demand as one integer pair
                demand = lcm_sum([m.demand_ratio for m in spec.messages])
                comms = check_comms(plan.bus, demand)
            decision = PlacementDecision(
                task_id, place, admission,
                comms if admission.accepted else None)
            decisions.append(decision)
            if admission.accepted and comms.accepted:
                states[place] = state.with_task(
                    f.key, spec.wcet_us, spec.period_us, spec.deadline_us)
                plan.bus = plan.bus.with_demand(demand)
                plan.placements.append(decision)
                break
        else:
            plan.degraded.append(task_id)
    return plan


def _ranked_candidates(f: Copy, spares: dict, states, restricted):
    def usable(state):
        # a spare never takes a second copy of a task it already runs; a
        # restricted one that another application claimed is taken. Both
        # read the spare as given: the plan's own reservations do not count,
        # since restriction is one application per processor.
        if f.key in state:
            return False
        return not (restricted and len(state) > 0)

    # by the resulting utilization: the task adds the same to each, so rank
    # by the utilization now, as integer numerators over one denominator
    places = [place for place, state in spares.items() if usable(state)]
    ratios = [states[place].utilization_ratio for place in places]
    common = math.lcm(*(den for _, den in ratios))
    home = f.place[0]
    keys = sorted((place[0] != home, num * (common // den), place)
                  for (num, den), place in zip(ratios, places))
    return [place for _, _, place in keys]
