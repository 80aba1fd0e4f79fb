"""System model: lanes, processors, applications, tasks, and document validation.

A system is a set of identical computing lanes. Each lane holds the same
processors, and every application is replicated once per lane with an
identical initial allocation, so the healthy system is an N-modular
redundant arrangement (N = lane count, 2..4). Spare processors start empty
and exist to receive recovered task copies.

``build_system`` turns a plain scenario ``system`` dictionary into a
validated :class:`SystemModel`. Structural problems (missing keys, wrong
types, numbers that are not finite or pass float range, unknown enum
strings) raise :class:`MalformedDocument`; semantic
problems are collected and raised together as :class:`InvalidModel` so a
caller sees the full list of violations at once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .timebase import frac, ms_to_us

_FLOAT_MAX = sys.float_info.max


class Architecture(Enum):
    FEDERATED_QUADRUPLEX = "federated_quadruplex"
    RESTRICTED_INTEGRATED = "restricted_integrated"
    FULLY_INTEGRATED = "fully_integrated"


class ProcessorRole(Enum):
    ALLOCATED = "allocated"
    SPARE = "spare"


class StateStrategy(Enum):
    TRANSFER = "transfer"
    CONVERGENCE = "convergence"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class MessageSpec:
    """A periodic message a task copy puts on the bus.

    Demand on the bus is size / period, in data units per millisecond.
    """

    msg_id: int
    size: Fraction
    period_us: int

    @property
    def demand(self) -> Fraction:
        # data units per millisecond
        return Fraction(self.size.numerator * 1000,
                        self.size.denominator * self.period_us)


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One task of an application; ``message_demand``, the bus demand of
    all its messages, is fixed when the spec is built."""

    task_id: int
    wcet_us: int
    period_us: int
    deadline_us: int
    initial_proc: int
    code_size: Fraction = Fraction(0)
    messages: tuple[MessageSpec, ...] = ()
    message_demand: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "message_demand", sum(
            (m.demand for m in self.messages), Fraction(0)))


@dataclass(frozen=True)
class StateModel:
    """How a recovered copy of an application obtains current state.

    transfer     snapshot_size data units are shipped over the bus; the new
                 copy then replays history_len historic samples in background
                 capacity before it can be policed.
    convergence  nothing is shipped; the copy's outputs drift into tolerance
                 over convergence_rounds voting rounds.
    hybrid       a minimum snapshot (min_state_size) is shipped, then the
                 copy converges as above.
    """

    strategy: StateStrategy = StateStrategy.TRANSFER
    snapshot_size: Fraction = Fraction(0)
    history_len: int = 0
    min_state_size: Fraction | None = None
    convergence_rounds: int = 0


@dataclass(frozen=True)
class ApplicationSpec:
    app_id: int
    criticality: int
    tasks: tuple[TaskSpec, ...]
    state_model: StateModel = StateModel()

    def task(self, task_id: int) -> TaskSpec:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(task_id)

    @property
    def shortest_period_us(self) -> int:
        return min(t.period_us for t in self.tasks)


@dataclass(frozen=True)
class ProcessorSpec:
    proc_id: int
    role: ProcessorRole = ProcessorRole.ALLOCATED


@dataclass(frozen=True)
class LaneSpec:
    lane_id: int
    processors: tuple[ProcessorSpec, ...]

    def processor(self, proc_id: int) -> ProcessorSpec:
        for p in self.processors:
            if p.proc_id == proc_id:
                return p
        raise KeyError(proc_id)


@dataclass(frozen=True)
class BusSpec:
    """Shared transfer medium; max_load in data units per millisecond."""

    max_load: Fraction


@dataclass(frozen=True)
class TimingConfig:
    utilization_bound: Fraction = Fraction(69, 100)
    customer_cap_mode: bool = False
    police_rounds: int = 3
    tolerance: float = 0.5

    @property
    def effective_bound(self) -> Fraction:
        # The contractual customer cap overrides the engineering bound.
        return Fraction(1, 2) if self.customer_cap_mode else self.utilization_bound


@dataclass(frozen=True)
class SystemModel:
    architecture: Architecture
    lanes: tuple[LaneSpec, ...]
    bus: BusSpec
    applications: tuple[ApplicationSpec, ...]
    timing: TimingConfig

    @property
    def lane_ids(self) -> tuple[int, ...]:
        return tuple(l.lane_id for l in self.lanes)

    def application(self, app_id: int) -> ApplicationSpec:
        for a in self.applications:
            if a.app_id == app_id:
                return a
        raise KeyError(app_id)

    def spare_positions(self) -> list[tuple[int, int]]:
        return [
            (l.lane_id, p.proc_id)
            for l in self.lanes
            for p in l.processors
            if p.role is ProcessorRole.SPARE
        ]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


class MalformedDocument(Exception):
    """The document's shape is wrong; no model can be built from it."""


class InvalidModel(Exception):
    """The document parsed but breaks one or more model invariants."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


# -- parsing helpers ---------------------------------------------------------

_REQUIRED = object()
_NUMBERS = frozenset({int, float})


def _field(doc: dict, key: str, kinds, where: str, default=_REQUIRED):
    """doc[key], which must be one of the kinds; an absent or null field
    gives the default, and with no default it is required. A bool is no
    number, nor is a number or a string such as "false" a bool. A number
    must be finite and inside float range: JSON reads NaN and Infinity as
    floats, an int can pass the largest float, and NaN fails every
    comparison."""
    if default is _REQUIRED:
        if not isinstance(doc, dict) or key not in doc:
            raise MalformedDocument(f"{where}: missing required field '{key}'")
        value = doc[key]
    else:
        value = doc.get(key)
        if value is None:
            return default
    if not isinstance(value, kinds) or value.__class__ is bool and kinds is not bool:
        raise MalformedDocument(f"{where}: field '{key}' has the wrong type")
    if value.__class__ in _NUMBERS and not abs(value) <= _FLOAT_MAX:
        raise MalformedDocument(f"{where}: field '{key}' must be finite")
    return value


def _number(doc: dict, key: str, where: str, default=_REQUIRED):
    """A JSON number; required unless a default is given."""
    return _field(doc, key, (int, float), where, default)


def _enum(cls, text, where: str):
    try:
        return cls(text)
    except ValueError:
        names = ", ".join(e.value for e in cls)
        raise MalformedDocument(f"{where}: expected one of [{names}], got {text!r}") from None


def _duration_us(doc, key, where, default=None) -> int:
    if default is not None and key not in doc:
        return default
    return ms_to_us(_number(doc, key, where))


# -- document -> model -------------------------------------------------------

def _parse_message(doc: dict, task_period_us: int, where: str) -> MessageSpec:
    return MessageSpec(
        msg_id=_field(doc, "msg_id", int, where),
        size=frac(_number(doc, "size", where)),
        period_us=_duration_us(doc, "period_ms", where, default=task_period_us),
    )


def _parse_task(doc: dict, lane_count: int, where: str):
    period = _duration_us(doc, "period_ms", where)
    task = dict(
        task_id=_field(doc, "task_id", int, where),
        wcet_us=_duration_us(doc, "wcet_ms", where),
        period_us=period,
        deadline_us=_duration_us(doc, "deadline_ms", where, default=period),
        code_size=frac(_number(doc, "code_size", where, 0)),
    )
    raw_proc = _field(doc, "initial_proc", (int, list), where)
    if isinstance(raw_proc, list):
        if len(raw_proc) != lane_count or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in raw_proc
        ):
            raise MalformedDocument(f"{where}: per-lane initial_proc must list one int per lane")
        procs = tuple(raw_proc)
    else:
        procs = (raw_proc,) * lane_count
    msgs = _field(doc, "messages", list, where, [])
    task["messages"] = tuple(
        _parse_message(m, period, f"{where}.messages[{i}]") for i, m in enumerate(msgs)
    )
    return task, procs


def _parse_state_model(doc: dict, where: str) -> StateModel:
    min_state = _number(doc, "min_state_size", where, None)
    return StateModel(
        strategy=_enum(StateStrategy, _field(doc, "strategy", str, where, "transfer"), where),
        snapshot_size=frac(_number(doc, "snapshot_size", where, 0)),
        history_len=_field(doc, "history_len", int, where, 0),
        min_state_size=frac(min_state) if min_state is not None else None,
        convergence_rounds=_field(doc, "convergence_rounds", int, where, 0),
    )


def _parse_timing(doc: dict) -> TimingConfig:
    where = "system.timing"
    return TimingConfig(
        utilization_bound=frac(_number(doc, "utilization_bound", where, 0.69)),
        customer_cap_mode=_field(doc, "customer_cap_mode", bool, where, False),
        police_rounds=_field(doc, "police_rounds", int, where, 3),
        tolerance=float(_number(doc, "tolerance", where, 0.5)),
    )


def build_system(doc: dict) -> SystemModel:
    """Validate a ``system`` document section and build the model.

    Raises MalformedDocument for shape errors, InvalidModel (carrying the
    full violation list) for semantic ones.
    """
    if not isinstance(doc, dict):
        raise MalformedDocument("system section must be an object")

    arch = _enum(Architecture, _field(doc, "architecture", str, "system"), "system.architecture")
    lanes_doc = _field(doc, "lanes", list, "system")
    bus_doc = _field(doc, "bus", dict, "system", {"max_load": 1000})
    apps_doc = _field(doc, "applications", list, "system", [])
    timing = _parse_timing(_field(doc, "timing", dict, "system", {}))
    bus = BusSpec(max_load=frac(_number(bus_doc, "max_load", "system.bus")))

    violations: list[Violation] = []
    bad = violations.append

    lanes = []
    for i, ld in enumerate(lanes_doc):
        where = f"system.lanes[{i}]"
        lane_id = _field(ld, "lane_id", int, where)
        procs = []
        for j, pd in enumerate(_field(ld, "processors", list, where)):
            pw = f"{where}.processors[{j}]"
            procs.append(ProcessorSpec(
                proc_id=_field(pd, "proc_id", int, pw),
                role=_enum(ProcessorRole, _field(pd, "role", str, pw, "allocated"), pw),
            ))
        lanes.append(LaneSpec(lane_id=lane_id, processors=tuple(procs)))

    if not 2 <= len(lanes) <= 4:
        bad(Violation("MalformedDocument", f"lane count must be 2..4, got {len(lanes)}"))

    lane_ids = [l.lane_id for l in lanes]
    if len(set(lane_ids)) != len(lane_ids):
        bad(Violation("DuplicateId", "duplicate lane ids"))
    for l in lanes:
        ids = [p.proc_id for p in l.processors]
        if len(set(ids)) != len(ids):
            bad(Violation("DuplicateId", f"duplicate processor ids in lane {l.lane_id}"))

    # Lanes must be identical computing elements: same processor ids and roles.
    if lanes:
        ref = {p.proc_id: p.role for p in lanes[0].processors}
        for l in lanes[1:]:
            if {p.proc_id: p.role for p in l.processors} != ref:
                bad(Violation(
                    "AsymmetricLanes",
                    f"lane {l.lane_id} does not mirror lane {lanes[0].lane_id}'s processors",
                ))

    # each lane's processor roles by id, first listed wins, as in LaneSpec.processor
    lane_roles = [(l.lane_id, {p.proc_id: p.role for p in reversed(l.processors)})
                  for l in lanes]
    apps = []
    app_ids = set()
    for i, ad in enumerate(apps_doc):
        where = f"system.applications[{i}]"
        app_id = _field(ad, "app_id", int, where)
        if app_id in app_ids:
            bad(Violation("DuplicateId", f"duplicate application id {app_id}"))
        app_ids.add(app_id)
        tasks = []
        task_ids = set()
        task_docs = _field(ad, "tasks", list, where)
        for j, td in enumerate(task_docs):
            tw = f"{where}.tasks[{j}]"
            fields, procs = _parse_task(td, max(len(lanes), 1), tw)
            if fields["task_id"] in task_ids:
                bad(Violation("DuplicateId",
                              f"duplicate task id {fields['task_id']} in app {app_id}"))
            task_ids.add(fields["task_id"])
            msgs = fields["messages"]
            if len({m.msg_id for m in msgs}) != len(msgs):
                bad(Violation("DuplicateId", f"duplicate message ids in {tw}"))
            if not 0 < fields["wcet_us"] <= fields["deadline_us"] <= fields["period_us"]:
                bad(Violation("MalformedDocument",
                              f"{tw}: need 0 < wcet <= deadline <= period"))
            if fields["code_size"] < 0:
                bad(Violation("MalformedDocument", f"{tw}: negative code_size"))
            if len(set(procs)) > 1:
                bad(Violation("AsymmetricLanes",
                              f"{tw}: initial_proc differs between lanes {procs}"))
            proc_id = procs[0]
            for lane_id, roles in lane_roles:
                role = roles.get(proc_id)
                if role is None:
                    bad(Violation("MalformedDocument",
                                  f"{tw}: initial_proc {proc_id} not in lane {lane_id}"))
                elif role is ProcessorRole.SPARE:
                    bad(Violation("SpareHasTasks",
                                  f"app {app_id} task {fields['task_id']} allocated to spare "
                                  f"processor {proc_id} (lane {lane_id})"))
            if any(m.period_us <= 0 for m in msgs):
                # a message's bus demand divides by its period
                bad(Violation("MalformedDocument", f"{tw}: message period must be positive"))
                continue
            tasks.append(TaskSpec(initial_proc=proc_id, **fields))
        if not task_docs:
            bad(Violation("MalformedDocument", f"app {app_id} has no tasks"))
        sm = _parse_state_model(_field(ad, "state_model", dict, where, {}), f"{where}.state_model")
        if sm.strategy is StateStrategy.CONVERGENCE and sm.snapshot_size != 0:
            bad(Violation("MalformedDocument",
                          f"app {app_id}: convergence strategy ships no snapshot"))
        if sm.strategy is StateStrategy.HYBRID and (
            sm.min_state_size is None or not 0 < sm.min_state_size <= sm.snapshot_size
        ):
            bad(Violation("MalformedDocument",
                          f"app {app_id}: hybrid strategy needs 0 < min_state_size <= snapshot_size"))
        if sm.history_len < 0 or sm.convergence_rounds < 0 or sm.snapshot_size < 0:
            bad(Violation("MalformedDocument", f"app {app_id}: negative state-model value"))
        apps.append(ApplicationSpec(
            app_id=app_id,
            criticality=_field(ad, "criticality", int, where, i),
            tasks=tuple(tasks),
            state_model=sm,
        ))

    if not 0 < timing.effective_bound <= 1:
        bad(Violation("MalformedDocument", "utilization bound must be in (0, 1]"))
    if timing.police_rounds < 1:
        bad(Violation("MalformedDocument", "police_rounds must be at least 1"))
    if timing.tolerance <= 0:
        bad(Violation("MalformedDocument", "tolerance must be positive"))
    if bus.max_load <= 0:
        bad(Violation("MalformedDocument", "bus max_load must be positive"))

    violations.extend(_architecture_violations(arch, lanes, apps))

    if violations:
        raise InvalidModel(violations)
    return SystemModel(architecture=arch, lanes=tuple(lanes), bus=bus,
                       applications=tuple(apps), timing=timing)


def _architecture_violations(arch, lanes, apps) -> list[Violation]:
    out = []
    spares = [
        (l.lane_id, p.proc_id) for l in lanes for p in l.processors
        if p.role is ProcessorRole.SPARE
    ]
    if arch is Architecture.FEDERATED_QUADRUPLEX:
        if len(apps) != 1 or (apps and len(apps[0].tasks) != 1):
            out.append(Violation("ArchitectureMismatch",
                                 "federated lane set carries exactly one single-task application"))
        if spares:
            out.append(Violation("ArchitectureMismatch",
                                 "federated lanes model no reconfigurable spares"))
    elif arch is Architecture.RESTRICTED_INTEGRATED:
        used = {}
        for a in apps:
            procs = {t.initial_proc for t in a.tasks}
            if len(procs) > 1:
                out.append(Violation(
                    "ArchitectureMismatch",
                    f"app {a.app_id} spans processors {sorted(procs)}; restricted allocation "
                    f"is one processor per application per lane"))
            for p in procs:
                if p in used:
                    out.append(Violation(
                        "ArchitectureMismatch",
                        f"processor {p} hosts apps {used[p]} and {a.app_id}; restricted "
                        f"granularity is a single application per processor"))
                used[p] = a.app_id
        for l in lanes:
            if not any(p.role is ProcessorRole.SPARE for p in l.processors):
                out.append(Violation("ArchitectureMismatch",
                                     f"lane {l.lane_id} has no spare processor"))
    return out


def initial_allocation(model: SystemModel) -> dict[tuple[int, int, int], tuple[int, int]]:
    """Map every (app_id, task_id, lane_id) copy to its (lane, processor) home.

    One copy of every task per lane, mirrored across lanes; spares are empty.
    """
    placing = {}
    for app in model.applications:
        for task in app.tasks:
            for lane in model.lanes:
                placing[(app.app_id, task.task_id, lane.lane_id)] = (lane.lane_id, task.initial_proc)
    return placing
