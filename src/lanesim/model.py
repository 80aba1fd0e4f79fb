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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .timebase import frac, ms_to_us, ratio_sum

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


@dataclass(frozen=True, slots=True)
class MessageSpec:
    """A periodic message a task copy puts on the bus.

    Demand on the bus is size / period, in data units per millisecond.
    """

    msg_id: int
    size: Fraction
    period_us: int

    @property
    def demand_ratio(self) -> tuple[int, int]:
        """The demand as an integer (numerator, denominator) pair."""
        return (self.size.numerator * 1000,
                self.size.denominator * self.period_us)


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One task of an application."""

    task_id: int
    wcet_us: int
    period_us: int
    deadline_us: int
    initial_proc: int
    code_size: Fraction = Fraction(0)
    messages: tuple[MessageSpec, ...] = ()

    @property
    def message_demand(self) -> Fraction:
        """The bus demand of its messages, summed from their ``demand_ratio``
        pairs on every read; set-up and withdrawal sum many tasks' at once."""
        return ratio_sum([m.demand_ratio for m in self.messages])


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


# -- reading the document ------------------------------------------------------

_REQUIRED = object()
_NUMBER = (int, float)
_NUMBERS = frozenset(_NUMBER)
_ZERO = Fraction(0)


def _at(path: tuple) -> str:
    """A place in the document as text, such as
    ``system.applications[0].tasks[3]``; the document itself is
    ``scenario``."""
    text = "".join(f"[{step}]" if type(step) is int else f".{step}"
                   for step in path)
    return text[1:] or "scenario"


def _read(doc: dict, table: tuple, path: tuple) -> list:
    """One record's fields, in table order: the one rule for every field.

    Each entry is (key, kinds, default, convert). doc[key] must be one of
    the kinds; an absent or null field gives the default, and with no
    default it is required. A bool is no number, nor is a number or a
    string such as "false" a bool. A number must be finite and inside
    float range: JSON reads NaN and Infinity as floats, an int can pass the
    largest float, and NaN fails every comparison. ``convert``, if given,
    maps a value the document holds; defaults are given converted. The
    record's path becomes text only for a refusal."""
    if not isinstance(doc, dict):
        doc = {}        # a record that is no object lacks its first field
    get = doc.get
    out = []
    for key, kinds, default, convert in table:
        value = get(key)
        if value is None:
            if default is not _REQUIRED:
                out.append(default)
                continue
            if key not in doc:
                raise MalformedDocument(
                    f"{_at(path)}: missing required field '{key}'")
        cls = value.__class__
        if not isinstance(value, kinds) or cls is bool and kinds is not bool:
            raise MalformedDocument(
                f"{_at(path)}: field '{key}' has the wrong type")
        if cls in _NUMBERS and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise MalformedDocument(f"{_at(path)}: field '{key}' must be finite")
        out.append(value if convert is None else convert(value))
    return out


def _field(doc: dict, key: str, kinds, path: tuple, default=_REQUIRED):
    """doc[key] alone, by the rule of ``_read``."""
    return _read(doc, ((key, kinds, default, None),), path)[0]


def _number(doc: dict, key: str, path: tuple, default=_REQUIRED):
    """A JSON number; required unless a default is given."""
    return _field(doc, key, _NUMBER, path, default)


def _enum(cls, text, path: tuple):
    try:
        return cls(text)
    except ValueError:
        names = ", ".join(e.value for e in cls)
        raise MalformedDocument(
            f"{_at(path)}: expected one of [{names}], got {text!r}") from None


# -- document -> model -------------------------------------------------------

# Records read by table, in the order their refusals are checked. A task's
# deadline and a message's period default to the task's period (None here).
_TASK = (
    ("period_ms", _NUMBER, _REQUIRED, ms_to_us),
    ("task_id", int, _REQUIRED, None),
    ("wcet_ms", _NUMBER, _REQUIRED, ms_to_us),
    ("deadline_ms", _NUMBER, None, ms_to_us),
    ("code_size", _NUMBER, _ZERO, frac),
    ("initial_proc", (int, list), _REQUIRED, None),
    ("messages", list, (), None),
)
_MESSAGE = (
    ("msg_id", int, _REQUIRED, None),
    ("size", _NUMBER, _REQUIRED, frac),
    ("period_ms", _NUMBER, None, ms_to_us),
)
_APPLICATION = (
    ("app_id", int, _REQUIRED, None),
    ("tasks", list, _REQUIRED, None),
    ("state_model", dict, {}, None),
    ("criticality", int, None, None),       # by default its list index
)
_STATE_MODEL = (
    ("min_state_size", _NUMBER, None, frac),
    ("strategy", str, StateStrategy.TRANSFER.value, None),
    ("snapshot_size", _NUMBER, _ZERO, frac),
    ("history_len", int, 0, None),
    ("convergence_rounds", int, 0, None),
)
_PROCESSOR = (
    ("proc_id", int, _REQUIRED, None),
    ("role", str, ProcessorRole.ALLOCATED.value, None),
)


def _parse_task(doc: dict, lane_count: int, path: tuple):
    """A task's fields, its processor per lane, and its messages."""
    (period, task_id, wcet, deadline, code_size, raw_proc,
     msg_docs) = _read(doc, _TASK, path)
    if raw_proc.__class__ is list:
        if len(raw_proc) != lane_count or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in raw_proc
        ):
            raise MalformedDocument(
                f"{_at(path)}: per-lane initial_proc must list one int per lane")
        procs = tuple(raw_proc)
    else:
        procs = (raw_proc,)
    msgs = []
    for i, md in enumerate(msg_docs):
        msg_id, size, msg_period = _read(md, _MESSAGE, path + ("messages", i))
        msgs.append(MessageSpec(msg_id, size,
                                period if msg_period is None else msg_period))
    return (task_id, wcet, period, period if deadline is None else deadline,
            code_size, procs, tuple(msgs))


def _parse_state_model(doc: dict, path: tuple) -> StateModel:
    min_state, strategy, snapshot, history, rounds = _read(
        doc, _STATE_MODEL, path)
    return StateModel(_enum(StateStrategy, strategy, path), snapshot, history,
                      min_state, rounds)


def _parse_timing(doc: dict) -> TimingConfig:
    path = ("system", "timing")
    return TimingConfig(
        utilization_bound=frac(_number(doc, "utilization_bound", path, 0.69)),
        customer_cap_mode=_field(doc, "customer_cap_mode", bool, path, False),
        police_rounds=_field(doc, "police_rounds", int, path, 3),
        tolerance=float(_number(doc, "tolerance", path, 0.5)),
    )


def build_system(doc: dict) -> SystemModel:
    """Validate a ``system`` document section and build the model.

    Raises MalformedDocument for shape errors, InvalidModel (carrying the
    full violation list) for semantic ones.
    """
    if not isinstance(doc, dict):
        raise MalformedDocument("system section must be an object")

    at = ("system",)
    arch = _enum(Architecture, _field(doc, "architecture", str, at),
                 at + ("architecture",))
    lanes_doc = _field(doc, "lanes", list, at)
    bus_doc = _field(doc, "bus", dict, at, {"max_load": 1000})
    apps_doc = _field(doc, "applications", list, at, [])
    timing = _parse_timing(_field(doc, "timing", dict, at, {}))
    bus = BusSpec(max_load=frac(_number(bus_doc, "max_load", at + ("bus",))))

    violations: list[Violation] = []
    bad = violations.append

    lanes = []
    specs = {}      # (proc_id, role) -> its ProcessorSpec: lanes mostly mirror
    for i, ld in enumerate(lanes_doc):
        lane_at = at + ("lanes", i)
        lane_id = _field(ld, "lane_id", int, lane_at)
        procs = []
        for j, pd in enumerate(_field(ld, "processors", list, lane_at)):
            proc_at = lane_at + ("processors", j)
            proc_id, role = _read(pd, _PROCESSOR, proc_at)
            spec = specs.get((proc_id, role))
            if spec is None:
                spec = specs[proc_id, role] = ProcessorSpec(
                    proc_id, _enum(ProcessorRole, role, proc_at))
            procs.append(spec)
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
    lane_count = max(len(lanes), 1)
    apps = []
    app_ids = set()
    for i, ad in enumerate(apps_doc):
        app_at = at + ("applications", i)
        app_id, task_docs, sm_doc, criticality = _read(ad, _APPLICATION, app_at)
        if app_id in app_ids:
            bad(Violation("DuplicateId", f"duplicate application id {app_id}"))
        app_ids.add(app_id)
        tasks = []
        task_ids = set()
        for j, td in enumerate(task_docs):
            task_at = app_at + ("tasks", j)
            (task_id, wcet, period, deadline, code_size, procs,
             msgs) = _parse_task(td, lane_count, task_at)
            if task_id in task_ids:
                bad(Violation("DuplicateId",
                              f"duplicate task id {task_id} in app {app_id}"))
            task_ids.add(task_id)
            if len(msgs) > 1 and len({m.msg_id for m in msgs}) != len(msgs):
                bad(Violation("DuplicateId", f"duplicate message ids in {_at(task_at)}"))
            if not 0 < wcet <= deadline <= period:
                bad(Violation("MalformedDocument",
                              f"{_at(task_at)}: need 0 < wcet <= deadline <= period"))
            if code_size.numerator < 0:     # a Fraction has its numerator's sign
                bad(Violation("MalformedDocument", f"{_at(task_at)}: negative code_size"))
            if any(m.size.numerator < 0 for m in msgs):
                bad(Violation("MalformedDocument", f"{_at(task_at)}: negative message size"))
            if len(set(procs)) > 1:
                bad(Violation("AsymmetricLanes",
                              f"{_at(task_at)}: initial_proc differs between lanes "
                              f"{procs}"))
            proc_id = procs[0]
            for lane_id, roles in lane_roles:
                role = roles.get(proc_id)
                if role is None:
                    bad(Violation("MalformedDocument",
                                  f"{_at(task_at)}: initial_proc {proc_id} not in lane "
                                  f"{lane_id}"))
                elif role is ProcessorRole.SPARE:
                    bad(Violation("SpareHasTasks",
                                  f"app {app_id} task {task_id} allocated to spare "
                                  f"processor {proc_id} (lane {lane_id})"))
            if any(m.period_us <= 0 for m in msgs):
                # a message's bus demand divides by its period
                bad(Violation("MalformedDocument",
                              f"{_at(task_at)}: message period must be positive"))
                continue
            tasks.append(TaskSpec(task_id, wcet, period, deadline, proc_id,
                                  code_size, msgs))
        if not task_docs:
            bad(Violation("MalformedDocument", f"app {app_id} has no tasks"))
        sm = _parse_state_model(sm_doc, app_at + ("state_model",))
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
            criticality=i if criticality is None else criticality,
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

    model = SystemModel(architecture=arch, lanes=tuple(lanes), bus=bus,
                        applications=tuple(apps), timing=timing)
    violations.extend(_architecture_violations(model))

    if violations:
        raise InvalidModel(violations)
    return model


def _architecture_violations(model: SystemModel) -> list[Violation]:
    out = []
    arch, lanes, apps = model.architecture, model.lanes, model.applications
    if arch is Architecture.FEDERATED_QUADRUPLEX:
        if len(apps) != 1 or (apps and len(apps[0].tasks) != 1):
            out.append(Violation("ArchitectureMismatch",
                                 "federated lane set carries exactly one single-task application"))
        if model.spare_positions():
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
