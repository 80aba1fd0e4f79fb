"""Scenario documents: parsing, validation, and seeded generation.

A scenario is one JSON object::

    {
      "format_version": 1,
      "system":   { ... lanes / bus / applications / timing ... },
      "faults":   [ {at_ms, kind, target{...}, ...}, ... ],
      "policies": { "pilot_gate": false, "pilot_approvals": [...] },
      "voter":    { "tolerance": 0.5, "consensus": "median_of_others" },
      "sim":      { "seed": 0, "horizon_ms": 500, ... }
    }

Times are milliseconds in the file and integer microseconds in memory.
Randomness is confined to the generator (and the optional BIT detection
probability); the engine itself draws nothing for a fully scripted run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .fault import (TARGET_FIELDS, Consensus, FaultKind, FaultSpec, FaultTarget,
                    TargetKind, VoterConfig)
from .model import (_FLOAT_MAX, _NUMBER, _REQUIRED, Architecture, InvalidModel,
                    MalformedDocument, SystemModel, Violation, build_system,
                    _enum, _field, _number, _reader)
from .timebase import ms_to_us

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Approval:
    """Scripted pilot approval for readmitting a restabilized component.

    Matching is by subset: a component matches the approval when every
    field the approval names agrees with it.
    """

    at_us: int
    lane: int | None = None
    proc: int | None = None
    app: int | None = None
    task: int | None = None
    sensor: bool = False

    def matches(self, *, lane=None, proc=None, app=None, task=None, sensor=False) -> bool:
        for mine, theirs in ((self.lane, lane), (self.proc, proc),
                             (self.app, app), (self.task, task)):
            if mine is not None and mine != theirs:
                return False
        return self.sensor == sensor


@dataclass(frozen=True)
class Policies:
    pilot_gate: bool = False
    approvals: tuple[Approval, ...] = ()

    def approval_time(self, **component) -> int | None:
        """When the earliest approval matching the component comes, if any."""
        return min((a.at_us for a in self.approvals if a.matches(**component)),
                   default=None)


@dataclass(frozen=True)
class ReferenceSignal:
    """What healthy copies emit: base plus an optional per-ms ramp."""

    base: float = 0.0
    slope_per_ms: float = 0.0

    def value(self, t_us: int) -> float:
        return self.base + self.slope_per_ms * (t_us / 1000.0)


@dataclass(frozen=True)
class SimSettings:
    seed: int = 0
    horizon_us: int = 500_000
    bit_period_us: int = 25_000
    reference: ReferenceSignal = ReferenceSignal()
    enforce_admission: bool = True
    bit_detect_probability: float = 1.0


@dataclass
class Scenario:
    model: SystemModel
    faults: list[FaultSpec] = field(default_factory=list)
    policies: Policies = Policies()
    voter: VoterConfig = VoterConfig()
    settings: SimSettings = SimSettings()


# -- parsing -----------------------------------------------------------------

# the coordinates each kind of target names, read as one record
_TARGET = {kind: tuple((name, int, _REQUIRED, None) for name in names)
           for kind, names in TARGET_FIELDS.items()}
_READ_TARGET = {kind: _reader(table, f"read_{kind.value}_target")
                for kind, table in _TARGET.items()}


def _parse_target(doc: dict, path: tuple) -> FaultTarget:
    kind = _enum(TargetKind, _field(doc, "kind", str, path), path)
    return FaultTarget(kind, **dict(zip(TARGET_FIELDS[kind],
                                        _READ_TARGET[kind](doc, path))))


# a fault's fields, in the order their refusals are checked; the default of
# bit_detectable depends on the kind (None here)
_FAULT = (
    ("kind", str, _REQUIRED, None),
    ("duration_ms", _NUMBER, None, ms_to_us),
    ("fault_id", int, None, None),
    ("at_ms", _NUMBER, _REQUIRED, ms_to_us),
    ("target", dict, _REQUIRED, None),
    ("value_skew", _NUMBER, 0.0, float),
    ("per_receiver", bool, False, None),
    ("bit_detectable", bool, None, None),
)
_read_fault = _reader(_FAULT, "read_fault")


def _parse_fault(doc: dict, index: int) -> FaultSpec:
    path = ("faults", index)
    (kind, duration_us, fault_id, at_us, target, value_skew, per_receiver,
     bit_detectable) = _read_fault(doc, path)
    kind = _enum(FaultKind, kind, path)
    return FaultSpec(
        fault_id=index if fault_id is None else fault_id,
        at_us=at_us,
        kind=kind,
        target=_parse_target(target, path + ("target",)),
        duration_us=duration_us,
        value_skew=value_skew,
        per_receiver=per_receiver,
        bit_detectable=(kind is not FaultKind.BYZANTINE
                        if bit_detectable is None else bit_detectable),
    )


def _parse_policies(doc: dict) -> Policies:
    approvals = []
    at = ("policies",)
    for i, ad in enumerate(_field(doc, "pilot_approvals", list, at, [])):
        path = at + ("pilot_approvals", i)
        approvals.append(Approval(
            at_us=ms_to_us(_number(ad, "at_ms", path)),
            lane=_field(ad, "lane", int, path, None),
            proc=_field(ad, "proc", int, path, None),
            app=_field(ad, "app", int, path, None),
            task=_field(ad, "task", int, path, None),
            sensor=_field(ad, "sensor", bool, path, False),
        ))
    return Policies(pilot_gate=_field(doc, "pilot_gate", bool, at, False),
                    approvals=tuple(approvals))


def _parse_voter(doc: dict) -> VoterConfig:
    at = ("voter",)
    return VoterConfig(
        tolerance=float(_number(doc, "tolerance", at, 0.5)),
        consensus=_enum(Consensus,
                        _field(doc, "consensus", str, at, "median_of_others"),
                        at + ("consensus",)),
    )


def _parse_settings(doc: dict) -> SimSettings:
    at = ("sim",)
    ref_at = at + ("reference",)
    ref_doc = _field(doc, "reference", dict, at, {})
    return SimSettings(
        seed=_field(doc, "seed", int, at, 0),
        horizon_us=ms_to_us(_number(doc, "horizon_ms", at, 500)),
        bit_period_us=ms_to_us(_number(doc, "bit_period_ms", at, 25)),
        reference=ReferenceSignal(
            base=float(_number(ref_doc, "value", ref_at, 0.0)),
            slope_per_ms=float(_number(ref_doc, "slope_per_ms", ref_at, 0.0)),
        ),
        enforce_admission=_field(doc, "enforce_admission", bool, at, True),
        bit_detect_probability=float(_number(doc, "bit_detect_probability", at, 1.0)),
    )


def parse_scenario(doc: dict) -> Scenario:
    """Build a validated Scenario; raises MalformedDocument / InvalidModel."""
    if not isinstance(doc, dict):
        raise MalformedDocument("scenario must be a JSON object")
    version = _field(doc, "format_version", int, ())
    if version != FORMAT_VERSION:
        raise MalformedDocument(f"unsupported format_version {version!r}")
    system = build_system(_field(doc, "system", dict, ()))
    sc = Scenario(
        model=system,
        faults=[_parse_fault(fd, i)
                for i, fd in enumerate(_field(doc, "faults", list, (), []))],
        policies=_parse_policies(_field(doc, "policies", dict, (), {})),
        voter=_parse_voter(_field(doc, "voter", dict, (), {})),
        settings=_parse_settings(_field(doc, "sim", dict, (), {})),
    )
    violations = scenario_violations(sc)
    if violations:
        raise InvalidModel(violations)
    return sc


def scenario_violations(sc: Scenario) -> list[Violation]:
    """Cross-reference checks that need the whole scenario in hand."""
    out = []
    bad = out.append
    horizon = sc.settings.horizon_us
    if horizon <= 0:
        bad(Violation("MalformedDocument", "horizon must be positive"))
    elif horizon > _FLOAT_MAX:
        # ReferenceSignal.value reads the microsecond count as a float
        bad(Violation("MalformedDocument",
                      "horizon too large: its microsecond count passes the "
                      "largest float"))
    # what fault targets and approvals may name; a scenario with neither
    # builds nothing
    known = _Places(sc.model) if sc.faults or sc.policies.approvals else None
    fault_ids = set()
    for f in sc.faults:
        name = f"fault {f.fault_id}"
        if f.fault_id in fault_ids:
            # BIT records what it caught by fault id
            bad(Violation("DuplicateId", f"duplicate fault id {f.fault_id}"))
        fault_ids.add(f.fault_id)
        if f.at_us < 0:
            bad(Violation("MalformedDocument", f"{name} fires before time zero"))
        elif f.at_us >= horizon:
            bad(Violation("MalformedDocument", f"{name} fires at/after the horizon"))
        if f.kind is FaultKind.TRANSIENT and (f.duration_us is None or f.duration_us <= 0):
            bad(Violation("MalformedDocument", f"{name}: transient faults need duration_ms > 0"))
        if f.kind is not FaultKind.TRANSIENT and f.duration_us is not None:
            bad(Violation("MalformedDocument", f"{name}: only transient faults have a duration"))
        if f.kind is FaultKind.BYZANTINE and f.value_skew == 0.0:
            bad(Violation("MalformedDocument", f"{name}: byzantine faults need value_skew"))
        t = f.target
        if t.kind is TargetKind.SENSOR:
            if f.kind is FaultKind.BYZANTINE:
                bad(Violation("MalformedDocument", f"{name}: sensor faults are not byzantine"))
            if f.value_skew == 0.0:
                bad(Violation("MalformedDocument", f"{name}: sensor faults need value_skew"))
        for problem in known.unknown(t.lane, t.proc, t.app, t.task):
            bad(Violation("MalformedDocument", f"{name}: {problem}"))
    for a in sc.policies.approvals:
        if a.at_us < 0:
            bad(Violation("MalformedDocument",
                          f"approval at {a.at_us}us: before time zero"))
        for problem in known.unknown(a.lane, a.proc, a.app, a.task):
            bad(Violation("MalformedDocument", f"approval at {a.at_us}us: {problem}"))
    if sc.voter.tolerance <= 0:
        bad(Violation("MalformedDocument", "voter tolerance must be positive"))
    # the readers refuse non-finite numbers, so only sums can overflow; a
    # horizon past float range is refused above and has no reference value
    if abs(horizon) <= _FLOAT_MAX:
        if not math.isfinite(sc.settings.reference.value(horizon)):
            # the ramp is linear, so finite at both ends means finite throughout
            bad(Violation("MalformedDocument",
                          "sim.reference overflows before the horizon"))
        elif not math.isfinite(bound := _emission_bound(sc)):
            bad(Violation("MalformedDocument",
                          "emitted values can overflow: reference, skews and "
                          "convergence drift add up past the largest float"))
        elif not math.isfinite(len(sc.model.lanes) * bound):
            # a mean of the others, or a median of an even count, sums
            # what the lanes emit before it divides
            bad(Violation("MalformedDocument",
                          "a vote can overflow: the lane count times the "
                          "largest emitted value passes the largest float"))
    if not 0.0 <= sc.settings.bit_detect_probability <= 1.0:
        bad(Violation("MalformedDocument", "bit_detect_probability must be in [0, 1]"))
    if sc.settings.bit_period_us <= 0:
        bad(Violation("MalformedDocument", "bit_period_ms must be positive"))
    return out


class _Places:
    """The lanes, processors and tasks of a system, as sets built once."""

    def __init__(self, model: SystemModel):
        self.lanes = set(model.lane_ids)
        self.procs = {p.proc_id for p in model.lanes[0].processors}
        self.tasks = {a.app_id: {t.task_id for t in a.tasks}
                      for a in model.applications}
        self.any_task = set().union(*self.tasks.values())

    def unknown(self, lane, proc, app, task):
        """What a fault target or an approval names (None: not named) that
        the system lacks. An approval may name a task without its
        application."""
        if lane is not None and lane not in self.lanes:
            yield f"unknown lane {lane}"
        if proc is not None and proc not in self.procs:
            yield f"unknown processor {proc}"
        if app is not None and app not in self.tasks:
            yield f"unknown app {app}"
        elif task is not None and task not in (
                self.any_task if app is None else self.tasks[app]):
            yield f"unknown task {task}"


def _emission_bound(sc: Scenario) -> float:
    """The largest |value| a copy can put on the exchange over the run:
    the reference at either end of its ramp, plus the largest byzantine
    skew, plus 1.5 x the largest two-faced skew (what a relay adds), plus
    a converging copy's drift of 2 x tolerance per round left."""
    ref = sc.settings.reference
    skews = [abs(f.value_skew) for f in sc.faults if f.kind is FaultKind.BYZANTINE]
    relayed = [abs(f.value_skew) for f in sc.faults
               if f.kind is FaultKind.BYZANTINE and f.per_receiver]
    rounds = max((a.state_model.convergence_rounds for a in sc.model.applications),
                 default=0)
    return (max(abs(ref.base), abs(ref.value(sc.settings.horizon_us)))
            + max(skews, default=0.0) + 1.5 * max(relayed, default=0.0)
            + 2.0 * sc.voter.tolerance * rounds)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise MalformedDocument("scenario nests too deeply to read") from None
    return parse_scenario(doc)


# -- generation --------------------------------------------------------------

# Divisor-friendly periods (ms) keep one hyperperiod short: lcm = 200 ms.
_PERIODS_MS = (10, 20, 25, 40, 50, 100)


def _uunifast(rng: random.Random, n: int, total: float) -> list[float]:
    """Classic utilization splitter: n shares summing to total."""
    shares = []
    remaining = total
    for i in range(1, n):
        nxt = remaining * rng.random() ** (1.0 / (n - i))
        shares.append(remaining - nxt)
        remaining = nxt
    shares.append(remaining)
    return shares


def generate_scenario(lanes: int = 3, procs: int = 3, apps: int = 2,
                      target_utilization: float = 0.5, seed: int = 0,
                      infeasible: bool = False, faults: int = 0,
                      horizon_ms: float | None = None) -> dict:
    """Emit a scenario document with per-processor utilization at the target.

    One processor per lane is reserved as a spare; the rest carry task sets
    drawn to the target utilization (strictly above 1.0 when ``infeasible``,
    which also disables admission enforcement so the run can demonstrate
    deadline misses). ``faults`` > 0 adds that many seeded random fault
    scripts. The output always round-trips through validation.
    """
    # a wrong type is refused before anything is drawn: its document would
    # fail validation, and a bool would draw as 0 or 1
    for name, value in (("lanes", lanes), ("procs", procs), ("apps", apps),
                        ("faults", faults), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, not {value!r}")
    numbers = [("target utilization", target_utilization)]
    if horizon_ms is not None:
        numbers.append(("horizon", horizon_ms))
    for name, value in numbers:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be an int or a float, not {value!r}")
    if not 2 <= lanes <= 4:
        raise ValueError("lanes must be 2..4")
    if procs < 2:
        raise ValueError("need at least 2 processors per lane (one spare)")
    if apps < 1:
        raise ValueError("need at least one application slot")
    if faults < 0:
        raise ValueError("the fault count cannot be negative")
    if not infeasible and not 0.0 <= target_utilization <= 1.0:
        raise ValueError("target utilization must be within [0, 1]")
    # an int is finite, even one past the largest float
    if horizon_ms is not None and not (
            (not isinstance(horizon_ms, float) or math.isfinite(horizon_ms))
            and 0 < ms_to_us(horizon_ms) <= _FLOAT_MAX):
        raise ValueError("horizon must be finite and from 1 us up to the largest float in us")

    rng = random.Random(seed)
    allocated = list(range(procs - 1))
    target = rng.uniform(1.05, 1.25) if infeasible else target_utilization

    tasks = []           # (proc, wcet_us, period_us)
    next_task_id = 1
    if target > 0:
        for proc in allocated:
            n = rng.randint(3, 5)
            shares = _uunifast(rng, n, target)
            # an overloaded split must still leave every task with
            # wcet <= period, so redraw rather than let one share pass 1
            while infeasible and max(shares) > 0.95:
                shares = _uunifast(rng, n, target)
            for share in shares:
                period_ms = rng.choice(_PERIODS_MS)
                period_us = period_ms * 1000
                # flooring keeps a feasible draw's sum at or under the target
                wcet_us = max(1, math.floor(share * period_us))
                if not infeasible:
                    wcet_us = min(wcet_us, period_us)
                tasks.append((proc, wcet_us, period_us))

    app_docs = []
    if tasks:
        n_apps = min(apps, len(tasks))
        buckets: list[list] = [[] for _ in range(n_apps)]
        for i, t in enumerate(tasks):
            buckets[i % n_apps].append(t)
        for app_index, bucket in enumerate(buckets):
            task_docs = []
            for proc, wcet_us, period_us in bucket:
                task_docs.append({
                    "task_id": next_task_id,
                    "wcet_ms": wcet_us / 1000,
                    "period_ms": period_us / 1000,
                    "deadline_ms": period_us / 1000,
                    "initial_proc": proc,
                    "code_size": rng.randint(10, 60),
                    "messages": [{"msg_id": 1, "size": 1, "period_ms": period_us / 1000}],
                })
                next_task_id += 1
            app_docs.append({
                "app_id": app_index + 1,
                "criticality": app_index,
                "state_model": {"strategy": "transfer",
                                "snapshot_size": rng.randint(20, 100)},
                "tasks": task_docs,
            })

    hyper_ms = 200
    horizon = horizon_ms if horizon_ms is not None else hyper_ms
    doc = {
        "format_version": FORMAT_VERSION,
        "system": {
            "architecture": Architecture.FULLY_INTEGRATED.value,
            "lanes": [
                {"lane_id": lane,
                 "processors": [
                     {"proc_id": p,
                      "role": "spare" if p == procs - 1 else "allocated"}
                     for p in range(procs)
                 ]}
                for lane in range(lanes)
            ],
            "bus": {"max_load": 50},
            "applications": app_docs,
            "timing": {"utilization_bound": 0.69},
        },
        "faults": [],
        "policies": {"pilot_gate": False, "pilot_approvals": []},
        "voter": {"tolerance": 0.5, "consensus": "median_of_others"},
        "sim": {
            "seed": seed,
            "horizon_ms": horizon,
            "bit_period_ms": 50,
            "enforce_admission": not infeasible,
            "reference": {"value": 0.0},
        },
    }
    if faults > 0 and app_docs:
        doc["faults"] = _random_faults(rng, doc, faults)
    return doc


def _random_faults(rng: random.Random, doc: dict, count: int) -> list[dict]:
    lanes = [l["lane_id"] for l in doc["system"]["lanes"]]
    apps = doc["system"]["applications"]
    horizon_ms = doc["sim"]["horizon_ms"]
    horizon_us = ms_to_us(horizon_ms)
    out = []
    for _ in range(count):
        if horizon_ms >= 10:
            # the first half of the run, after 5 ms of normal service
            at_ms = round(rng.uniform(5, horizon_ms * 0.5), 1)
        else:
            # too short for that: the second quarter, in whole microseconds
            at_ms = rng.randint(horizon_us // 4, (horizon_us - 1) // 2) / 1000
        kind = rng.choice(["permanent", "permanent", "transient", "byzantine"])
        roll = rng.random()
        app = rng.choice(apps)
        task = rng.choice(app["tasks"])
        lane = rng.choice(lanes)
        if roll < 0.2:
            target = {"kind": "lane", "lane": lane}
        elif roll < 0.6:
            target = {"kind": "processor", "lane": lane,
                      "proc": task["initial_proc"]}
        elif roll < 0.85:
            target = {"kind": "task", "lane": lane, "proc": task["initial_proc"],
                      "app": app["app_id"], "task": task["task_id"]}
        else:
            kind = rng.choice(["permanent", "transient"])
            target = {"kind": "sensor", "app": app["app_id"], "lane": lane}
        fd = {"at_ms": at_ms, "kind": kind, "target": target}
        if kind == "transient":
            fd["duration_ms"] = round(rng.uniform(10, 40), 1)
        if kind == "byzantine":
            fd["value_skew"] = round(rng.uniform(1.5, 9.0), 2)
            fd["per_receiver"] = rng.random() < 0.5
        if target["kind"] == "sensor":
            fd["value_skew"] = round(rng.uniform(1.5, 9.0), 2)
        out.append(fd)
    out.sort(key=lambda f: f["at_ms"])
    return out


def dump_scenario(doc: dict) -> str:
    return dump_json(doc) + "\n"


_quote = json.encoder.encode_basestring_ascii


def dump_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, character for
    character, built with one ``join`` per container.

    With an indent the stdlib encodes in pure Python and keeps the whole
    document as a list of small chunks, several times the text's size;
    here only one container's parts are alive at a time. A container that
    holds itself ends in RecursionError, where the stdlib raises
    ValueError.
    """
    return _dump(value, "")


def _dump(value, pad: str) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        body = (",\n" + inner).join([_dump(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join([f"{_quote(k)}: {_dump(v, inner)}"
                                     for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    # other keys, subclasses and non-finite floats: the stdlib's text,
    # indented to this depth (an encoded string holds no raw newline)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
