"""Scheduling policy and online admission arithmetic.

Priorities are deadline monotonic: strictly smaller deadline means strictly
higher priority (rank 0 is highest), equal deadlines break by ascending id.
Admission is the additive utilization test: a task joins a processor iff

    U + C/min(D, T) <= bound        (bound 0.69, or 0.50 in customer-cap mode)

Using C/min(D,T) keeps the test conservative when deadlines are shorter
than periods. Because the test is a plain sum it is independent of priority
order and of the order tasks arrive in.

Bus admission is the same shape: current_load plus the new messages' demand
(size/period each) must not exceed max_load. Whatever max_load is not
reserved by message traffic is the transfer bandwidth available to code
installation and state snapshots.

All arithmetic is exact (integer microseconds, Fraction loads) so decisions
and transfer times are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import TaskSpec, TimingConfig
from .timebase import ratio_sum


class NoBandwidth(Exception):
    """A transfer was requested while the bus has no residual bandwidth."""


def task_utilization(wcet_us: int, period_us: int, deadline_us: int | None = None) -> Fraction:
    return Fraction(wcet_us, _window(period_us, deadline_us))


def _window(period_us: int, deadline_us: int | None) -> int:
    """The C/min(D, T) test's denominator."""
    return period_us if deadline_us is None else min(deadline_us, period_us)


def exact_sum(values) -> Fraction:
    """The exact sum of Fractions (or ints) as one Fraction, by ``ratio_sum``."""
    return ratio_sum((v.numerator, v.denominator) for v in values)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission test.

    For processor admission ``resulting_utilization`` is the utilization the
    processor would have; for bus admission it carries the resulting load in
    data units per millisecond. ``reason`` is set on rejection.
    """

    accepted: bool
    resulting_utilization: Fraction
    reason: str | None = None


class ProcessorState:
    """Value-style record of what a processor has admitted.

    Entries map an arbitrary hashable key (a task id, or (app, task) in the
    engine) to (wcet_us, period_us, deadline_us). The utilization is an
    exact running total, updated by ``with_task``/``without_task``.
    """

    __slots__ = ("_entries", "_utilization")

    def __init__(self, entries: Mapping | None = None):
        self._entries: dict = dict(entries or {})
        # each task's C/min(D, T) as an integer pair: one Fraction in all
        self._utilization = ratio_sum(
            (wcet, _window(period, deadline))
            for wcet, period, deadline in self._entries.values())

    @classmethod
    def _of(cls, entries: dict, utilization: Fraction) -> "ProcessorState":
        state = cls.__new__(cls)
        state._entries = entries
        state._utilization = utilization
        return state

    @property
    def utilization(self) -> Fraction:
        return self._utilization

    def with_task(self, key, wcet_us: int, period_us: int, deadline_us: int) -> "ProcessorState":
        new = dict(self._entries)
        total = self._utilization
        if key in new:
            total -= task_utilization(*new[key])
        new[key] = (wcet_us, period_us, deadline_us)
        return ProcessorState._of(
            new, total + task_utilization(wcet_us, period_us, deadline_us))

    def without_task(self, key) -> "ProcessorState":
        new = dict(self._entries)
        total = self._utilization
        if key in new:
            total -= task_utilization(*new.pop(key))
        return ProcessorState._of(new, total)

    def priorities(self) -> dict:
        """Deadline-monotonic ranks over the admitted set (0 = highest)."""
        order = sorted(self._entries.items(), key=lambda kv: (kv[1][2], _id_key(kv[0])))
        return {key: rank for rank, (key, _) in enumerate(order)}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries


def _id_key(key):
    # Keys are either plain ints or tuples of ints; both sort naturally.
    return key if isinstance(key, tuple) else (key,)


def admit_task(proc: ProcessorState, task: TaskSpec, cfg: TimingConfig) -> AdmissionDecision:
    resulting = proc.utilization + task_utilization(
        task.wcet_us, task.period_us, task.deadline_us)
    bound = cfg.effective_bound
    if resulting <= bound:
        return AdmissionDecision(True, resulting)
    return AdmissionDecision(
        False, resulting,
        reason=f"utilization {float(resulting):.6f} exceeds bound {float(bound):.2f}",
    )


class BusState:
    """Reserved message demand on the shared bus: one exact running load,
    updated by ``with_demand``/``without_demand``."""

    __slots__ = ("max_load", "_load")

    def __init__(self, max_load: Fraction, load: Fraction = Fraction(0)):
        self.max_load = Fraction(max_load)
        self._load = Fraction(load)

    @property
    def current_load(self) -> Fraction:
        return self._load

    def with_demand(self, demand: Fraction) -> "BusState":
        return self._at(self._load + demand)

    def without_demand(self, demand: Fraction) -> "BusState":
        return self._at(self._load - demand)

    def _at(self, load: Fraction) -> "BusState":
        # a derived state: both values are Fractions already
        bus = object.__new__(BusState)
        bus.max_load = self.max_load
        bus._load = load
        return bus


def check_comms(bus: BusState, demand: Fraction) -> AdmissionDecision:
    """Bus admission of extra message demand (data units per ms)."""
    resulting = bus.current_load + demand
    if resulting <= bus.max_load:
        return AdmissionDecision(True, resulting)
    return AdmissionDecision(
        False, resulting,
        reason=f"bus demand {float(resulting):.6f}/ms exceeds max load "
               f"{float(bus.max_load):.6f}/ms",
    )


def available_transfer_bandwidth(bus: BusState) -> Fraction:
    return max(bus.max_load - bus.current_load, Fraction(0))


def transfer_time(payload, bandwidth) -> int:
    """Microseconds to move payload data units at bandwidth units/ms.

    Rounded up to the clock quantum. Zero payload takes zero time; a
    positive payload with zero bandwidth raises NoBandwidth (the caller
    stalls the transfer until bandwidth frees up).
    """
    payload = Fraction(payload)
    if payload < 0:
        raise ValueError("negative payload")
    if payload == 0:
        return 0
    bandwidth = Fraction(bandwidth)
    if bandwidth <= 0:
        raise NoBandwidth(f"no residual bus bandwidth for payload {payload}")
    return math.ceil(payload / bandwidth * 1000)


def catchup_time(history_len: int, task: TaskSpec, proc: ProcessorState,
                 cfg: TimingConfig) -> int:
    """Worst-case microseconds for a new copy to replay its history backlog.

    The replay runs in the processor's spare capacity, so the bound is
    (H * C) / (1 - U). With the utilization bound at 0.69 at least 31% of
    the processor is spare, which caps the replay at roughly 3.23 * H * C.
    """
    if history_len < 0:
        raise ValueError("negative history length")
    if history_len == 0:
        return 0
    spare = 1 - proc.utilization
    if spare <= 0:
        raise ValueError("no spare capacity to replay history")
    return math.ceil(Fraction(history_len * task.wcet_us) / spare)
