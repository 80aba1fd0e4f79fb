"""Scheduling policy, online admission and the proof of a schedule.

Priorities are deadline monotonic: strictly smaller deadline means strictly
higher priority (rank 0 is highest), equal deadlines break by ascending id.
Admission is the additive utilization test: a task joins a processor iff

    U + C/min(D, T) <= bound        (bound 0.69, or 0.50 in customer-cap mode)

Using C/min(D,T) keeps the test conservative when deadlines are shorter
than periods. Because the test is a plain sum it is independent of priority
order and of the order tasks arrive in.

Admission does not prove a set schedulable; ``ProcessorState.proven`` does.
It is the exact deadline-monotonic response-time test (Joseph & Pandya
1986): each task's least fixed point

    R = C + sum over the higher ranks j of ceil(R / T_j) * C_j

must be at most its D, whatever the tasks' phasing. A set of n tasks
whose sum of C/min(D,T) is at most n(2^(1/n) - 1) passes it (Liu & Layland
1973, with each window min(D, T) taken as the period). That bound falls
towards ln 2 = 0.6931... as n grows, so it is above 0.69 for every n:
every set admitted under a bound of 0.69 or less is proven, and
``proven`` tries that integer comparison before the fixed points. Only a
configured bound above 0.69, or a set taken in without admission, can be
unproven.

Bus admission is the same shape: current_load plus the new messages' demand
(size/period each) must not exceed max_load. Whatever max_load is not
reserved by message traffic is the transfer bandwidth available to code
installation and state snapshots.

All arithmetic is exact (integer microseconds, processor utilization as an
integer numerator over a common denominator, Fraction bus loads) so
decisions and transfer times are reproducible bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .model import TaskSpec, TimingConfig
from .timebase import lcm_sum


class NoBandwidth(Exception):
    """A transfer was requested while the bus has no residual bandwidth."""


def task_utilization(wcet_us: int, period_us: int, deadline_us: int | None = None) -> Fraction:
    return Fraction(wcet_us, _window(period_us, deadline_us))


def _window(period_us: int, deadline_us: int | None) -> int:
    """The C/min(D, T) test's denominator."""
    return period_us if deadline_us is None else min(deadline_us, period_us)


class AdmissionDecision:
    """Outcome of an admission test, a read-only value.

    For processor admission ``resulting_utilization`` is the utilization the
    processor would have; for bus admission it carries the resulting load in
    data units per millisecond. ``reason`` is set on rejection.
    ``admit_task`` and ``check_comms`` keep the value as an integer pair and
    a refusal as its text's template and limit; the Fraction and the text
    are built when read, since spare selection tries many candidates and
    the engine reads the chosen ones alone. Two decisions are equal when
    all three read equal.
    """

    __slots__ = ("_accepted", "_num", "_den", "_why")

    def __init__(self, accepted: bool, resulting_utilization: Fraction,
                 reason: str | None = None):
        value = Fraction(resulting_utilization)
        self._accepted, self._why = accepted, reason
        self._num, self._den = value.numerator, value.denominator

    @classmethod
    def _of(cls, accepted: bool, num: int, den: int, why=None):
        """A decision on num/den; ``why`` is None or (template, limit)."""
        decision = cls.__new__(cls)
        decision._accepted, decision._why = accepted, why
        decision._num, decision._den = num, den
        return decision

    @property
    def accepted(self) -> bool:
        return self._accepted

    @property
    def resulting_utilization(self) -> Fraction:
        return Fraction(self._num, self._den)

    @property
    def reason(self) -> str | None:
        why = self._why
        if why is None or type(why) is str:
            return why
        template, limit = why
        return template.format(self._num / self._den, float(limit))

    def _key(self) -> tuple:
        return self._accepted, self.resulting_utilization, self.reason

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("AdmissionDecision(accepted={!r}, resulting_utilization={!r}, "
                "reason={!r})".format(*self._key()))


class ProcessorState:
    """Value-style record of what a processor has admitted.

    Entries map an arbitrary hashable key (a task id, or (app, task) in the
    engine) to (wcet_us, period_us, deadline_us). The utilization is kept as
    an integer numerator over a common multiple of every entry's window,
    the lcm of the windows it has seen, and updated by
    ``with_task``/``without_task``/``without_tasks``; ``utilization`` gives
    it as an exact Fraction and ``utilization_ratio`` as the integer pair.
    ``proven`` runs the response-time test at most once per state.
    """

    __slots__ = ("_entries", "_num", "_den", "_proven")

    def __init__(self, entries: Mapping | None = None):
        self._entries: dict = dict(entries or {})
        # each task's C/min(D, T) as an integer pair, over their lcm
        self._num, self._den = lcm_sum(
            (wcet, _window(period, deadline))
            for wcet, period, deadline in self._entries.values())
        self._proven = None

    @classmethod
    def _of(cls, entries: dict, num: int, den: int) -> "ProcessorState":
        state = cls.__new__(cls)
        state._entries = entries
        state._num = num
        state._den = den
        state._proven = None
        return state

    @property
    def utilization(self) -> Fraction:
        return Fraction(self._num, self._den)

    @property
    def utilization_ratio(self) -> tuple[int, int]:
        """The utilization as its unreduced integer (numerator,
        denominator) pair."""
        return self._num, self._den

    def with_task(self, key, wcet_us: int, period_us: int, deadline_us: int) -> "ProcessorState":
        new = dict(self._entries)
        num, den = self._num, self._den
        if key in new:
            num -= self._share(new[key])
        new[key] = (wcet_us, period_us, deadline_us)
        return ProcessorState._of(new, *lcm_sum(
            ((num, den), (wcet_us, _window(period_us, deadline_us)))))

    def without_task(self, key) -> "ProcessorState":
        return self.without_tasks((key,))

    def without_tasks(self, keys) -> "ProcessorState":
        """The state without every entry keyed in keys (absent keys are
        skipped): one new state for all of them."""
        new = dict(self._entries)
        num = self._num
        for key in keys:
            if key in new:
                num -= self._share(new.pop(key))
        return ProcessorState._of(new, num, self._den)

    def _share(self, entry) -> int:
        """An entry's C/min(D, T) over the state's denominator: an integer,
        since the denominator is a multiple of the entry's window."""
        wcet, period, deadline = entry
        return wcet * (self._den // _window(period, deadline))

    def priorities(self) -> dict:
        """Deadline-monotonic ranks over the admitted set (0 = highest),
        keys listed in rank order."""
        return {key: rank for rank, (key, _) in enumerate(self._ranked())}

    def _ranked(self) -> list:
        """The (key, entry) pairs, highest rank first."""
        # the keys of one state share one type: task ids, or (app, task)
        return sorted(self._entries.items(), key=lambda kv: (kv[1][2], kv[0]))

    def proven(self) -> bool:
        """Does every task meet every deadline under the ranks of
        ``priorities``, whatever the phasing of its jobs and of the others'?
        The exact response-time test, run once per state."""
        proven = self._proven
        if proven is None:
            # Liu & Layland's sufficient test first
            proven = self._proven = (
                self._num * 100 <= 69 * self._den or _response_times_fit(
                    entry for _, entry in self._ranked()))
        return proven

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries


def _response_times_fit(ranked) -> bool:
    """Is each task's least fixed point R = C + sum of ceil(R / T_j) * C_j
    over the tasks ranked above it at most its deadline? ``ranked`` gives
    (wcet, period, deadline) entries, highest rank first."""
    higher = []         # (wcet, period) of the tasks ranked above
    for wcet, period, deadline in ranked:
        # R only grows from C plus one job of each higher task; stop once
        # it is past the deadline
        r = wcet + sum(c for c, _ in higher)
        while r <= deadline:
            nxt = wcet + sum(-(-r // t) * c for c, t in higher)
            if nxt == r:
                break
            r = nxt
        if r > deadline:
            return False
        higher.append((wcet, period))
    return True


def admit_task(proc: ProcessorState, task: TaskSpec, cfg: TimingConfig) -> AdmissionDecision:
    # U + C/W as num/den, compared with the bound in integers
    window = _window(task.period_us, task.deadline_us)
    num, den = proc.utilization_ratio
    num, den = num * window + task.wcet_us * den, den * window
    bound = cfg.effective_bound
    if num * bound.denominator <= bound.numerator * den:
        return AdmissionDecision._of(True, num, den)
    return AdmissionDecision._of(
        False, num, den, ("utilization {:.6f} exceeds bound {:.2f}", bound))


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
    num, den = resulting.numerator, resulting.denominator
    if resulting <= bus.max_load:
        return AdmissionDecision._of(True, num, den)
    return AdmissionDecision._of(
        False, num, den,
        ("bus demand {:.6f}/ms exceeds max load {:.6f}/ms", bus.max_load))


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
