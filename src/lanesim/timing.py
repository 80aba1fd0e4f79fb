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

All arithmetic is exact and stays in integers: microseconds, and the
processor utilization and the bus load each as an integer numerator over a
common denominator. A demand is an integer (numerator, denominator) pair,
as ``MessageSpec.demand_ratio`` and ``lcm_sum`` give it. A ``Fraction`` is
built only where a value is handed back: ``utilization``,
``current_load``, a decision's resulting figure and the residual bandwidth.
So decisions and transfer times are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import TaskSpec, TimingConfig
from .timebase import frac, lcm_sum


class NoBandwidth(Exception):
    """A transfer was requested while the bus has no residual bandwidth."""


def _window(period_us: int, deadline_us: int | None) -> int:
    """The C/min(D, T) test's denominator."""
    if deadline_us is None or deadline_us > period_us:
        return period_us
    return deadline_us


@dataclass(slots=True, unsafe_hash=True)
class AdmissionDecision:
    """Outcome of an admission test.

    For processor admission ``resulting_utilization`` is the utilization the
    processor would have; for bus admission it carries the resulting load in
    data units per millisecond. ``admit_task`` and ``check_comms`` build the
    exact Fraction when they decide.
    """

    accepted: bool
    resulting_utilization: Fraction


class ProcessorState:
    """Value-style record of what a processor has admitted.

    Entries map an arbitrary hashable key (a task id, or (app, task) in the
    engine) to (wcet_us, period_us, deadline_us), held in deadline-monotonic
    order. The order is made where an entry comes in, by construction and
    by ``with_task``; a withdrawal keeps the others in order and sorts
    nothing. The utilization is kept as an integer numerator over a common
    multiple of every entry's window, the lcm of the windows it has seen,
    and updated by ``with_task``/``without_task``/``without_tasks``;
    ``utilization`` gives it as an exact Fraction and
    ``utilization_ratio`` as the integer pair.
    ``proven`` tests anew on each call; the set admitting it keeps the proof.
    """

    __slots__ = ("_entries", "_num", "_den")

    def __init__(self, entries: Mapping | None = None):
        self._entries: dict = _dm_ordered(entries or {})
        # each task's C/min(D, T) as an integer pair, over their lcm
        self._num, self._den = lcm_sum(
            (wcet, _window(period, deadline))
            for wcet, period, deadline in self._entries.values())

    @classmethod
    def _of(cls, entries: dict, num: int, den: int) -> "ProcessorState":
        state = cls.__new__(cls)
        state._entries = entries
        state._num = num
        state._den = den
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
        entries = self._entries
        num, den = self._num, self._den
        if key in entries:
            num -= self._share(entries[key])
        new = _dm_ordered({**entries, key: (wcet_us, period_us, deadline_us)})
        return ProcessorState._of(new, *lcm_sum(
            ((num, den), (wcet_us, _window(period_us, deadline_us)))))

    def without_task(self, key) -> "ProcessorState":
        return self.without_tasks((key,))

    def without_tasks(self, keys) -> "ProcessorState":
        """The state without every entry keyed in keys (absent keys are
        skipped): one new state for all of them, the rest still in rank
        order."""
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
        keys listed in rank order: the order the entries are held in."""
        return {key: rank for rank, key in enumerate(self._entries)}

    def proven(self) -> bool:
        """Does every task meet every deadline under the ranks of
        ``priorities``, whatever the phasing of its jobs and of the others'?
        The exact response-time test, after Liu & Layland's sufficient one;
        the set that admits the state keeps the proof."""
        return self._num * 100 <= 69 * self._den or _response_times_fit(
            self._entries.values())

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries


def _dm_ordered(entries: Mapping) -> dict:
    """The entries in deadline-monotonic order: by deadline, ties by key."""
    # the keys of one state share one type: task ids, or (app, task)
    return dict(sorted(entries.items(), key=lambda kv: (kv[1][2], kv[0])))


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
    bound = cfg.utilization_bound
    return AdmissionDecision(num * bound.denominator <= bound.numerator * den,
                             Fraction(num, den))


class BusState:
    """Reserved message demand on the shared bus: one exact running load,
    kept as an integer (numerator, denominator) pair over the lcm of every
    demand it has seen, and updated by ``with_demand``/``without_demand``,
    which take a demand as such a pair. ``max_load`` is an exact Fraction;
    a float for it, or for the start-up load, is read via its decimal
    text, as ``frac`` reads a document."""

    __slots__ = ("max_load", "_num", "_den")

    def __init__(self, max_load, load=0):
        self.max_load = frac(max_load)
        load = frac(load)
        self._num, self._den = load.numerator, load.denominator

    @property
    def current_load(self) -> Fraction:
        return Fraction(self._num, self._den)

    def with_demand(self, demand: tuple[int, int]) -> "BusState":
        return self._at(*lcm_sum(((self._num, self._den), demand)))

    def without_demand(self, demand: tuple[int, int]) -> "BusState":
        num, den = demand
        return self._at(*lcm_sum(((self._num, self._den), (-num, den))))

    def _at(self, num: int, den: int) -> "BusState":
        bus = object.__new__(BusState)
        bus.max_load = self.max_load
        bus._num = num
        bus._den = den
        return bus


def check_comms(bus: BusState, demand: tuple[int, int]) -> AdmissionDecision:
    """Bus admission of extra message demand (data units per ms), given as
    an integer (numerator, denominator) pair."""
    num, den = lcm_sum(((bus._num, bus._den), demand))
    cap = bus.max_load
    return AdmissionDecision(num * cap.denominator <= cap.numerator * den,
                             Fraction(num, den))


def available_transfer_bandwidth(bus: BusState) -> Fraction:
    """What max_load leaves unreserved, never below 0."""
    cap = bus.max_load
    free = cap.numerator * bus._den - bus._num * cap.denominator
    return Fraction(max(free, 0), cap.denominator * bus._den)


def transfer_time(payload, bandwidth) -> int:
    """Microseconds to move payload data units at bandwidth units/ms.

    Rounded up to the clock quantum. Zero payload takes zero time; a
    positive payload with zero bandwidth raises NoBandwidth (the caller
    stalls the transfer until bandwidth frees up). A float is read via its
    decimal text, as ``frac`` reads a document.
    """
    payload = frac(payload)
    if payload < 0:
        raise ValueError("negative payload")
    if payload == 0:
        return 0
    bandwidth = frac(bandwidth)
    if bandwidth <= 0:
        raise NoBandwidth(f"no residual bus bandwidth for payload {payload}")
    # ceil(payload / bandwidth * 1000), in integers
    return -(-(payload.numerator * bandwidth.denominator * 1000)
             // (payload.denominator * bandwidth.numerator))
