"""Fault-coverage levels and time-at-risk accounting.

Coverage is reported per application and is the weakest-link count over its
tasks: an application is only as replicated as its least replicated task.
Functional coverage counts active copies per task; zonal coverage counts
the distinct lanes those active copies occupy (two copies sharing a lane
survive a processor loss but not a lane loss, so zonal never exceeds
functional). Copies being policed or restabilizing have not been readmitted
and count toward neither. Peripheral coverage counts healthy sensor input
channels, which is why a sensor fault degrades it without touching
functional coverage.

Time at risk is the per-application sum of the detection-to-readmission
windows; while such a window is open the application runs one level below
strength, so a second fault inside it is flagged as a risk hit. Windows
may overlap, so the sum can exceed their union. The union is
``RiskReport.exposed_us`` and is library-only: ``metrics.json`` writes the
sum (``total_ms``), the windows and the secondary hits, not the union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .reconfig import Health, Outcome, ReconfigRecord, ReplicaGroup


class CoverageLevel(IntEnum):
    NONE = 0
    SIMPLEX = 1
    DUPLEX = 2
    TRIPLEX = 3
    QUADRUPLEX = 4

    @property
    def label(self) -> str:
        return self.name.lower()


# the levels by count: a recount looks its levels up, not through the
# enum's constructor
_LEVELS = tuple(CoverageLevel)


def _level(count: int) -> CoverageLevel:
    if count < 0:
        raise ValueError(f"{count} is not a valid CoverageLevel")
    return _LEVELS[min(count, 4)]


def coverage(group: ReplicaGroup) -> tuple[CoverageLevel, CoverageLevel]:
    """Functional and zonal coverage from one pass over the copies: the
    minimum over tasks of active copies and of the distinct lanes they sit
    in. An application with no tasks has none of either."""
    if not group.copies:
        return CoverageLevel.NONE, CoverageLevel.NONE
    functional = zonal = 4      # _level caps a count here anyway
    for copies in group.copies.values():
        lanes = [c.lane for c in copies if c.health is Health.ACTIVE]
        count = len(lanes)
        if count < functional:
            functional = count
        if count > 1:           # fewer copies than two sit in as many lanes
            count = len(set(lanes))
        if count < zonal:
            zonal = count
    return _level(functional), _level(zonal)


def functional_coverage(group: ReplicaGroup) -> CoverageLevel:
    """Minimum over the application's tasks of its active copy count."""
    return coverage(group)[0]


def zonal_coverage(group: ReplicaGroup) -> CoverageLevel:
    """Minimum over tasks of distinct lanes holding an active copy."""
    return coverage(group)[1]


def peripheral_coverage(healthy_channels: int) -> CoverageLevel:
    return _level(healthy_channels)


@dataclass(slots=True)
class CoverageSample:
    """One step in the piecewise-constant coverage timeline, built per change.
    A value row like those a SimResult builds from its raw rows when they are
    read (see ``lanesim.sim.TraceEvent``): slotted, not frozen."""

    time_us: int
    app_id: int
    functional: CoverageLevel
    zonal: CoverageLevel
    peripheral: CoverageLevel


@dataclass
class RiskReport:
    """One application's at-risk windows.

    ``total_us`` is the sum of the window lengths, so time inside two
    overlapping windows counts twice; ``metrics.json`` reports it as
    ``total_ms``. ``exposed_us`` is the length of their union: the time
    during which at least one window was open.
    """

    total_us: int = 0
    exposed_us: int = 0
    intervals: list = field(default_factory=list)          # (start_us, end_us, closed)
    secondary_hits: list = field(default_factory=list)     # (hit_record_id, at_us)


def _interval(record: ReconfigRecord, horizon_us: int):
    if record.t_f_us is None:
        return None
    if record.outcome is Outcome.READMITTED and record.t_a_us is not None:
        return (record.t_f_us, record.t_a_us, True)
    # Degraded or abandoned recoveries never restore strength: the window
    # stays open and is clipped at the horizon.
    return (record.t_f_us, horizon_us, False)


def _union_us(spans) -> int:
    covered = reach = 0
    for start, end, _closed in sorted(spans):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def time_at_risk(records: list[ReconfigRecord], horizon_us: int) -> dict[int, RiskReport]:
    """Per-application at-risk windows, totals, and secondary-fault hits."""
    out: dict[int, RiskReport] = {}
    per_app: dict[int, list] = {}
    for rec in records:
        per_app.setdefault(rec.app_id, []).append(rec)
    for app_id, recs in sorted(per_app.items()):
        report = RiskReport()
        spans = []
        for rec in recs:
            span = _interval(rec, horizon_us)
            if span is None:
                continue
            spans.append((rec, span))
            report.intervals.append(span)
            report.total_us += span[1] - span[0]
        report.exposed_us = _union_us(report.intervals)
        for rec, _ in spans:
            for other, (start, end, _closed) in spans:
                if other is rec:
                    continue
                if start < rec.t_f_us < end:
                    report.secondary_hits.append((rec.record_id, rec.t_f_us))
                    break
        out[app_id] = report
    return out
