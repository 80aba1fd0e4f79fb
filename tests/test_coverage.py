"""Coverage levels and time-at-risk accounting."""

from hypothesis import example, given, strategies as st

from lanesim.coverage import (
    CoverageLevel,
    coverage,
    functional_coverage,
    peripheral_coverage,
    time_at_risk,
    zonal_coverage,
)
from lanesim.model import StateStrategy
from lanesim.reconfig import Copy, Health, Outcome, ReconfigRecord, ReplicaGroup


def _group(placements, task_ids=(1,)):
    """placements: iterable of (task_id, lane, proc, health)."""
    copies = {task_id: [] for task_id in task_ids}
    for i, (t, lane, proc, health) in enumerate(placements, start=1):
        copies[t].append(Copy(copy_id=i, app_id=1, task_id=t, lane=lane,
                              proc=proc, health=health))
    return ReplicaGroup(app_id=1, copies=copies)


def _record(record_id, app_id, outcome, t_f, t_a=None):
    return ReconfigRecord(
        record_id=record_id, app_id=app_id, failed_copy_ids=(1,),
        strategy=StateStrategy.TRANSFER, outcome=outcome,
        t_f_us=t_f, t_r_us=t_f, t_a_us=t_a)


def test_levels_order_and_labels():
    assert (CoverageLevel.NONE < CoverageLevel.SIMPLEX < CoverageLevel.DUPLEX
            < CoverageLevel.TRIPLEX < CoverageLevel.QUADRUPLEX)
    assert CoverageLevel.DUPLEX.label == "duplex"
    assert CoverageLevel.NONE.label == "none"


def test_functional_coverage_counts_active_copies():
    group = _group([(1, 0, 0, Health.ACTIVE),
                    (1, 1, 0, Health.ACTIVE),
                    (1, 2, 0, Health.ACTIVE)])
    assert functional_coverage(group) is CoverageLevel.TRIPLEX


def test_functional_coverage_is_the_weakest_task():
    group = _group([(1, 0, 0, Health.ACTIVE),
                    (1, 1, 0, Health.ACTIVE),
                    (1, 2, 0, Health.ACTIVE),
                    (2, 0, 0, Health.ACTIVE),
                    (2, 1, 0, Health.SHUTDOWN)],
                   task_ids=(1, 2))
    assert functional_coverage(group) is CoverageLevel.SIMPLEX


def test_policed_and_restabilizing_copies_do_not_count():
    group = _group([(1, 0, 0, Health.ACTIVE),
                    (1, 1, 0, Health.POLICED),
                    (1, 2, 0, Health.RESTABILIZING)])
    assert functional_coverage(group) is CoverageLevel.SIMPLEX


def test_zonal_coverage_counts_distinct_lanes():
    same_lane = _group([(1, 0, 0, Health.ACTIVE),
                        (1, 0, 1, Health.ACTIVE),
                        (1, 0, 2, Health.ACTIVE)])
    assert functional_coverage(same_lane) is CoverageLevel.TRIPLEX
    assert zonal_coverage(same_lane) is CoverageLevel.SIMPLEX

    spread = _group([(1, 0, 0, Health.ACTIVE),
                     (1, 1, 0, Health.ACTIVE),
                     (1, 1, 1, Health.ACTIVE)])
    assert zonal_coverage(spread) is CoverageLevel.DUPLEX


def test_lost_task_floors_coverage_at_none():
    group = _group([(2, 0, 0, Health.ACTIVE)], task_ids=(1, 2))
    assert functional_coverage(group) is CoverageLevel.NONE
    assert zonal_coverage(group) is CoverageLevel.NONE


def _two_scan_levels(group):
    """The functional and zonal levels written as two scans of the copies."""
    def level(counts):
        return CoverageLevel(min(min(counts), 4)) if counts else CoverageLevel.NONE
    return (
        level([sum(1 for c in copies if c.health is Health.ACTIVE)
               for copies in group.copies.values()]),
        level([len({c.lane for c in copies if c.health is Health.ACTIVE})
               for copies in group.copies.values()]))


# per task, its copies as (lane, health): up to seven copies over four
# lanes, so several share a lane and a task can have none active
_TASKS = st.lists(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(Health)),
                           max_size=7),
                  max_size=4)


@given(_TASKS)
@example([])
@example([[]])
@example([[(0, Health.ACTIVE)] * 5, [(lane, Health.ACTIVE) for lane in range(4)]])
@example([[(lane, health) for lane in range(4) for health in Health]])
def test_one_pass_coverage_equals_the_two_scans(tasks):
    group = _group([(t, lane, 0, health)
                    for t, copies in enumerate(tasks, start=1)
                    for lane, health in copies],
                   task_ids=range(1, len(tasks) + 1))
    want = _two_scan_levels(group)
    assert coverage(group) == want
    assert (functional_coverage(group), zonal_coverage(group)) == want


def test_peripheral_coverage_caps_at_quadruplex():
    assert peripheral_coverage(0) is CoverageLevel.NONE
    assert peripheral_coverage(2) is CoverageLevel.DUPLEX
    assert peripheral_coverage(7) is CoverageLevel.QUADRUPLEX


def test_time_at_risk_closes_readmitted_windows():
    records = [_record(1, 1, Outcome.READMITTED, 60_000, 120_000)]
    risk = time_at_risk(records, horizon_us=200_000)
    assert risk[1].total_us == 60_000
    assert risk[1].intervals == [(60_000, 120_000, True)]
    assert risk[1].secondary_hits == []


def test_time_at_risk_clips_open_windows_at_the_horizon():
    records = [_record(1, 1, Outcome.DEGRADED_DUPLEX, 60_000),
               _record(2, 2, Outcome.ABANDONED, 150_000)]
    risk = time_at_risk(records, horizon_us=200_000)
    assert risk[1].intervals == [(60_000, 200_000, False)]
    assert risk[1].total_us == 140_000
    assert risk[2].intervals == [(150_000, 200_000, False)]
    assert risk[2].total_us == 50_000


def test_second_fault_inside_an_open_window_is_a_secondary_hit():
    records = [_record(1, 1, Outcome.READMITTED, 60_000, 120_000),
               _record(2, 1, Outcome.READMITTED, 80_000, 160_000)]
    risk = time_at_risk(records, horizon_us=200_000)
    assert (2, 80_000) in risk[1].secondary_hits
    # the first fault precedes the second window, so it is not a hit itself
    assert all(rid != 1 for rid, _ in risk[1].secondary_hits)
    assert risk[1].total_us == 60_000 + 80_000


def test_windows_for_different_apps_never_interact():
    records = [_record(1, 1, Outcome.READMITTED, 60_000, 120_000),
               _record(2, 2, Outcome.READMITTED, 80_000, 160_000)]
    risk = time_at_risk(records, horizon_us=200_000)
    assert risk[1].secondary_hits == []
    assert risk[2].secondary_hits == []


def test_boundary_touch_is_not_a_secondary_hit():
    # the second fault lands exactly when the first window closes
    records = [_record(1, 1, Outcome.READMITTED, 60_000, 120_000),
               _record(2, 1, Outcome.READMITTED, 120_000, 180_000)]
    risk = time_at_risk(records, horizon_us=200_000)
    assert risk[1].secondary_hits == []


def test_exposed_time_is_the_union_of_overlapping_windows():
    # [60, 120) and [80, 160) ms overlap for 40 ms: the sum counts that twice
    records = [_record(1, 1, Outcome.READMITTED, 60_000, 120_000),
               _record(2, 1, Outcome.READMITTED, 80_000, 160_000)]
    risk = time_at_risk(records, horizon_us=200_000)
    assert risk[1].total_us == 60_000 + 80_000
    assert risk[1].exposed_us == 160_000 - 60_000


def test_exposed_time_of_disjoint_or_nested_windows():
    records = [_record(1, 1, Outcome.READMITTED, 10_000, 20_000),
               _record(2, 1, Outcome.READMITTED, 30_000, 90_000),
               _record(3, 1, Outcome.READMITTED, 40_000, 50_000),
               _record(4, 1, Outcome.DEGRADED_DUPLEX, 90_000)]
    risk = time_at_risk(records, horizon_us=100_000)
    assert risk[1].total_us == 10_000 + 60_000 + 10_000 + 10_000
    # the third window lies inside the second; the fourth starts as the
    # second closes
    assert risk[1].exposed_us == 10_000 + 60_000 + 10_000


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 40),
                          st.booleans()), max_size=6))
def test_exposed_time_counts_each_microsecond_once(draws):
    records = [_record(i, 1, Outcome.READMITTED if closed
                       else Outcome.ABANDONED, t_f, t_f + length)
               for i, (t_f, length, closed) in enumerate(draws, start=1)]
    risk = time_at_risk(records, horizon_us=100)
    if not records:
        assert risk == {}
        return
    covered = set()
    for start, end, _ in risk[1].intervals:
        covered.update(range(start, end))
    assert risk[1].exposed_us == len(covered) <= risk[1].total_us
