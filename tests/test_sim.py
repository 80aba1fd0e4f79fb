"""The event-driven engine, its scheduler, and the measurement helpers.

The scheduling tests lean on a one-microsecond-at-a-time oracle that is
too slow for real work but obviously correct, so the fast event-driven
paths can be checked against it on small task sets.
"""

import dataclasses
import gc
import heapq
import json
import math
import random
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lanesim import sim
from lanesim.cli import trace_lines, write_outputs
from lanesim.coverage import CoverageLevel, CoverageSample
from lanesim.fault import FaultTarget, TargetKind
from lanesim.model import TaskSpec, TimingConfig
from lanesim.reconfig import Outcome
from lanesim.scenario import generate_scenario, load_scenario, parse_scenario
from lanesim.timing import ProcessorState, admit_task
from lanesim.sim import (
    CompletionRecord,
    DeadlineMissRecord,
    Engine,
    EventKind,
    ROW_TEXTS,
    ScenarioInvalid,
    SimResult,
    TraceEvent,
    render,
    run,
)
from lanesim.jitter import InsufficientInstances, measure_jitter
from lanesim.processor import schedule_processor

from metrics_oracle import metrics_document
from oracles import contains, message_demand
from scenario_builders import (
    lane_fault,
    proc_fault,
    scen,
    scenario_doc,
    single_app_system,
    triplex_system,
)
from golden.generated import SEEDS, generated_scenario
from golden.rehash import SCENARIOS


def _spec(task_id, wcet_us, period_us, deadline_us=None):
    return TaskSpec(task_id=task_id, wcet_us=wcet_us, period_us=period_us,
                    deadline_us=deadline_us or period_us, initial_proc=0)


def tick_schedule(tasks, window_us, background_us=0):
    """Fixed-priority preemptive scheduling, one microsecond per step."""
    rank = {t.task_id: r for r, t in enumerate(
        sorted(tasks, key=lambda t: (t.deadline_us, t.task_id)))}
    by_id = {t.task_id: t for t in tasks}
    jobs = {}       # task_id -> [remaining_us, release_us]
    completions, misses = [], []
    backlog = background_us
    background_done = None
    for now in range(window_us + 1):
        for tid, job in list(jobs.items()):
            if now == job[1] + by_id[tid].deadline_us and job[0] > 0:
                misses.append((tid, job[1], now))
                del jobs[tid]
        if now == window_us:
            break
        for t in tasks:
            if now % t.period_us == 0:
                jobs[t.task_id] = [t.wcet_us, now]
        ready = [tid for tid, job in jobs.items() if job[0] > 0]
        if ready:
            tid = min(ready, key=lambda i: rank[i])
            jobs[tid][0] -= 1
            if jobs[tid][0] == 0:
                completions.append((tid, jobs[tid][1], now + 1))
                del jobs[tid]
        elif backlog > 0:
            backlog -= 1
            if backlog == 0:
                background_done = now + 1
    return completions, misses, background_done


@pytest.mark.parametrize("tasks,window", [
    ([_spec(1, 2, 5), _spec(2, 1, 3)], 30),
    ([_spec(1, 3, 4), _spec(2, 2, 4)], 24),           # overloaded
    ([_spec(1, 2, 10, 4), _spec(2, 3, 5)], 40),       # constrained deadline
    ([_spec(1, 1, 7), _spec(2, 2, 5), _spec(3, 3, 9)], 63),
])
def test_processor_schedule_matches_tick_oracle(tasks, window):
    want_done, want_miss, _ = tick_schedule(tasks, window)
    got = schedule_processor(tasks, window)
    assert sorted(got.completions) == sorted(want_done)
    assert sorted(got.misses) == sorted(want_miss)


def test_processor_schedule_refuses_two_tasks_with_one_id():
    with pytest.raises(ValueError, match="task ids must be distinct"):
        schedule_processor([_spec(1, 2, 5), _spec(1, 1, 3)], 30)


@st.composite
def _small_task_sets(draw):
    """One to four tasks with distinct ids and C <= D <= T <= 30 us."""
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    tasks = []
    for task_id in ids:
        period = draw(st.integers(1, 30))
        deadline = draw(st.integers(1, period))
        tasks.append(_spec(task_id, draw(st.integers(1, deadline)), period,
                           deadline))
    return tasks


@settings(max_examples=300, deadline=None)
@given(_small_task_sets(), st.integers(1, 120), st.integers(0, 50))
def test_processor_schedule_matches_tick_oracle_on_any_small_set(
        tasks, window, background):
    want_done, want_miss, want_background = tick_schedule(tasks, window,
                                                          background)
    got = schedule_processor(tasks, window, background_us=background)
    assert got.completions == want_done
    assert sorted(got.misses) == sorted(want_miss)
    assert got.background_done_us == want_background


def test_the_reference_scheduler_lives_beside_processor():
    # lanesim exports it from lanesim.processor, its one home
    import lanesim
    import lanesim.processor
    import lanesim.sim
    assert lanesim.schedule_processor is lanesim.processor.schedule_processor
    assert not {"schedule_processor", "ProcSchedule"} & vars(lanesim.sim).keys()


def test_background_work_soaks_idle_time_exactly():
    tasks = [_spec(1, 2, 10)]
    _, _, want_done = tick_schedule(tasks, 60, background_us=13)
    got = schedule_processor(tasks, 60, background_us=13)
    assert got.background_done_us == want_done
    assert want_done is not None


def test_background_work_is_not_replaced_by_task_zero():
    # one table holds the tasks' jobs and the background job, so the
    # background job's key must be one no task id can take
    def tasks(first):
        return [_spec(first, 2, 10), _spec(first + 1, 3, 15)]
    low = schedule_processor(tasks(0), 60, background_us=13)
    high = schedule_processor(tasks(1), 60, background_us=13)
    assert [(t + 1, r, f) for t, r, f in low.completions] == high.completions
    assert low.background_done_us == high.background_done_us
    assert high.background_done_us is not None


def test_background_starves_behind_a_saturated_processor():
    got = schedule_processor([_spec(1, 10, 10)], 100, background_us=5)
    assert got.background_done_us is None


def test_completion_on_the_deadline_is_not_a_miss():
    got = schedule_processor([_spec(1, 10, 10)], 50)
    assert got.misses == []
    assert len(got.completions) == 5


# --- the engine against the same oracle ------------------------------------------


def test_each_event_kind_is_dispatched_to_its_handler_by_rank():
    # run indexes the handler tuple by the rank each heap entry carries
    engine = Engine(scen([]))
    handler = {
        EventKind.FAULT_ACTIVATE: engine._on_fault_activate,
        EventKind.FAULT_CLEAR: engine._on_fault_clear,
        EventKind.TASK_COMPLETE: engine._on_complete,
        EventKind.DEADLINE_CHECK: engine._on_deadline_check,
        EventKind.BIT_CHECK: engine._on_bit_check,
        EventKind.TASK_RELEASE: engine._on_release,
        EventKind.VOTE_ROUND: engine._on_vote_round,
        EventKind.CLASSIFY: engine._on_classify,
        EventKind.SELECTION: engine._on_selection,
        EventKind.INSTALL_DONE: engine._on_transfer_done,
        EventKind.STATE_TRANSFER_DONE: engine._on_transfer_done,
        EventKind.PILOT_APPROVAL: engine._on_pilot_approval,
        EventKind.READMIT: engine._on_readmit,
    }
    assert list(handler) == list(EventKind)
    assert [kind.rank for kind in EventKind] == list(range(len(EventKind)))
    assert engine._handlers() == tuple(handler[kind] for kind in EventKind)


def test_engine_completions_match_the_tick_oracle():
    system = single_app_system(tasks=[
        {"task_id": 1, "wcet_ms": 2, "period_ms": 5, "deadline_ms": 5,
         "initial_proc": 0, "code_size": 1, "messages": []},
        {"task_id": 2, "wcet_ms": 1, "period_ms": 4, "deadline_ms": 4,
         "initial_proc": 0, "code_size": 1, "messages": []},
    ])
    result = run(scen([], system=system, horizon_ms=40))
    specs = [_spec(1, 2000, 5000), _spec(2, 1000, 4000)]
    want_done, want_miss, _ = tick_schedule(specs, 40000)
    for lane in (0, 1, 2):
        got = sorted((c.task, c.release_us, c.finish_us)
                     for c in result.completions if c.lane == lane)
        assert got == sorted(want_done)
    assert want_miss == []
    assert result.deadline_misses == []


@pytest.mark.parametrize("seed", range(60))
def test_engine_completions_match_schedule_processor(seed):
    # fault-free, so every (lane, proc) keeps the task set it starts with;
    # generated task ids rise with the app id, so both tie-breaks agree
    doc = generate_scenario(lanes=2 + seed % 3, procs=3 + seed % 3,
                            apps=1 + seed % 4,
                            target_utilization=(0.3, 0.45, 0.6, 0.69)[seed % 4],
                            seed=seed)
    sc = parse_scenario(doc)
    result = run(sc)
    by_proc = {}
    for app in sc.model.applications:
        for t in app.tasks:
            by_proc.setdefault(t.initial_proc, []).append(t)
    for lane in sc.model.lane_ids:
        for proc, tasks in by_proc.items():
            got = sorted((c.task, c.release_us, c.finish_us)
                         for c in result.completions
                         if (c.lane, c.proc) == (lane, proc))
            want = schedule_processor(tasks, sc.settings.horizon_us)
            assert got == sorted(want.completions), (lane, proc)


@pytest.mark.parametrize("at_ms", [2.9, 3.0, 3.1])
def test_task_fault_keeps_a_completion_due_at_the_same_instant(at_ms):
    # task 2 runs 2-3 ms; the fault halts task 1's copy (already done for
    # this period), and at 3.0 ms it lands on task 2's finishing instant
    system = single_app_system(tasks=[
        {"task_id": 1, "wcet_ms": 2, "period_ms": 20, "deadline_ms": 20,
         "initial_proc": 0, "code_size": 1, "messages": []},
        {"task_id": 2, "wcet_ms": 1, "period_ms": 20, "deadline_ms": 20,
         "initial_proc": 0, "code_size": 1, "messages": []},
    ])
    fault = {"at_ms": at_ms, "kind": "transient", "duration_ms": 5,
             "target": {"kind": "task", "lane": 0, "proc": 0,
                        "app": 1, "task": 1}}
    result = run(scen([fault], system=system, horizon_ms=20))
    done = [(c.release_us, c.finish_us) for c in result.completions
            if c.lane == 0 and c.task == 2]
    assert done == [(0, 3000)]


def test_overload_misses_at_the_deadline_boundary():
    system = single_app_system(tasks=[
        {"task_id": 1, "wcet_ms": 15, "period_ms": 20, "deadline_ms": 20,
         "initial_proc": 0, "code_size": 1, "messages": []},
        {"task_id": 2, "wcet_ms": 8, "period_ms": 20, "deadline_ms": 20,
         "initial_proc": 0, "code_size": 1, "messages": []},
    ])
    doc = scenario_doc([], system=system, horizon_ms=60)
    doc["sim"]["enforce_admission"] = False
    result = run(parse_scenario(doc))
    # the lower-priority task runs out of time on every lane at exactly
    # the first deadline
    first = [m for m in result.deadline_misses if m.time_us == 20000]
    assert sorted(m.lane for m in first) == [0, 1, 2]
    assert all(m.task == 2 and m.release_us == 0 for m in first)
    # task 2 ran from 15 to 20 ms, so 3 of its 8 ms were left
    rows = [e for e in result.trace
            if e.kind == "DeadlineMiss" and e.time_us == 20000]
    assert len(rows) == 3
    assert all(e.detail == "released at 0us, 3000us of work left"
               for e in rows)


def test_initial_overload_is_rejected_up_front():
    system = single_app_system(wcet_ms=15)   # 0.75 > 0.69
    with pytest.raises(ScenarioInvalid):
        run(scen([], system=system))


def test_bus_overload_is_rejected_up_front():
    system = triplex_system()
    system["bus"] = {"max_load": 0.4}        # nine copies demand 0.45
    with pytest.raises(ScenarioInvalid):
        run(scen([], system=system))


def test_start_up_violations_are_listed_by_lane_and_processor():
    # workers 0 and 2 of every lane start over the bound and the bus over
    # its capacity: one admission line per place in lane, then processor,
    # order, then the bus line
    system = triplex_system()
    system["applications"][0]["tasks"][0]["wcet_ms"] = 15   # 0.75 on worker 0
    system["applications"][2]["tasks"][0]["wcet_ms"] = 14   # 0.70 on worker 2
    system["bus"] = {"max_load": 0.4}                       # nine copies demand 0.45
    with pytest.raises(ScenarioInvalid) as caught:
        Engine(scen([], system=system))
    assert [(v.code, v.message) for v in caught.value.violations] == [
        *(("AdmissionExceeded", f"lane {lane} processor {proc} starts at "
           f"utilization {u} over the bound 0.69")
          for lane in range(3) for proc, u in ((0, "0.7500"), (2, "0.7000"))),
        ("BusOverload", "baseline message load 0.4500 exceeds bus capacity 0.4000")]


# --- jitter measurement ------------------------------------------------


def _jitter_result():
    system = single_app_system(tasks=[
        {"task_id": 1, "wcet_ms": 1, "period_ms": 10, "deadline_ms": 10,
         "initial_proc": 0, "code_size": 1, "messages": []},
        {"task_id": 2, "wcet_ms": 2, "period_ms": 20, "deadline_ms": 8,
         "initial_proc": 0, "code_size": 1, "messages": []},
    ])
    return run(scen([], system=system, horizon_ms=60))


def test_output_jitter_from_interference():
    result = _jitter_result()
    # every other release shares its instant with the tighter-deadline
    # interferer, so completion offsets alternate between 3 ms and 1 ms
    assert measure_jitter(result, app=1, task=1, lane=0) == 2000


def test_input_jitter_measures_first_dispatch():
    result = _jitter_result()
    assert measure_jitter(result, app=1, task=1, lane=0, kind="input") == 2000
    # the interferer always starts immediately
    assert measure_jitter(result, app=1, task=2, lane=0, kind="input") == 0


def test_release_jitter_of_a_periodic_task_is_zero():
    result = _jitter_result()
    assert measure_jitter(result, app=1, task=1, lane=0, kind="release",
                          period_us=10000) == 0


@pytest.mark.parametrize("period_us", [None, 0, -10000, 0.5, 10000.0, True,
                                       "10000"])
def test_release_jitter_refuses_a_period_that_is_not_a_positive_int(
        period_us):
    result = _jitter_result()
    with pytest.raises(ValueError, match="release jitter needs period_us"):
        measure_jitter(result, app=1, task=1, lane=0, kind="release",
                       period_us=period_us)


def test_jitter_needs_two_instances():
    result = _jitter_result()
    with pytest.raises(InsufficientInstances):
        measure_jitter(result, app=1, task=1, lane=0, proc=9)


def test_jitter_checks_its_arguments_before_counting_instances():
    # with no instance at all, a wrong kind or period is still named as such
    with pytest.raises(ValueError, match="unknown jitter kind 'bogus'"):
        measure_jitter([], kind="bogus")
    with pytest.raises(ValueError, match="release jitter needs period_us"):
        measure_jitter([], kind="release", period_us=0)


def test_jitter_lives_outside_the_engine():
    # lanesim exports it from lanesim.jitter, its one home
    import lanesim
    import lanesim.jitter
    import lanesim.sim
    assert lanesim.measure_jitter is lanesim.jitter.measure_jitter
    assert lanesim.InsufficientInstances is lanesim.jitter.InsufficientInstances
    assert not {"measure_jitter", "InsufficientInstances"} & vars(lanesim.sim).keys()


# --- recovery timelines ------------------------------------------------


def test_processor_fault_full_recovery_timeline():
    result = run(scen([proc_fault()]))
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.outcome is Outcome.READMITTED
    assert (rec.t_f_us, rec.t_r_us, rec.t_i_us) == (60000, 60000, 60000)
    # install: 40 units over 9.55 units/ms; state: 80 more
    assert rec.t_s_us == 64189
    assert rec.t_e_us == 72566
    # policing needs three clean rounds on the 20 ms grid
    assert rec.t_a_us == 120000
    assert rec.placements == {1: (0, 3)}
    assert rec.ordering_ok()
    assert result.risk[1].intervals == [(60000, 120000, True)]
    assert result.risk[1].total_us == 60000
    assert result.final_coverage[1] == (CoverageLevel.TRIPLEX,
                                        CoverageLevel.TRIPLEX,
                                        CoverageLevel.TRIPLEX)


def test_processor_fault_coverage_dips_to_duplex():
    result = run(scen([proc_fault()]))
    steps = [(s.time_us, s.functional) for s in result.samples
             if s.app_id == 1]
    assert steps == [(0, CoverageLevel.TRIPLEX),
                     (60000, CoverageLevel.DUPLEX),
                     (120000, CoverageLevel.TRIPLEX)]


def test_one_shutdown_samples_an_abandoned_recovery_app_first():
    # at 30 ms of generated seed 38 a vote round isolates a sensor channel
    # of app 2, then one classification shuts down lane 1 and two
    # processors, taking active copies of apps 1 and 2 and abandoning app
    # 2's open record 1. Each app that lost an active copy is sampled once:
    # an abandoned recovery's app as it closes, then the rest by app.
    result = run(generated_scenario(38))
    closed = [row.detail for row in result.trace
              if row.time_us == 30_000 and row.kind == "RecoveryClosed"]
    assert closed[0] == "record 1: abandoned"
    assert result.records[0].app_id == 2
    assert [s.app_id for s in result.samples
            if s.time_us == 30_000] == [2, 2, 1]


def test_lane_fault_recovers_by_criticality_and_shares_the_bus():
    result = run(scen([lane_fault()]))
    by_app = {rec.app_id: rec for rec in result.records}
    assert len(by_app) == 3

    first = by_app[1]          # most critical, wins the home-lane spare race
    assert first.outcome is Outcome.READMITTED
    assert first.placements == {1: (1, 3)}
    assert (first.t_i_us, first.t_s_us, first.t_e_us) == (60000, 64167, 72501)
    assert first.t_a_us == 120000

    second = by_app[2]         # queued behind the first transfer
    assert second.outcome is Outcome.READMITTED
    assert second.placements == {2: (2, 3)}
    assert second.t_i_us == 72501
    assert (second.t_s_us, second.t_e_us) == (76668, 85002)
    assert second.t_a_us == 140000

    third = by_app[3]          # no admissible spare remains
    assert third.outcome is Outcome.DEGRADED_DUPLEX
    assert third.placements == {}
    assert third.degraded_tasks == (3,)
    assert third.t_r_us == 60000 and third.t_a_us is None

    assert result.summary().startswith("2 readmitted, 1 degraded, 0 abandoned")


def test_lane_fault_zonal_coverage_stays_duplex_after_recovery():
    result = run(scen([lane_fault()]))
    functional, zonal, peripheral = result.final_coverage[1]
    # the replacement copy lives on a surviving lane, next to its sibling
    assert functional is CoverageLevel.TRIPLEX
    assert zonal is CoverageLevel.DUPLEX
    assert peripheral is CoverageLevel.TRIPLEX


def test_transient_fault_restabilizes_in_place():
    result = run(scen([proc_fault(kind="transient", duration_ms=40)]))
    rec = result.records[0]
    assert rec.outcome is Outcome.READMITTED
    assert rec.placements == {}                    # nobody moved
    assert (rec.t_f_us, rec.t_r_us) == (60000, 60000)
    assert rec.t_e_us == 90000                     # the fault clearing
    assert rec.t_a_us == 140000                    # three clean rounds after
    kinds = [e.kind for e in result.trace]
    assert "SpareSelected" not in kinds


def test_a_restabilization_ends_when_its_last_cause_clears():
    # two transient faults halt processor (0, 0) from 50 ms, one for 20 ms
    # and one for 60 ms: its copy runs again only when the second clears
    result = run(scen([proc_fault(kind="transient", duration_ms=20),
                       proc_fault(kind="transient", duration_ms=60)]))
    rec = result.records[0]
    # a restabilization loses no copy
    assert (rec.record_id, bool(rec.lost), rec.cause_ids) == (1, False, (0, 1))
    assert rec.t_e_us == 110000
    assert rec.outcome is Outcome.READMITTED and rec.t_a_us > rec.t_e_us


def test_same_instant_transient_and_permanent_shutdowns_open_two_episodes():
    # one vote round shuts down application 1's lane-0 copy for a transient
    # fault and its lane-1 copy for a permanent one: the lane-0 copy
    # restabilizes in place and only the lane-1 copy is replaced
    result = run(scen([proc_fault(at_ms=50, lane=0, kind="transient",
                                  duration_ms=30),
                       proc_fault(at_ms=50, lane=1)]))
    recs = [r for r in result.records if r.app_id == 1]
    # a reconfiguration loses its copies; a restabilization loses none
    assert [(r.record_id, bool(r.lost), r.t_f_us) for r in recs] == [
        (1, True, 60000), (2, False, 60000)]
    reconfig, restabilize = recs
    assert reconfig.failed_copy_ids == (2,) and restabilize.failed_copy_ids == (1,)
    assert reconfig.placements == {1: (1, 3)}
    assert {r.outcome for r in recs} == {Outcome.READMITTED}
    final = result.final_coverage[1]
    assert final[:2] == (CoverageLevel.TRIPLEX, CoverageLevel.TRIPLEX)


def test_a_permanent_shutdown_withdraws_a_restabilizing_copy():
    # copy 1 restabilizes in place from 40 ms; at 70 ms BIT catches a
    # permanent fault on its processor: the restabilization ends there and
    # a reconfiguration replaces the copy on the lane's spare
    result = run(scen([proc_fault(at_ms=30, kind="transient", duration_ms=60),
                       proc_fault(at_ms=70, kind="permanent",
                                  bit_detectable=True)],
                      sim={"bit_period_ms": 5}))
    closed = [(e.time_us, e.detail) for e in result.trace
              if e.kind == "RecoveryClosed"]
    assert closed == [(70000, "record 1: abandoned"),
                      (140000, "record 2: readmitted")]
    restabilize, reconfig = result.records
    assert (bool(restabilize.lost), restabilize.failed_copy_ids) == (False, (1,))
    assert restabilize.outcome is Outcome.ABANDONED
    assert (bool(reconfig.lost), reconfig.failed_copy_ids) == (True, (1,))
    assert reconfig.t_f_us == 70000
    assert reconfig.placements == {1: (0, 3)}
    assert reconfig.outcome is Outcome.READMITTED
    assert reconfig.t_a_us == 140000


def test_a_spare_shut_down_during_transfer_gets_no_copy():
    # the spare (0, 3) is chosen at 40 ms and shut down at 42 ms, while the
    # code and state are still in transfer: nothing is spawned on it, and
    # its admission entry and bus demand are given back
    engine = Engine(scen([proc_fault(at_ms=30),
                          proc_fault(at_ms=42, proc=3, bit_detectable=True)],
                         sim={"bit_period_ms": 1}))
    result = engine.run()
    [rec] = result.records
    assert rec.outcome is Outcome.DEGRADED_DUPLEX
    assert rec.placements == {} and rec.degraded_tasks == (1,)
    assert rec.t_e_us == 52566 and rec.t_a_us is None
    assert [(e.time_us, e.kind, e.lane, e.proc, e.detail) for e in result.trace
            if e.time_us == 52566] == [
        (52566, "StateTransferDone", None, None,
         "transfer state ready; no copy starts, every chosen spare is shut down"),
        (52566, "DegradeToDuplex", 0, 3, "spare shut down before the copy started"),
        (52566, "RecoveryClosed", None, None, "record 1: degraded_duplex")]
    in_service = [rt for rts in engine.groups[1].values() for rt in rts]
    assert sorted(rt.place for rt in in_service) == [(1, 0), (2, 0)]
    assert len(engine.sets[(0, 3)].admitted) == 0
    assert engine.bus.current_load == sum(
        message_demand(rt.spec) for group in engine.groups.values()
        for rts in group.values() for rt in rts)
    assert result.final_coverage[1][0] is CoverageLevel.DUPLEX


def test_pilot_gate_delays_restabilized_readmission():
    doc = scenario_doc([proc_fault(kind="transient", duration_ms=40)],
                       policies={"pilot_gate": True,
                                 "pilot_approvals": [
                                     {"at_ms": 150, "lane": 0, "proc": 0}]})
    rec = run(parse_scenario(doc)).records[0]
    assert rec.outcome is Outcome.READMITTED
    assert rec.t_a_us == 150000


def test_pilot_gate_without_approval_abandons():
    doc = scenario_doc([proc_fault(kind="transient", duration_ms=40)],
                       policies={"pilot_gate": True, "pilot_approvals": []})
    rec = run(parse_scenario(doc)).records[0]
    assert rec.outcome is Outcome.ABANDONED
    assert rec.t_a_us is None
    assert rec.t_e_us == 90000


def test_pilot_gate_does_not_touch_reconfigured_copies():
    doc = scenario_doc([proc_fault()],
                       policies={"pilot_gate": True, "pilot_approvals": []})
    rec = run(parse_scenario(doc)).records[0]
    # replacement copies answer to policing alone
    assert rec.outcome is Outcome.READMITTED
    assert rec.t_a_us == 120000


def test_a_gated_readmission_is_queued_once():
    # policing goes on while a restabilized copy waits for its approval, and
    # its streak stays at or past its length: the readmission is queued on
    # the round the streak reaches it, and pops once
    popped = []

    class Counting(Engine):
        def _handlers(self):
            handlers = list(super()._handlers())
            readmit = handlers[EventKind.READMIT.rank]

            def counted(data):
                if not isinstance(data, tuple):     # a copy, not a channel
                    popped.append(data.copy_id)
                readmit(data)

            handlers[EventKind.READMIT.rank] = counted
            return tuple(handlers)

    Counting(load_scenario(SCENARIOS / "pilot_gate_queued_readmits.json")).run()
    assert {copy_id: popped.count(copy_id) for copy_id in popped} == {
        5: 1, 9: 1, 10: 1, 11: 1}


# --- detection variants ------------------------------------------------


def test_bit_catches_a_detectable_fault_first():
    # default BIT period 25 ms, fault at 50 ms: caught on the spot,
    # ten milliseconds before the next vote round
    result = run(scen([proc_fault(bit_detectable=True)]))
    rec = result.records[0]
    assert rec.t_f_us == 50000
    assert rec.t_a_us == 120000
    assert any(e.kind == "Detection" and "bit" in e.detail
               for e in result.trace)


def test_bit_probability_zero_leaves_detection_to_voting():
    doc = scenario_doc([proc_fault(bit_detectable=True)])
    doc["sim"]["bit_detect_probability"] = 0.0
    rec = run(parse_scenario(doc)).records[0]
    assert rec.t_f_us == 60000


def test_bit_leaves_alone_a_fault_that_voting_already_shut_down():
    # BIT runs at 25, 50 and 75 ms. The 60 ms vote round shuts both halted
    # processors down to restabilize; at 75 ms both faults are still
    # active inside those scopes, and BIT must not catch them again.
    result = run(scen([
        proc_fault(at_ms=51, kind="transient", duration_ms=40,
                   bit_detectable=True),
        proc_fault(at_ms=51, lane=1, proc=1, kind="transient",
                   duration_ms=40, bit_detectable=True)]))
    assert result.counters["detections"] == 2
    assert result.counters["shutdowns"] == 2
    assert not any("bit caught" in e.detail for e in result.trace)


def test_symmetric_byzantine_is_outvoted_in_triplex():
    fault = {"at_ms": 50, "kind": "byzantine", "value_skew": 5.0,
             "target": {"kind": "task", "lane": 0, "proc": 0,
                        "app": 1, "task": 1}}
    result = run(scen([fault]))
    rec = result.records[0]
    assert rec.t_f_us == 60000
    assert rec.outcome is Outcome.READMITTED


def test_per_receiver_byzantine_hides_in_triplex():
    fault = {"at_ms": 50, "kind": "byzantine", "value_skew": 5.0,
             "per_receiver": True,
             "target": {"kind": "task", "lane": 0, "proc": 0,
                        "app": 1, "task": 1}}
    result = run(scen([fault]))
    assert result.records == []
    assert result.counters["detections"] == 0
    ambiguous = [e for e in result.trace
                 if e.kind == "VoteRound" and "ambiguous" in e.detail]
    assert ambiguous


def test_per_receiver_byzantine_is_isolated_with_four_lanes():
    system = single_app_system(lanes=4)
    fault = {"at_ms": 50, "kind": "byzantine", "value_skew": 5.0,
             "per_receiver": True,
             "target": {"kind": "task", "lane": 2, "proc": 0,
                        "app": 1, "task": 1}}
    result = run(scen([fault], system=system))
    rec = result.records[0]
    assert rec.t_f_us == 60000
    assert rec.outcome is Outcome.READMITTED
    detections = [e for e in result.trace if e.kind == "Detection"]
    assert len(detections) == 1
    assert detections[0].lane == 2


def _row_scope(e) -> FaultTarget:
    if e.task is not None:
        return FaultTarget(TargetKind.TASK, lane=e.lane, proc=e.proc,
                           app=e.app, task=e.task)
    if e.proc is not None:
        return FaultTarget(TargetKind.PROCESSOR, lane=e.lane, proc=e.proc)
    return FaultTarget(TargetKind.LANE, lane=e.lane)


@settings(max_examples=60, deadline=None)
@given(lanes=st.sampled_from([3, 4]), seed=st.integers(0, 10_000),
       kind=st.sampled_from(["lane", "processor", "task"]),
       pick=st.integers(0, 1_000),
       skew=st.floats(0.05, 9.0), negative=st.booleans(),
       at_ms=st.integers(5, 30))
def test_one_two_faced_fault_never_shuts_down_a_healthy_place(
        lanes, seed, kind, pick, skew, negative, at_ms):
    # Lamport, Shostak & Pease: one two-faced sender among four lanes is
    # outvoted; among three the vote may come out ambiguous, but an
    # ambiguous vote implicates nobody, so no healthy lane is shut down
    doc = generate_scenario(lanes=lanes, procs=3, apps=2, seed=seed,
                            horizon_ms=120)
    app = doc["system"]["applications"][pick % len(doc["system"]["applications"])]
    task = app["tasks"][pick % len(app["tasks"])]
    target = {"kind": kind, "lane": pick % lanes}
    if kind != "lane":
        target["proc"] = task["initial_proc"]
    if kind == "task":
        target.update(app=app["app_id"], task=task["task_id"])
    doc["faults"] = [{"at_ms": at_ms, "kind": "byzantine", "per_receiver": True,
                      "value_skew": -skew if negative else skew,
                      "target": target}]
    sc = parse_scenario(doc)
    scope = sc.faults[0].target
    for e in run(sc).trace:
        if e.kind in ("Detection", "ShutdownApplied"):
            assert contains(scope, _row_scope(e)), (
                f"{e.kind} at {e.time_us}us names {_row_scope(e)} "
                f"outside the fault's {scope}")


def test_federated_loss_stands_without_reconfiguration():
    fed = {
        "architecture": "federated_quadruplex",
        "lanes": [{"lane_id": lane, "processors": [{"proc_id": 0}]}
                  for lane in range(4)],
        "bus": {"max_load": 10},
        "applications": [
            {"app_id": 1, "criticality": 0,
             "state_model": {"strategy": "transfer", "snapshot_size": 80},
             "tasks": [{"task_id": 1, "wcet_ms": 2, "period_ms": 20,
                        "deadline_ms": 20, "initial_proc": 0,
                        "code_size": 40,
                        "messages": [{"msg_id": 1, "size": 1,
                                      "period_ms": 20}]}]}],
        "timing": {"utilization_bound": 0.69, "police_rounds": 3,
                   "tolerance": 0.5},
    }
    result = run(scen([lane_fault()], system=fed))
    assert result.records == []                  # nowhere to move the work
    assert result.counters["detections"] == 1
    steps = [(s.time_us, s.functional) for s in result.samples]
    assert steps == [(0, CoverageLevel.QUADRUPLEX),
                     (60000, CoverageLevel.TRIPLEX)]


def test_sensor_fault_is_masked_and_restored():
    fault = {"at_ms": 50, "kind": "transient", "duration_ms": 60,
             "value_skew": 3.0,
             "target": {"kind": "sensor", "app": 1, "lane": 2}}
    result = run(scen([fault]))
    assert result.records == []                     # no reconfiguration
    steps = [(s.time_us, s.peripheral) for s in result.samples
             if s.app_id == 1]
    assert (60000, CoverageLevel.DUPLEX) in steps
    assert (110000, CoverageLevel.TRIPLEX) in steps
    functional = {s.functional for s in result.samples if s.app_id == 1}
    assert functional == {CoverageLevel.TRIPLEX}


def test_sensor_restore_waits_for_pilot_approval():
    fault = {"at_ms": 50, "kind": "transient", "duration_ms": 60,
             "value_skew": 3.0,
             "target": {"kind": "sensor", "app": 1, "lane": 2}}
    doc = scenario_doc([fault],
                       policies={"pilot_gate": True,
                                 "pilot_approvals": [
                                     {"at_ms": 150, "sensor": True,
                                      "app": 1, "lane": 2}]})
    result = run(parse_scenario(doc))
    steps = [(s.time_us, s.peripheral) for s in result.samples
             if s.app_id == 1]
    assert (150000, CoverageLevel.TRIPLEX) in steps
    assert all(level is not CoverageLevel.TRIPLEX
               for at, level in steps if 60000 <= at < 150000)


def _sensor_fault(at_ms, kind, duration_ms=None, lane=0):
    fault = {"at_ms": at_ms, "kind": kind, "value_skew": 3.0,
             "target": {"kind": "sensor", "app": 1, "lane": lane}}
    if duration_ms is not None:
        fault["duration_ms"] = duration_ms
    return fault


@pytest.mark.parametrize("gated", [False, True])
def test_a_sensor_channel_stays_out_while_another_fault_targets_it(gated):
    # the transient fault clears at 30 ms, but the permanent one from 15 ms
    # still targets the channel
    faults = [_sensor_fault(10, "transient", 20), _sensor_fault(15, "permanent")]
    policies = None
    if gated:
        policies = {"pilot_gate": True, "pilot_approvals": [
            {"at_ms": 35, "sensor": True, "app": 1, "lane": 0}]}
    result = run(scen(faults, policies=policies))
    steps = [(s.time_us, s.peripheral) for s in result.samples
             if s.app_id == 1]
    assert steps == [(0, CoverageLevel.TRIPLEX), (20000, CoverageLevel.DUPLEX)]
    assert result.counters["detections"] == 1
    assert not any(e.kind == "Readmit" for e in result.trace)


def _trace_with_approvals(sensor_ms, copy_ms):
    """A sensor and a processor fault, both transient, approved as listed."""
    faults = [{"at_ms": 30, "kind": "transient", "duration_ms": 20,
               "value_skew": 3.0,
               "target": {"kind": "sensor", "app": 1, "lane": 1}},
              proc_fault(at_ms=30, lane=0, proc=1, kind="transient",
                         duration_ms=25, bit_detectable=True)]
    approvals = ([{"at_ms": at, "sensor": True, "app": 1, "lane": 1}
                  for at in sensor_ms]
                 + [{"at_ms": at, "lane": 0, "proc": 1} for at in copy_ms])
    doc = scenario_doc(faults, policies={"pilot_gate": True,
                                         "pilot_approvals": approvals})
    return list(trace_lines(run(parse_scenario(doc))))


def test_the_earliest_matching_approval_counts_in_any_order():
    trace = _trace_with_approvals(sensor_ms=(180, 120), copy_ms=(180, 60))
    assert trace == _trace_with_approvals(sensor_ms=(120, 180),
                                          copy_ms=(60, 180))
    readmits = [line.split("\t")[:2] for line in trace if "\tReadmit\t" in line]
    # the copy passes policing at 100 ms, after its 60 ms approval
    assert readmits == [["100000", "Readmit"], ["120000", "Readmit"]]


# --- state strategies ------------------------------------------------


def test_convergence_strategy_ships_no_state():
    system = single_app_system(state_model={"strategy": "convergence",
                                            "convergence_rounds": 4})
    result = run(scen([proc_fault()], system=system, horizon_ms=300))
    rec = result.records[0]
    assert rec.t_e_us == rec.t_s_us          # nothing on the bus
    # four rounds to converge, then three clean rounds
    assert rec.t_a_us == 200000


def test_hybrid_strategy_ships_the_minimum_snapshot():
    system = single_app_system(state_model={
        "strategy": "hybrid", "snapshot_size": 80, "min_state_size": 30,
        "convergence_rounds": 2})
    result = run(scen([proc_fault()], system=system, horizon_ms=300))
    rec = result.records[0]
    assert 0 < rec.t_e_us - rec.t_s_us < 8000   # 30 units, not 80
    assert rec.t_a_us == 160000


def test_history_replay_defers_policing():
    system = single_app_system(state_model={
        "strategy": "transfer", "snapshot_size": 80, "history_len": 5})
    result = run(scen([proc_fault()], system=system, horizon_ms=300))
    rec = result.records[0]
    assert rec.t_a_us == 140000
    trace_kinds = [e.kind for e in result.trace]
    assert "ReplayDone" in trace_kinds
    outstanding = [e for e in result.trace
                   if e.kind == "PoliceRound" and "replay" in e.detail]
    assert outstanding


# --- the transfer bus under pressure ------------------------------------------------


def _tight_bus_system():
    # nine copies at 5 units / 20 ms each saturate the bus exactly
    system = triplex_system()
    system["bus"] = {"max_load": 2.25}
    for app in system["applications"]:
        app["tasks"][0]["messages"][0]["size"] = 5
    return system


def test_saturated_bus_stalls_the_transfer():
    result = run(scen([proc_fault()], system=_tight_bus_system()))
    rec = result.records[0]
    assert rec.outcome is Outcome.ABANDONED
    assert rec.t_r_us == 60000
    assert rec.t_i_us is None
    stalls = [e for e in result.trace if e.kind == "TransferStall"]
    assert len(stalls) == 1


def test_freed_bandwidth_wakes_a_stalled_transfer():
    faults = [proc_fault()] + [
        proc_fault(at_ms=80, lane=lane, proc=1) for lane in range(3)]
    result = run(scen(faults, system=_tight_bus_system(), horizon_ms=400))
    by_app = {rec.app_id: rec for rec in result.records}
    lost = by_app[2]
    assert lost.outcome is Outcome.ABANDONED     # every copy died at once
    woken = by_app[1]
    assert woken.outcome is Outcome.READMITTED
    assert woken.t_i_us == 80000                 # the instant demand freed
    assert woken.t_s_us == 133334                # 40 units at 0.75/ms
    assert woken.t_e_us == 240001
    assert woken.t_a_us == 300000


# --- determinism and generated scenarios ------------------------------------------------


def _document_bytes(scenario):
    result = run(scenario)
    doc = json.dumps(metrics_document(result), sort_keys=True)
    trace = "".join(trace_lines(result))
    return doc + "\n" + trace


@pytest.mark.parametrize("faults", [
    [],
    [proc_fault()],
    [lane_fault()],
    [proc_fault(kind="transient", duration_ms=40)],
])
def test_repeated_runs_are_byte_identical(faults):
    assert _document_bytes(scen(faults)) == _document_bytes(scen(faults))


def test_two_runs_of_a_golden_that_opens_a_record_compare_equal():
    # a record compares by what it reports: the copies and causes a
    # recovery keeps while it runs are each run's own, and take no part
    opened = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        first = run(load_scenario(path))
        if first.records:
            opened += 1
            assert first == run(load_scenario(path)), path.stem
    assert opened >= 38


def test_generated_scenario_replays_identically():
    doc = generate_scenario(lanes=3, procs=3, apps=2,
                            target_utilization=0.55, seed=11, faults=2)
    first = _document_bytes(parse_scenario(doc))
    second = _document_bytes(parse_scenario(doc))
    assert first == second


def test_generated_feasible_scenario_never_misses():
    doc = generate_scenario(lanes=3, procs=3, apps=2,
                            target_utilization=0.5, seed=7)
    result = run(parse_scenario(doc))
    assert result.deadline_misses == []
    assert result.counters["completions"] > 0


def _response_time(task, higher) -> int:
    """Joseph & Pandya 1986: the least fixed point of
    R = C + sum over the higher-priority tasks j of ceil(R / T_j) * C_j,
    or the first iterate past the task's deadline, since past it the fixed
    point need not exist."""
    r = task.wcet_us
    while r <= task.deadline_us:
        nxt = task.wcet_us + sum(-(-r // t.period_us) * t.wcet_us for t in higher)
        if nxt == r:
            return r
        r = nxt
    return r


def test_first_jobs_finish_at_the_response_time_fixed_point():
    # every task is released at t=0, the critical instant: each copy's first
    # job finishes exactly at its deadline-monotonic response time, and no
    # later job of a fault-free admitted run takes longer
    processors = 0
    for seed in range(8):
        doc = generate_scenario(lanes=2 + seed % 3, procs=4 + seed % 4, apps=3,
                                target_utilization=(0.3, 0.5, 0.69)[seed % 3],
                                seed=seed)
        sc = parse_scenario(doc)
        assert sc.settings.enforce_admission
        result = run(sc)
        assert result.deadline_misses == []
        hosted = {}                 # (lane, proc) -> [(app, TaskSpec)]
        for app in sc.model.applications:
            for task in app.tasks:
                for lane in sc.model.lane_ids:
                    hosted.setdefault((lane, task.initial_proc), []).append(
                        (app.app_id, task))
        worst = {}                  # (lane, proc, app, task) -> response time
        for (lane, proc), copies in hosted.items():
            # deadline-monotonic, ties by (app, task)
            copies.sort(key=lambda c: (c[1].deadline_us, c[0], c[1].task_id))
            for rank, (app_id, task) in enumerate(copies):
                r = _response_time(task, [t for _, t in copies[:rank]])
                assert r <= task.deadline_us
                worst[(lane, proc, app_id, task.task_id)] = r
        processors += len(hosted)
        first = {}
        for c in result.completions:
            copy = (c.lane, c.proc, c.app, c.task)
            assert c.finish_us - c.release_us <= worst[copy], (seed, copy)
            if c.release_us == 0:
                first[copy] = c.finish_us
        assert first == worst, seed
    assert processors >= 100


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(10, 2000), st.integers(10, 100),
                          st.integers(1, 30)), min_size=1, max_size=12),
       st.booleans())
def test_admitted_sets_meet_every_deadline(draws, customer_cap):
    # Liu & Layland 1973: a set whose density sum(C / min(D, T)) is at most
    # n(2^(1/n) - 1) >= ln 2 meets every deadline under rate (here deadline)
    # monotonic priorities, so both admission bounds admit no set that the
    # response-time analysis rejects
    cfg = (TimingConfig(utilization_bound=Fraction(1, 2)) if customer_cap
           else TimingConfig())
    assert cfg.utilization_bound <= math.log(2)
    state = ProcessorState()
    admitted = []
    for task_id, (period, deadline_pct, wcet_pct) in enumerate(draws):
        deadline = max(1, period * deadline_pct // 100)
        task = TaskSpec(task_id, max(1, deadline * wcet_pct // 100), period,
                        deadline, 0)
        if admit_task(state, task, cfg).accepted:
            state = state.with_task(task_id, task.wcet_us, period, deadline)
            admitted.append(task)
    admitted.sort(key=lambda t: (t.deadline_us, t.task_id))
    for rank, task in enumerate(admitted):
        assert _response_time(task, admitted[:rank]) <= task.deadline_us


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 3, 4, 5, 6, 8, 10, 12)),
                          st.integers(1, 100), st.integers(1, 100)),
                min_size=1, max_size=5))
def test_proven_sets_never_miss_over_a_hyperperiod(draws):
    # released together at time zero, the critical instant of constrained
    # deadlines, a set meets every deadline of its hyperperiod iff each
    # task's response-time fixed point is within its deadline: the proof is
    # exact, and it agrees with the fixed point computed here
    tasks = []
    for task_id, (period_ms, deadline_pct, wcet_pct) in enumerate(draws):
        period = period_ms * 1000
        deadline = max(1, period * deadline_pct // 100)
        tasks.append(_spec(task_id, max(1, deadline * wcet_pct // 100),
                           period, deadline))
    state = ProcessorState({t.task_id: (t.wcet_us, t.period_us, t.deadline_us)
                            for t in tasks})
    ranked = sorted(tasks, key=lambda t: (t.deadline_us, t.task_id))
    fits = all(_response_time(t, ranked[:rank]) <= t.deadline_us
               for rank, t in enumerate(ranked))
    hyperperiod = math.lcm(*(t.period_us for t in tasks))
    missed = schedule_processor(tasks, hyperperiod).misses
    assert state.proven() == fits == (not missed), (fits, missed)


def test_start_up_admitted_sets_are_shared_values():
    # every lane starts mirrored, so one processor id's places
    # start as one set with one admitted set and one ranking; admitting on
    # one place splits that place out and leaves the other lanes' set alone
    engine = Engine(scen([]))
    places = [(lane, 0) for lane in engine.model.lane_ids]
    shared = engine.sets[places[0]]
    assert shared.members == places
    assert all(engine.sets[place] is shared for place in places)
    before = (shared.admitted, len(shared.admitted),
              shared.admitted.utilization, dict(shared.prios))
    own = engine._split(places[0])
    own.admit(own.admitted.with_task((9, 9), 1000, 20000, 5000))
    assert own is not shared and own.members == [places[0]]
    assert engine.sets[places[0]] is own and shared.members == places[1:]
    assert (9, 9) in own.admitted and own.prios[(9, 9)] == 0
    assert all(engine.sets[place] is shared for place in places[1:])
    assert (shared.admitted, len(shared.admitted), shared.admitted.utilization,
            shared.prios) == before


def test_counters_agree_with_the_result_lists():
    result = run(scen([lane_fault()]))
    assert result.counters["deadline_misses"] == len(result.deadline_misses)
    assert result.counters["completions"] == len(result.completions)
    assert result.counters["detections"] >= 1
    assert result.counters["shutdowns"] >= 1


def test_completions_are_in_finish_lane_proc_order():
    # TaskComplete is keyed (lane, proc) and every wcet is positive, so the
    # records come out sorted; mirrored lanes must keep that order
    scenarios = [load_scenario(p) for p in sorted(SCENARIOS.glob("*.json"))]
    scenarios += [generated_scenario(seed) for seed in SEEDS]
    for sc in scenarios:
        got = run(sc).completions
        assert got, sc
        assert got == sorted(got, key=lambda c: (c.finish_us, c.lane, c.proc))


def test_no_two_completions_share_finish_lane_proc():
    # a place has one set and a set finishes at most one job an instant, so
    # the one sort that builds SimResult.completions is exact
    scenarios = [load_scenario(p) for p in sorted(SCENARIOS.glob("*.json"))]
    scenarios += [generated_scenario(seed) for seed in SEEDS]
    for sc in scenarios:
        keys = [(c.finish_us, c.lane, c.proc) for c in run(sc).completions]
        assert len(set(keys)) == len(keys), sc


def test_completion_records_are_built_on_first_read(monkeypatch, tmp_path):
    built = []

    def counted(*values):
        built.append(values)
        return CompletionRecord(*values)

    monkeypatch.setattr("lanesim.sim.CompletionRecord", counted)
    result = Engine(load_scenario(SCENARIOS / "mirrored_split_edges.json")).run()
    write_outputs(result, tmp_path)
    assert built == []
    got = result.completions
    assert got is result.completions
    assert len(got) == len(built) == result.counters["completions"] > 0


def _golden_results(tmp_path=None) -> dict:
    """Each hand-written golden's result, its outputs written under
    tmp_path when one is given."""
    results = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        results[path.stem] = result = Engine(load_scenario(path)).run()
        if tmp_path is not None:
            write_outputs(result, tmp_path / path.stem)
    return results


def test_trace_and_misses_are_built_on_first_read(monkeypatch, tmp_path):
    # a run keeps raw rows, and the writer renders them: no TraceEvent and
    # no DeadlineMissRecord until the result's lists are read
    built = []
    monkeypatch.setattr("lanesim.sim.TraceEvent",
                        lambda *values: built.append(values))
    monkeypatch.setattr("lanesim.sim.DeadlineMissRecord",
                        lambda *values: built.append(values))
    results = _golden_results(tmp_path)
    assert built == []
    monkeypatch.undo()
    result = results["overload_deadline_misses"]
    trace = result.trace
    assert trace is result.trace and result.deadline_misses is result.deadline_misses
    assert len(trace) == len(result.rows) > 0
    assert len(result.deadline_misses) == result.counters["deadline_misses"] > 0


def test_misses_and_trace_are_read_from_the_rows_alone():
    # a result holds its trace once, as rows; the misses are its
    # DeadlineMiss rows
    names = {f.name for f in dataclasses.fields(SimResult)}
    assert "rows" in names and not {"trace", "deadline_misses"} & names
    rows = [(5, "FaultClear", 0, 1, None, None, 3),
            (9, "DeadlineMiss", 0, 2, 1, 4, 1, 250)]
    result = SimResult(seed=0, horizon_us=10, rows=rows)
    assert result.deadline_misses == [DeadlineMissRecord(9, 0, 2, 1, 4, 1)]
    assert result.trace == [
        TraceEvent(5, "FaultClear", 0, 1, None, None, "fault 3 cleared"),
        TraceEvent(9, "DeadlineMiss", 0, 2, 1, 4,
                   "released at 1us, 250us of work left")]


def _snapshot(fact) -> bool:
    """Is the fact an immutable value: an int, an enum member, a Fraction,
    or a tuple of such?"""
    if isinstance(fact, tuple):
        return all(map(_snapshot, fact))
    return type(fact) in (int, bool, Fraction) or isinstance(fact, Enum)


def test_every_row_fact_is_a_snapshot_and_every_text_is_reached():
    # a fact kept by reference (a recovery's live placements or copies)
    # would render what it holds when read, not what it held;
    # and a text that no golden reaches is checked by nothing
    reached, kinds = set(), set()
    for name, result in _golden_results().items():
        for row in result.rows:
            reached.add(row[1])
            kinds.add(render(row)[1])
            assert all(map(_snapshot, row[6:])), (name, row)
    assert reached == set(ROW_TEXTS) and (len(reached), len(kinds)) == (22, 17)


def _garbage_left_by(scenario) -> int:
    """How many unreachable objects a run leaves, its result dropped, with
    the collector off while it runs."""
    gc.collect()
    gc.disable()
    try:
        run(scenario)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_a_golden_run_frees_itself_without_the_collector(path):
    assert _garbage_left_by(load_scenario(path)) == 0


def test_a_fault_storm_run_frees_itself_without_the_collector():
    # a copy names its episode by record id, so the episodes that forty
    # faults open and their copies form no reference cycle
    scenario = parse_scenario(generate_scenario(
        lanes=4, procs=10, apps=8, seed=1003, faults=40, horizon_ms=100))
    assert _garbage_left_by(scenario) == 0


class _PushSpy:
    """Stands in for the heapq module inside lanesim.sim, keeping each
    entry pushed."""

    def __init__(self):
        self.pushed = []
        self.heappop = heapq.heappop

    def heappush(self, heap, entry):
        self.pushed.append(entry)
        heapq.heappush(heap, entry)


def test_nothing_is_pushed_after_the_horizon_and_the_run_drains(monkeypatch):
    # the event pusher alone refuses what falls after the horizon, so a run
    # pops every entry it pushed and leaves no release instant filed
    spy = _PushSpy()
    monkeypatch.setattr(sim, "heapq", spy)
    scenarios = [(p.stem, load_scenario(p)) for p in sorted(SCENARIOS.glob("*.json"))]
    scenarios += [(f"seed {seed}", generated_scenario(seed)) for seed in SEEDS]
    for name, scenario in scenarios:
        spy.pushed = []
        engine = Engine(scenario)
        engine.run()
        late = [entry[:2] for entry in spy.pushed if entry[0] > engine.horizon]
        assert not late, f"{name}: (instant, rank) pushed after the horizon: {late[:5]}"
        assert spy.pushed and engine._heap == [] and engine._calendar == {}, name


def test_engine_set_up_builds_no_fault_target(monkeypatch):
    # places and copies are looked up by their coordinate keys; scopes are
    # the faults' and the shutdowns' own
    scenario = load_scenario(SCENARIOS / "triplex_task_permanent.json")
    built = []
    post_init = FaultTarget.__post_init__

    def counted(target):
        built.append(target)
        post_init(target)

    monkeypatch.setattr(FaultTarget, "__post_init__", counted)
    Engine(scenario)
    assert built == []


@pytest.mark.parametrize("name, draws", [("triplex_quiet", 0),
                                         ("spare_dies_in_transfer", 0),
                                         ("bit_sweep_draw_order", 1)])
def test_the_seeded_generator_is_built_on_its_first_draw(monkeypatch, name,
                                                         draws):
    # only built-in test below full detection probability draws: a
    # fault-free run and a catch at probability 1 build no generator
    built = []

    def counted(seed):
        built.append(seed)
        return random.Random(seed)

    scenario = load_scenario(SCENARIOS / f"{name}.json")
    monkeypatch.setattr("lanesim.sim.random", SimpleNamespace(Random=counted))
    Engine(scenario).run()
    assert built == [scenario.settings.seed] * draws


# --- the rows a result lists -------------------------------------------

_ROWS = [
    (CompletionRecord, dict(finish_us=9, start_us=3, release_us=1, lane=0,
                            proc=2, app=1, task=4),
     "CompletionRecord(finish_us=9, start_us=3, release_us=1, lane=0, "
     "proc=2, app=1, task=4)"),
    (DeadlineMissRecord, dict(time_us=9, lane=0, proc=2, app=1, task=4,
                              release_us=1),
     "DeadlineMissRecord(time_us=9, lane=0, proc=2, app=1, task=4, "
     "release_us=1)"),
    (TraceEvent, dict(time_us=9, kind="Classify", lane=None, proc=None,
                      app=None, task=None, detail=""),
     "TraceEvent(time_us=9, kind='Classify', lane=None, proc=None, app=None, "
     "task=None, detail='')"),
    (CoverageSample, dict(time_us=9, app_id=1,
                          functional=CoverageLevel.TRIPLEX,
                          zonal=CoverageLevel.DUPLEX,
                          peripheral=CoverageLevel.QUADRUPLEX),
     "CoverageSample(time_us=9, app_id=1, "
     "functional=<CoverageLevel.TRIPLEX: 3>, zonal=<CoverageLevel.DUPLEX: 2>, "
     "peripheral=<CoverageLevel.QUADRUPLEX: 4>)"),
]


@pytest.mark.parametrize("cls, values, text", _ROWS,
                         ids=[cls.__name__ for cls, _, _ in _ROWS])
def test_result_rows_are_slotted_value_records(cls, values, text):
    # names and order are the positional order the engine builds rows in
    assert [f.name for f in dataclasses.fields(cls)] == list(values)
    row = cls(*values.values())
    stamp = next(iter(values))
    assert row == cls(**values)
    assert row != cls(**{**values, stamp: values[stamp] + 1})
    assert repr(row) == text
    # no per-row __dict__, so a row costs its slots and nothing more
    assert not hasattr(row, "__dict__")


def test_a_trace_row_keeps_its_defaults():
    assert TraceEvent(5, "Classify") == TraceEvent(5, "Classify", None, None,
                                                   None, None, "")
