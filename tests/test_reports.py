"""The report writers against their oracles.

``write_outputs`` streams metrics.json from the fixed shape of its
document and renders each trace.tsv line in one step from its raw row.
These tests hold both to the general definitions they replace:
metrics.json is ``json.dumps`` of ``metrics_oracle.metrics_document``, and
every trace line is ``lanesim.sim.render`` of its row, joined by tabs. So
``ROW_TEXTS`` and ``render`` stay the one definition of a row's text.
"""

import json
import tracemalloc

import pytest

from lanesim.cli import TRACE_HEADER, write_outputs
from lanesim.coverage import CoverageLevel, RiskReport
from lanesim.model import StateStrategy
from lanesim.reconfig import Outcome, ReconfigRecord
from lanesim.scenario import generate_scenario, load_scenario, parse_scenario
from lanesim.sim import SimResult, render, run

from metrics_oracle import metrics_document
from golden.generated import SEEDS, generated_scenario
from golden.rehash import SCENARIOS

GOLDENS = sorted(p.stem for p in SCENARIOS.glob("*.json"))
FIRST_SEEDS = range(SEEDS.start, SEEDS.stop, 20)


def _corpus(part):
    """The results of one golden by name, or of 20 generated seeds from
    the first one."""
    if isinstance(part, str):
        return [run(load_scenario(SCENARIOS / f"{part}.json"))]
    return [run(generated_scenario(seed))
            for seed in range(part, min(part + 20, SEEDS.stop))]


def _stdlib_metrics(result) -> str:
    return json.dumps(metrics_document(result), indent=2, sort_keys=True) + "\n"


def _written(result, out_dir, name) -> str:
    write_outputs(result, out_dir)
    return (out_dir / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("part", [*GOLDENS, *FIRST_SEEDS])
def test_metrics_json_is_the_stdlib_text_of_its_document(part, tmp_path):
    for i, result in enumerate(_corpus(part)):
        assert _written(result, tmp_path / str(i), "metrics.json") == _stdlib_metrics(result)


def _rendered_line(row) -> str:
    at, kind, *scope, detail = render(row)
    return "\t".join([str(at), kind, *["-" if c is None else str(c) for c in scope],
                      detail or "-"])


@pytest.mark.parametrize("part", [*GOLDENS, *FIRST_SEEDS])
def test_every_trace_line_is_its_rendered_row(part, tmp_path):
    for i, result in enumerate(_corpus(part)):
        lines = _written(result, tmp_path / str(i), "trace.tsv").split("\n")
        assert lines[:2] == [TRACE_HEADER, "time_us\tkind\tlane\tproc\tapp\ttask\tdetail"]
        assert lines[2:] == [*map(_rendered_line, result.rows), ""]


def _record(record_id, app_id, **fields) -> ReconfigRecord:
    fields.setdefault("outcome", Outcome.READMITTED)
    return ReconfigRecord(record_id, app_id, (3, 12), StateStrategy.HYBRID, **fields)


_LEVELS = (CoverageLevel.TRIPLEX, CoverageLevel.NONE, CoverageLevel.QUADRUPLEX)
_COUNTERS = {"releases": 7, "deadline_misses": 2, "vote_rounds": 0}

# hand-built results for what the corpus may never write: ids whose text
# sorts apart from their number, empty containers, null timestamps, and
# times below a millisecond or too large for a plain decimal
EDGES = {
    "string order": SimResult(
        seed=3, horizon_us=100_000,
        records=[_record(1, 10, placements={10: (0, 2), 9: (1, 1), 100: (2, 0)},
                         degraded_tasks=(11, 2), t_f_us=5, t_r_us=999, t_a_us=1000),
                 _record(2, 2, outcome=Outcome.DEGRADED_DUPLEX, t_f_us=7)],
        risk={2: RiskReport(5, 5, [(1, 6, True)], [(2, 7)]),
              10: RiskReport(3, 3, [(5, 8, False)], []),
              11: RiskReport()},
        counters=_COUNTERS,
        final_coverage={11: _LEVELS, 2: _LEVELS, 10: _LEVELS[::-1]}),
    "empty": SimResult(seed=0, horizon_us=1, counters={"deadline_misses": 0}),
    "empty members": SimResult(
        seed=0, horizon_us=20_000,
        records=[ReconfigRecord(4, 1, (), StateStrategy.TRANSFER, Outcome.ABANDONED)],
        risk={1: RiskReport()}, counters={"deadline_misses": 0}),
    "null timestamps": SimResult(
        seed=-1, horizon_us=10,
        records=[_record(1, 1, t_f_us=None, t_e_us=None)],
        risk={1: RiskReport(0, 0, [(0, None, False)], [(1, None)])},
        counters=_COUNTERS),
    "sub-ms and large": SimResult(
        seed=2**40, horizon_us=10**22,
        records=[_record(1, 1, t_f_us=1, t_r_us=10, t_i_us=123_456_789,
                         t_s_us=10**17, t_e_us=2**53 + 1, t_a_us=10**22)],
        risk={1: RiskReport(10**22 - 1, 10**22 - 1, [(1, 10**22, True)],
                            [(1, 999_999_999_999)])},
        counters=_COUNTERS),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_metrics_json_edge_cases_are_the_stdlib_text(name, tmp_path):
    result = EDGES[name]
    assert _written(result, tmp_path, "metrics.json") == _stdlib_metrics(result)


def test_ids_are_ordered_as_text(tmp_path):
    text = _written(EDGES["string order"], tmp_path, "metrics.json")
    assert text.index('"10": [') < text.index('"100": [') < text.index('"9": [')
    assert text.index('"10": {') < text.index('"11": {') < text.index('"2": {')


def test_the_streamed_writer_holds_at_most_twice_its_largest_file(tmp_path):
    # a fault_storm-shape scenario: building each file whole, as json.dumps
    # does, kept about four times the largest file alive
    doc = generate_scenario(lanes=4, procs=10, apps=8, seed=1003, faults=40,
                            horizon_ms=100)
    result = run(parse_scenario(doc))
    tracemalloc.start()
    try:
        written = write_outputs(result, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(path.stat().st_size for path in written)
    assert largest > 40_000
    assert peak <= 2 * largest, (peak, largest)
