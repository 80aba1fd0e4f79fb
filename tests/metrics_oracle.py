"""The oracle of metrics.json: the document it describes, as plain values.

``lanesim.cli.metrics_chunks`` writes metrics.json from the fixed shape of
this document; the tests check that its text is
``json.dumps(metrics_document(result), indent=2, sort_keys=True) + "\\n"``.
Every dict here is keyed by a string (a task or application id as
``str``) and none is sorted: ``sort_keys`` alone orders the text.
"""

from lanesim.reconfig import Outcome
from lanesim.sim import SimResult
from lanesim.timebase import US_PER_MS


def _ms(us: int | None):
    return None if us is None else us / US_PER_MS


def metrics_document(result: SimResult) -> dict:
    counts = result.outcome_counts()
    records = []
    for rec in result.records:
        records.append({
            "record_id": rec.record_id,
            "app": rec.app_id,
            "outcome": rec.outcome.value,
            "strategy": rec.strategy.value,
            "failed_copies": list(rec.failed_copy_ids),
            "t_f_ms": _ms(rec.t_f_us),
            "t_r_ms": _ms(rec.t_r_us),
            "t_i_ms": _ms(rec.t_i_us),
            "t_s_ms": _ms(rec.t_s_us),
            "t_e_ms": _ms(rec.t_e_us),
            "t_a_ms": _ms(rec.t_a_us),
            "placements": {str(t): [lane, proc]
                           for t, (lane, proc) in rec.placements.items()},
            "degraded_tasks": list(rec.degraded_tasks),
        })
    risk = {}
    for app_id, report in result.risk.items():
        risk[str(app_id)] = {
            "total_ms": _ms(report.total_us),
            "intervals": [
                {"start_ms": _ms(s), "end_ms": _ms(e), "closed": closed}
                for s, e, closed in report.intervals
            ],
            "secondary_hits": [
                {"record_id": rid, "at_ms": _ms(at)}
                for rid, at in report.secondary_hits
            ],
        }
    coverage_final = {
        str(app_id): {"functional": f.label, "zonal": z.label, "peripheral": p.label}
        for app_id, (f, z, p) in result.final_coverage.items()
    }
    return {
        "format_version": 1,
        "seed": result.seed,
        "horizon_ms": _ms(result.horizon_us),
        "summary": {
            "readmitted": counts[Outcome.READMITTED],
            "degraded": counts[Outcome.DEGRADED_DUPLEX],
            "abandoned": counts[Outcome.ABANDONED],
            "records": len(result.records),
            "deadline_misses": result.counters["deadline_misses"],
        },
        "records": records,
        "risk": risk,
        "coverage_final": coverage_final,
        "counters": dict(result.counters),
    }
