"""Command-line front end: validate, run, generate, batch.

Exit codes are part of the interface contract:

    0  success
    1  the document parsed but breaks model invariants, or the scenario
       cannot be brought into initial service
    2  the input could not be parsed at all (bad JSON, wrong shape)
    3  an output file could not be written

Output files land in --out-dir, else $LANESIM_OUT_DIR, else the working
directory: metrics.json (machine-readable results), trace.tsv (the event
trace), coverage.csv (per-application coverage step series).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .model import InvalidModel, MalformedDocument
from .reconfig import Outcome
from .scenario import (dump_json, dump_scenario, generate_scenario, load_scenario,
                       scenario_violations)
from .sim import Engine, SimResult, render, run
from .timebase import US_PER_MS, ms_to_us

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_IO = 3

OUT_DIR_ENV = "LANESIM_OUT_DIR"
TRACE_HEADER = "# format_version=1"

# A scenario that cannot be read, checked or run: its exit code, and what
# `main` and `batch` call the failure. InvalidModel includes ScenarioInvalid,
# and ValueError JSONDecodeError, UnicodeDecodeError and json's digit limit.
# An OSError comes from reading: a failed write exits 3 where it happens.
_FAILURES = {
    InvalidModel: (EXIT_INVALID, "invalid scenario", "invalid"),
    MalformedDocument: (EXIT_PARSE, "cannot parse scenario", "parse error"),
    ValueError: (EXIT_PARSE, "cannot parse scenario", "parse error"),
    OSError: (EXIT_PARSE, "cannot read scenario", "parse error"),
}


def _failure(exc: Exception) -> tuple[int, str, str]:
    return next(row for kind, row in _FAILURES.items() if isinstance(exc, kind))


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


def trace_lines(result: SimResult):
    """Each line rendered straight from its raw row: no TraceEvent is built."""
    yield TRACE_HEADER
    yield "time_us\tkind\tlane\tproc\tapp\ttask\tdetail"
    for row in result.rows:
        at, kind, lane, proc, app, task, detail = render(row)
        yield "\t".join([
            str(at), kind,
            "-" if lane is None else str(lane),
            "-" if proc is None else str(proc),
            "-" if app is None else str(app),
            "-" if task is None else str(task),
            detail or "-",
        ])


def coverage_lines(result: SimResult):
    yield "time_us,app,functional,zonal,peripheral"
    for s in result.samples:
        yield (f"{s.time_us},{s.app_id},{s.functional.label},"
               f"{s.zonal.label},{s.peripheral.label}")


def write_outputs(result: SimResult, out_dir) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    metrics = out / "metrics.json"
    metrics.write_text(dump_json(metrics_document(result)) + "\n",
                       encoding="utf-8")
    written.append(metrics)
    trace = out / "trace.tsv"
    trace.write_text("\n".join(trace_lines(result)) + "\n", encoding="utf-8")
    written.append(trace)
    coverage = out / "coverage.csv"
    coverage.write_text("\n".join(coverage_lines(result)) + "\n", encoding="utf-8")
    written.append(coverage)
    return written


def _resolve_out_dir(option) -> Path:
    if option:
        return Path(option)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(".")


def _apply_overrides(scenario, args):
    changes = {}
    if getattr(args, "horizon_ms", None) is not None:
        changes["horizon_us"] = ms_to_us(args.horizon_ms)
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if changes:
        scenario.settings = dataclasses.replace(scenario.settings, **changes)
        # an override can break what parsing checked, e.g. a horizon that
        # is not positive or that puts a scripted fault at or after it
        violations = scenario_violations(scenario)
        if violations:
            raise InvalidModel(violations)
    return scenario


def _simulate(path, args) -> SimResult:
    """Read, check and run one scenario file with the overrides applied."""
    return run(_apply_overrides(load_scenario(path), args))


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    Engine(scenario)    # the start-up admission and bus checks, not run
    model = scenario.model
    print(f"{args.scenario}: OK "
          f"({len(model.lanes)} lanes, {len(model.applications)} applications, "
          f"{len(scenario.faults)} faults)")
    return EXIT_OK


def cmd_run(args) -> int:
    result = _simulate(args.scenario, args)
    out_dir = _resolve_out_dir(args.out_dir)
    try:
        written = write_outputs(result, out_dir)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(result.summary())
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        doc = generate_scenario(
            lanes=args.lanes, procs=args.procs, apps=args.apps,
            target_utilization=args.util, seed=args.seed,
            infeasible=args.infeasible, faults=args.faults,
            horizon_ms=args.horizon_ms)
    except ValueError as exc:       # an argument out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    text = dump_scenario(doc)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_batch(args) -> int:
    root = Path(args.directory)
    paths = sorted(root.glob("*.json"))
    if not paths:
        print(f"error: no scenario files under {root}", file=sys.stderr)
        return EXIT_PARSE
    out_root = _resolve_out_dir(args.out_dir)
    worst = EXIT_OK
    ran = 0
    for path in paths:
        try:
            result = _simulate(path, args)
        except tuple(_FAILURES) as exc:
            code, _, what = _failure(exc)
            print(f"{path.name}: {what}: {exc}")
            worst = max(worst, code)
            continue
        try:
            write_outputs(result, out_root / path.stem)
        except OSError as exc:
            print(f"error: cannot write outputs for {path.name}: {exc}",
                  file=sys.stderr)
            return EXIT_IO
        ran += 1
        print(f"{path.name}: {result.summary()}")
    print(f"batch: {ran}/{len(paths)} scenarios completed")
    return worst


def _finite_ms(text: str) -> float:
    """--horizon-ms value: any finite number (its sign is checked later)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanesim",
        description="Simulate fault recovery on replicated computing lanes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="simulate a scenario and write reports")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p.add_argument("--horizon-ms", type=_finite_ms, default=None,
                   help="override the simulation horizon")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("generate", help="emit a synthetic scenario")
    p.add_argument("--lanes", type=int, default=3)
    p.add_argument("--procs", type=int, default=3,
                   help="processors per lane, one of them the spare")
    p.add_argument("--apps", type=int, default=2)
    p.add_argument("--util", type=float, default=0.5,
                   help="per-processor utilization target")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--infeasible", action="store_true",
                   help="draw an overloaded task set and disable admission")
    p.add_argument("--faults", type=int, default=0,
                   help="number of random fault injections to script")
    p.add_argument("--horizon-ms", type=_finite_ms, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("batch", help="run every scenario in a directory")
    p.add_argument("directory")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--horizon-ms", type=_finite_ms, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_FAILURES) as exc:
        code, what, _ = _failure(exc)
        print(f"error: {what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
