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
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .coverage import CoverageLevel
from .model import InvalidModel, MalformedDocument
from .reconfig import Outcome
from .scenario import dump_scenario, generate_scenario, load_scenario, scenario_violations
from .sim import ROW_TEXTS, Engine, SimResult, run
from .timebase import US_PER_MS, ms_to_us

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_IO = 3

OUT_DIR_ENV = "LANESIM_OUT_DIR"
TRACE_HEADER = "# format_version=1"
_LABELS = tuple(level.label for level in CoverageLevel)    # by the level's int
_KINDS = {text: text.partition(".")[0] for text in ROW_TEXTS}   # as render gives it

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


def _ms(us: int | None) -> str:
    """json's text of a time in µs as the float ms metrics.json holds."""
    return "null" if us is None else repr(us / US_PER_MS)


def _block(parts: list, pad: str, brackets: str = "[]") -> str:
    """json's indented text of a container of parts closed at pad."""
    if not parts:
        return brackets
    return f"{brackets[0]}\n  {pad}" + f",\n  {pad}".join(parts) + f"\n{pad}{brackets[1]}"


def _stream(texts, brackets: str):
    """_block of a member of the top level, one part at a time."""
    opened = False
    for text in texts:
        yield (",\n" if opened else brackets[0] + "\n") + text
        opened = True
    yield "\n  " + brackets[1] if opened else brackets


def _by_text(items) -> list:
    """(key, value) pairs keyed by an id, in the order of the id's text."""
    return sorted([(str(key), value) for key, value in items])


def _record(rec) -> str:
    places = [f'"{task}": [\n          {lane},\n          {proc}\n        ]'
              for task, (lane, proc) in _by_text(rec.placements.items())]
    return (f'    {{\n      "app": {rec.app_id},\n'
            f'      "degraded_tasks": {_block([*map(str, rec.degraded_tasks)], "      ")},\n'
            f'      "failed_copies": {_block([*map(str, rec.failed_copy_ids)], "      ")},\n'
            f'      "outcome": "{rec.outcome._value_}",\n'
            f'      "placements": {_block(places, "      ", "{}")},\n'
            f'      "record_id": {rec.record_id},\n'
            f'      "strategy": "{rec.strategy._value_}",\n'
            f'      "t_a_ms": {_ms(rec.t_a_us)},\n      "t_e_ms": {_ms(rec.t_e_us)},\n'
            f'      "t_f_ms": {_ms(rec.t_f_us)},\n      "t_i_ms": {_ms(rec.t_i_us)},\n'
            f'      "t_r_ms": {_ms(rec.t_r_us)},\n      "t_s_ms": {_ms(rec.t_s_us)}\n    }}')


def _risk(app: str, report) -> str:
    intervals = [f'{{\n          "closed": {"true" if closed else "false"},\n'
                 f'          "end_ms": {_ms(end)},\n          "start_ms": {_ms(start)}\n        }}'
                 for start, end, closed in report.intervals]
    hits = [f'{{\n          "at_ms": {_ms(at)},\n          "record_id": {record}\n        }}'
            for record, at in report.secondary_hits]
    return (f'    "{app}": {{\n      "intervals": {_block(intervals, "      ")},\n'
            f'      "secondary_hits": {_block(hits, "      ")},\n'
            f'      "total_ms": {_ms(report.total_us)}\n    }}')


def metrics_chunks(result: SimResult):
    """metrics.json a record or risk entry at a time: ``json.dumps(doc,
    indent=2, sort_keys=True)`` of the document the result describes,
    written from its fixed shape. Ids are keys as text, so "10" comes
    before "9"; an enum's value is a bare word json would not escape."""
    counters = [f"{_quote(name)}: {n}" for name, n in sorted(result.counters.items())]
    coverage = [f'"{app}": {{\n      "functional": "{_LABELS[f]}",\n'
                f'      "peripheral": "{_LABELS[p]}",\n      "zonal": "{_LABELS[z]}"\n    }}'
                for app, (f, z, p) in _by_text(result.final_coverage.items())]
    yield (f'{{\n  "counters": {_block(counters, "  ", "{}")},\n'
           f'  "coverage_final": {_block(coverage, "  ", "{}")},\n'
           f'  "format_version": 1,\n  "horizon_ms": {_ms(result.horizon_us)},\n'
           '  "records": ')
    yield from _stream(map(_record, result.records), "[]")
    yield ',\n  "risk": '
    yield from _stream((_risk(*entry) for entry in _by_text(result.risk.items())), "{}")
    counts = result.outcome_counts()
    yield (f',\n  "seed": {result.seed},\n  "summary": {{\n'
           f'    "abandoned": {counts[Outcome.ABANDONED]},\n'
           f'    "deadline_misses": {result.counters["deadline_misses"]},\n'
           f'    "degraded": {counts[Outcome.DEGRADED_DUPLEX]},\n'
           f'    "readmitted": {counts[Outcome.READMITTED]},\n'
           f'    "records": {len(result.records)}\n  }}\n}}\n')


def trace_lines(result: SimResult):
    """trace.tsv a line at a time, each rendered in one step from its raw
    row: the kind and detail as ``render`` gives them, and the four scope
    cells ("-" for None) made once per distinct scope."""
    yield f"{TRACE_HEADER}\ntime_us\tkind\tlane\tproc\tapp\ttask\tdetail\n"
    cells = {}
    for row in result.rows:
        scope = cells.get(key := row[2:6])
        if scope is None:
            scope = cells[key] = "\t".join(["-" if c is None else str(c) for c in key])
        text = row[1]
        yield f"{row[0]}\t{_KINDS[text]}\t{scope}\t{ROW_TEXTS[text](*row[6:]) or '-'}\n"


def coverage_lines(result: SimResult):
    yield "time_us,app,functional,zonal,peripheral\n"
    for s in result.samples:
        yield (f"{s.time_us},{s.app_id},{_LABELS[s.functional]},"
               f"{_LABELS[s.zonal]},{_LABELS[s.peripheral]}\n")


def write_outputs(result: SimResult, out_dir) -> list:
    """Stream each report to its file as it is made; the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, chunks in (("metrics.json", metrics_chunks), ("trace.tsv", trace_lines),
                         ("coverage.csv", coverage_lines)):
        written.append(out / name)
        with open(written[-1], "w", encoding="utf-8") as fh:
            fh.writelines(chunks(result))
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
