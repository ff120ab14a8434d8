"""Command-line interface.

Subcommands: simulate (run a study), aggregate (per-hit-rate table or
outlier listing), plot (static SVG charts), demo-sprinkler (the worked
five-variable example), analyze (end-to-end analysis of a user dataset).

Exit codes: 0 success, 1 I/O or data failure, 2 usage error (including
unknown target, probe or knowledge columns and column names a report cannot
write, which the pipeline's config stage reports), 3 analysis completed but
at least one probe failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
from typing import Callable, Sequence

from . import __version__
from .dataset import _atomic_write, _content_lines, _read_text, read_csv
from .discovery import Knowledge, parse_knowledge
from .errors import CausalProbeError, DataError, KnowledgeError, PipelineError
from .pipeline import AnalysisConfig, report_to_json, report_to_text, run_end_to_end
from .probing import parse_probes
from .sim import (
    AGG_CSV_COLUMNS,
    RUNS_CSV_COLUMNS,
    AggRow,
    RunRecord,
    SimParams,
    aggregate,
    filter_connected,
    filter_outliers,
    read_agg_csv,
    read_runs_csv,
    read_runs_jsonl,
    run_study,
    write_agg_csv,
    write_runs_csv,
    write_runs_jsonl,
)
from .sprinkler import run_sprinkler_demo
from .svgplot import histogram_svg, means_svg, scatter_svg

__all__ = ["main", "parse_config"]

PLOT_KINDS = ("scatter", "means", "histogram")
PLOT_YS = ("abs_err", "rel_err", "shd", "count")


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def parse_config(text: str) -> dict[str, str]:
    """key = value lines; # starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_file(path: str, parse: Callable, error: type[Exception]):
    """``parse`` applied to the text of ``path``; a parse error is raised
    again as ``error``, naming the file."""
    text = _read_text(path)[1]
    try:
        return parse(text)
    except (DataError, KnowledgeError) as exc:
        raise error(f"{path}: {exc}") from exc


_PARAM_FIELDS = {f.name: f.type for f in dataclasses.fields(SimParams)}


def _params_from(args: argparse.Namespace) -> SimParams:
    values: dict = {}
    if args.config is not None:
        raw = _parse_file(args.config, parse_config, UsageError)
        for key, text in raw.items():
            if key not in _PARAM_FIELDS:
                raise UsageError(f"unknown config key {key!r}")
            caster = int if _PARAM_FIELDS[key] == "int" else float
            try:
                values[key] = caster(text)
            except ValueError:
                raise UsageError(
                    f"config key {key!r}: bad value {text!r}"
                ) from None
    # Each flag stores to its field's name, except the shared --seed.
    flags = {k: getattr(args, k) for k in _PARAM_FIELDS if k != "master_seed"}
    flags["master_seed"] = args.seed
    values.update({k: v for k, v in flags.items() if v is not None})
    try:
        return SimParams(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if args.threads is not None and args.threads < 1:
        raise UsageError("--threads must be a positive integer")
    # An unusable --out-dir fails before the study, not after it.
    csv_path = _out_path(args, "runs.csv")
    jsonl_path = _out_path(args, "runs.jsonl")
    records = run_study(params, threads=args.threads)
    write_runs_csv(csv_path, records)
    write_runs_jsonl(jsonl_path, records)
    completed = [r for r in records if not r.failed]
    mean_hit = (
        repr(float(sum(r.hit_rate for r in completed) / len(completed)))
        if completed
        else "n/a"
    )
    print(f"runs: {len(records)}")
    print(f"failed: {len(records) - len(completed)}")
    print(f"mean hit rate: {mean_hit}")
    print(f"wrote {csv_path} and {jsonl_path}")
    return 0


def _records_for_inspection(csv_path: str) -> list[RunRecord]:
    """Prefer the JSON-lines sidecar, which carries graph serializations."""
    root, _ = os.path.splitext(csv_path)
    sidecar = root + ".jsonl"
    if os.path.exists(sidecar):
        return read_runs_jsonl(sidecar)
    return read_runs_csv(csv_path)


def cmd_aggregate(args: argparse.Namespace) -> int:
    if args.outliers:
        records = _records_for_inspection(args.runs_csv)
        if args.connected_only:
            records = filter_connected(records)
        hits = filter_outliers(records)
        print(f"outliers: {len(hits)}")
        for r in hits:
            print(
                f"run {r.run_index}: hit_rate={r.hit_rate!r} "
                f"abs_err={r.abs_err!r} shd={r.shd}"
            )
            for name, text in (
                ("true", r.true_graph),
                ("discovered", r.discovered_graph),
            ):
                if text:
                    print(f"  {name} graph:")
                    for line in text.rstrip("\n").splitlines():
                        print(f"    {line}")
        return 0
    records = read_runs_csv(args.runs_csv)
    if args.connected_only:
        records = filter_connected(records)
    rows = aggregate(records)
    out_path = _out_path(args, "agg.csv")
    write_agg_csv(out_path, rows)
    print(f"wrote {out_path} ({len(rows)} hit-rate groups)")
    return 0


def _load_plot_table(path: str) -> tuple[list[RunRecord], list[AggRow]]:
    # The header as csv.reader reads it, so that any file aggregate reads
    # (CRLF endings, quoted names) plots too.
    rows = csv.reader(io.StringIO(_read_text(path)[1], newline=""))
    try:
        header = tuple(next(rows, ()))
    except csv.Error:
        header = ()
    if header == RUNS_CSV_COLUMNS:
        records = [r for r in read_runs_csv(path) if not r.failed]
        rows = aggregate(records) if records else []
    elif header == AGG_CSV_COLUMNS:
        records, rows = [], read_agg_csv(path)
    else:
        raise DataError(f"{path}: neither a runs.csv nor an agg.csv header")
    if not rows:
        raise DataError(f"{path}: holds no completed run")
    return records, rows


def cmd_plot(args: argparse.Namespace) -> int:
    # Hit rate on x, one run metric on y; argparse has checked each choice.
    kind = args.kind
    y = args.y or ("count" if kind == "histogram" else "abs_err")
    if kind == "histogram" and y != "count":
        raise UsageError("histogram plots counts; use --y count")
    if kind != "histogram" and y == "count":
        raise UsageError(f"{kind} needs a metric y, not count")
    records, rows = _load_plot_table(args.input)
    if kind == "scatter":
        if not records:
            raise UsageError(
                "scatter needs per-run data; pass a runs.csv file"
            )
        points = [(r.hit_rate, float(getattr(r, y))) for r in records]
        svg = scatter_svg(points, "hit rate", y, f"{y} by hit rate")
    elif kind == "means":
        points = [(row.hit_rate, float(getattr(row, f"mean_{y}"))) for row in rows]
        svg = means_svg(points, "hit rate", f"mean {y}", f"mean {y} by hit rate")
    else:
        bars = [(row.hit_rate, row.count) for row in rows]
        svg = histogram_svg(
            bars, "hit rate", "count", "hit rate histogram"
        )
    output = args.output
    if not os.path.isabs(output) and os.path.dirname(output) == "":
        output = _out_path(args, output)
    _atomic_write(output, [svg])
    print(f"wrote {output}")
    return 0


def cmd_demo_sprinkler(args: argparse.Namespace) -> int:
    result = run_sprinkler_demo(seed=args.seed, flip=args.flip_knowledge)
    sys.stdout.write(report_to_text(result))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    parts = args.target.split(",")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise UsageError("--target must be 'treatment,outcome'")
    target = (parts[0].strip(), parts[1].strip())

    data = read_csv(args.data_csv)

    probe_specs = _parse_file(args.probes, parse_probes, DataError)
    if not probe_specs:
        raise UsageError(f"{args.probes}: no probes defined")

    knowledge = Knowledge()
    if args.knowledge is not None:
        knowledge = _parse_file(args.knowledge, parse_knowledge, KnowledgeError)

    try:
        cfg = AnalysisConfig(
            target=target,
            probes=probe_specs,
            knowledge=knowledge,
            penalty=args.penalty if args.penalty is not None else 1.0,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = run_end_to_end(data, cfg)
    json_path = _out_path(args, "report.json")
    _atomic_write(json_path, [report_to_json(result)])
    sys.stdout.write(report_to_text(result))
    print(f"wrote {json_path}")
    return 0 if result.report.hit_rate == 1.0 else 3


def _out_path(args: argparse.Namespace, name: str) -> str:
    """``name`` inside ``--out-dir``, which is created here, once a command
    has a file to write."""
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _add_out_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for output files (default: current directory)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalprobe",
        description=(
            "Validate causal models by probing known causal effects."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        help="run a seeded simulation study; writes runs.csv and runs.jsonl",
    )
    p_sim.add_argument(
        "--seed", type=int, default=None, help="master random seed"
    )
    p_sim.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes (default: machine parallelism)",
    )
    _add_out_dir(p_sim)
    p_sim.add_argument("--config", default=None, help="key = value file")
    p_sim.add_argument("--n", type=int, default=None, help="node count")
    p_sim.add_argument("--p-edge", type=float, default=None)
    p_sim.add_argument("--m", type=int, default=None, help="sample count")
    p_sim.add_argument("--p-hint", type=float, default=None)
    p_sim.add_argument("--p-probe", type=float, default=None)
    p_sim.add_argument("--eps-probe", type=float, default=None)
    p_sim.add_argument(
        "--runs", dest="n_runs", type=int, default=None, help="run count"
    )
    p_sim.add_argument("--penalty", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_agg = sub.add_parser(
        "aggregate",
        help="per-hit-rate means from a runs.csv, or an outlier listing",
    )
    p_agg.add_argument("runs_csv")
    _add_out_dir(p_agg)
    p_agg.add_argument(
        "--connected-only",
        action="store_true",
        help="keep only runs whose true graph is connected",
    )
    p_agg.add_argument(
        "--outliers",
        action="store_true",
        help="list perfect-hit-rate runs with large target error",
    )
    p_agg.set_defaults(func=cmd_aggregate)

    p_plot = sub.add_parser(
        "plot",
        help="render a runs.csv or agg.csv as a static SVG chart",
    )
    p_plot.add_argument("input")
    _add_out_dir(p_plot)
    p_plot.add_argument("--kind", choices=PLOT_KINDS, required=True)
    p_plot.add_argument("--y", choices=PLOT_YS, default=None)
    p_plot.add_argument(
        "--output", default="plot.svg", help="SVG file to write"
    )
    p_plot.set_defaults(func=cmd_plot)

    p_demo = sub.add_parser(
        "demo-sprinkler",
        help="run the five-variable sprinkler walkthrough",
    )
    p_demo.add_argument(
        "--seed",
        type=_non_negative_int,
        default=0,
        help="sampling seed, at least 0 (default: 0)",
    )
    p_demo.add_argument(
        "--flip-knowledge",
        action="store_true",
        help="reverse every knowledge edge to show probes catching it",
    )
    p_demo.set_defaults(func=cmd_demo_sprinkler)

    p_ana = sub.add_parser(
        "analyze",
        help="end-to-end analysis of a CSV with knowledge and probe files",
    )
    p_ana.add_argument("data_csv")
    _add_out_dir(p_ana)
    p_ana.add_argument("--knowledge", default=None)
    p_ana.add_argument("--probes", required=True)
    p_ana.add_argument("--target", required=True, help="treatment,outcome")
    p_ana.add_argument("--penalty", type=float, default=None)
    p_ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.stage == "config" else 1
    except (OSError, ValueError, CausalProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
