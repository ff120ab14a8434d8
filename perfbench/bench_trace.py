"""Outside-in tracing of causalprobe's layers.

The program is not changed. Each traced function is replaced, for the
duration of a traced run, by a wrapper installed on the module its callers
look it up in (``causalprobe.sim.true_ate``, ``causalprobe.pipeline.ges``,
``causalprobe.cli.read_csv``, ...). A wrapper records one span per call:
name, start, end, parent span and op id. Spans stay in memory and are
written to a file when the run ends.

Self time is a span's duration minus the part of it its child spans cover.
Byte and cell counts are computed from array and file sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

# Notes run after a span has ended and must stay O(1): they keep references
# or sizes, and the counts are derived once the run is over.


def _note_true_ate(args, kwargs, result):
    net, treatment, outcome = args[:3]
    return net, treatment, outcome


def _note_sample(args, kwargs, result):
    return result.values.size


def _note_linear(args, kwargs, result):
    data = args[0]
    return result.method, data.n_rows * (2 + len(result.adjustment))


def _note_read_csv(args, kwargs, result):
    return args[0]


def _note_to_binary(args, kwargs, result):
    return result.values.size


def _note_write(args, kwargs, result):
    return args[0]


# (span name, module the callers look the function up in, attribute, note).
# The span name is the module that defines the function, so one function
# wrapped in two calling modules counts as one layer.
WRAPS = (
    ("graph.random_dag", "sim", "random_dag", None),
    ("bayesnet.random_cpds", "sim", "random_cpds", None),
    ("bayesnet.sample", "sim", "sample", _note_sample),
    ("discovery.pick_hint_edges", "sim", "pick_hint_edges", None),
    ("sim.select_target", "sim", "select_target", None),
    ("sim.select_probes", "sim", "select_probes", None),
    ("bayesnet.true_ate", "sim", "true_ate", _note_true_ate),
    ("graph.shd", "sim", "shd", None),
    ("graph.to_text", "sim", "to_text", None),
    ("sim.simulate_run", "sim", "simulate_run", None),
    ("sim.write_runs_csv", "sim", "write_runs_csv", _note_write),
    ("sim.write_runs_jsonl", "sim", "write_runs_jsonl", _note_write),
    ("pipeline.run_end_to_end", "sim", "run_end_to_end", None),
    ("pipeline.run_end_to_end", "cli", "run_end_to_end", None),
    ("dataset.to_binary", "pipeline", "to_binary", _note_to_binary),
    ("discovery.ges", "pipeline", "ges", None),
    ("discovery.orient_to_dag", "pipeline", "orient_to_dag", None),
    ("estimation.estimate_ate_linear", "pipeline", "estimate_ate_linear",
     _note_linear),
    ("probing.validate", "pipeline", "validate", None),
    ("dataset.read_csv", "cli", "read_csv", _note_read_csv),
    ("probing.parse_probes", "cli", "parse_probes", None),
    ("discovery.parse_knowledge", "cli", "parse_knowledge", None),
    ("pipeline.report_to_json", "cli", "report_to_json", None),
    ("pipeline.report_to_text", "cli", "report_to_text", None),
    ("cli.cmd_analyze", "cli", "cmd_analyze", None),
)

# Span record fields.
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _call(self, name, fn, note, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if note is not None:
            span[NOTE] = note(args, kwargs, result)
        return result

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, note, args, kwargs)

        return traced

    def install(self) -> None:
        """Replace every function in WRAPS by a recording wrapper."""
        for name, modname, attr, note in WRAPS:
            module = importlib.import_module(f"causalprobe.{modname}")
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: causalprobe.{modname}.{attr} not found; "
                      f"{name} is not traced", file=sys.stderr)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, note))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str) -> None:
        """Write the raw spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT],
                                     s[OP]]) + "\n")


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name."""
    child_cover = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            # One thread: sibling spans never overlap, so their durations add.
            child_cover[s[PARENT]] += s[END] - s[START]
    table: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s[END] - s[START]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_cover[i]
    return table


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def work_counts(spans: list[list]) -> dict[str, float]:
    """Counts that depend only on the inputs, so they repeat exactly."""
    from causalprobe.estimation import METHOD_TRIVIAL_ZERO

    ate_calls = ate_cells = pathless = repeats = 0
    seen: dict[int | None, set] = {}
    lin_calls = lin_trivial = design_cells = 0
    sample_cells = binary_cells = csv_bytes = output_bytes = 0
    for s in spans:
        name, note = s[NAME], s[NOTE]
        if note is None:
            continue
        if name == "bayesnet.true_ate":
            net, treatment, outcome = note
            g = net.graph
            ate_calls += 1
            ate_cells += 2 * (1 << g.n)
            if not g.has_directed_path(g.index(treatment), g.index(outcome)):
                pathless += 1
            key = (id(net), treatment, outcome)
            asked = seen.setdefault(s[OP], set())
            repeats += key in asked
            asked.add(key)
        elif name == "estimation.estimate_ate_linear":
            method, cells = note
            lin_calls += 1
            if method == METHOD_TRIVIAL_ZERO:
                lin_trivial += 1
            else:
                design_cells += cells
        elif name == "bayesnet.sample":
            sample_cells += note
        elif name == "dataset.to_binary":
            binary_cells += note
        elif name == "dataset.read_csv":
            csv_bytes += os.path.getsize(note)
        elif name in ("sim.write_runs_csv", "sim.write_runs_jsonl"):
            output_bytes += os.path.getsize(note)
    return {
        "bayesnet.true_ate.cells": ate_cells,
        "bayesnet.true_ate.pathless_frac": _frac(pathless, ate_calls),
        "bayesnet.true_ate.repeat_frac": _frac(repeats, ate_calls),
        "estimation.estimate_ate_linear.design_cells": design_cells,
        "estimation.estimate_ate_linear.trivial_frac":
            _frac(lin_trivial, lin_calls),
        "bayesnet.sample.cells": sample_cells,
        "dataset.to_binary.cells": binary_cells,
        "dataset.read_csv.bytes": csv_bytes,
        "sim.output_bytes": output_bytes,
    }


def top_level_seconds(spans: list[list]) -> float:
    """Total duration of spans that have no parent span."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)
