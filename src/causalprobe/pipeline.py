"""End-to-end causal analysis.

One orchestrated run: preprocess the raw table, discover a graph pattern
under domain knowledge, orient it to a DAG, optionally apply user edge
edits, estimate the target effect and every probe effect by parent
adjustment, and score the probes into a validation report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

from .dataset import (
    BinaryDataset,
    RawDataset,
    binarize,
    drop_columns,
    to_binary,
)
from .discovery import Knowledge, ges, orient_to_dag
from .errors import DataError, PipelineError
from .estimation import estimate_ate_linear
from .graph import Dag, _check_labels, to_text
from .probing import ProbeSpec, ValidationReport, format_expectation, validate

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Binarize",
    "DropColumns",
    "GraphEdit",
    "apply_graph_edits",
    "report_to_json",
    "report_to_text",
    "run_end_to_end",
]


@dataclass(frozen=True)
class DropColumns:
    """Preprocessing step: remove the named columns."""

    columns: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ValueError("DropColumns needs at least one column")

    def apply(self, data):
        return drop_columns(data, self.columns)


@dataclass(frozen=True)
class Binarize:
    """Preprocessing step: map one column's values onto {0, 1}."""

    column: str
    zero_value: str
    one_value: str

    def apply(self, data):
        if isinstance(data, BinaryDataset):
            raise DataError(
                f"cannot binarize column {self.column!r}: data is already "
                "binary"
            )
        return binarize(data, self.column, self.zero_value, self.one_value)


PreprocessingStep = Union[DropColumns, Binarize]

EDIT_ACTIONS = ("add", "remove", "reverse")


@dataclass(frozen=True)
class GraphEdit:
    """A manual edge edit applied to the discovered DAG."""

    action: str
    source: str
    dest: str

    def __post_init__(self):
        if self.action not in EDIT_ACTIONS:
            raise ValueError(
                f"unknown edit action {self.action!r}; "
                f"expected one of {EDIT_ACTIONS}"
            )
        if self.source == self.dest:
            raise ValueError("edit endpoints must differ")


def apply_graph_edits(graph: Dag, edits) -> Dag:
    """Apply add/remove/reverse edge edits in order, keeping the graph a DAG.

    An edit that references an unknown node, adds an existing edge, removes
    or reverses a missing edge, or creates a cycle raises ValueError.
    """
    edges = {
        (graph.labels[a], graph.labels[b]) for a, b in graph.edges
    }
    labels = set(graph.labels)
    for e in edits:
        for name in (e.source, e.dest):
            if name not in labels:
                raise ValueError(f"edit references unknown node {name!r}")
        pair = (e.source, e.dest)
        if e.action == "add":
            if pair in edges:
                raise ValueError(f"edge {pair} already present")
            edges.add(pair)
        elif e.action == "remove":
            if pair not in edges:
                raise ValueError(f"edge {pair} not present")
            edges.remove(pair)
        else:
            if pair not in edges:
                raise ValueError(f"edge {pair} not present")
            edges.remove(pair)
            edges.add((e.dest, e.source))
        try:
            graph = Dag(
                graph.labels,
                [(graph.index(a), graph.index(b)) for a, b in edges],
            )
        except ValueError as exc:
            raise ValueError(
                f"edit {e.action} {e.source} -> {e.dest} rejected: {exc}"
            ) from exc
    return graph


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything one end-to-end run needs besides the data."""

    target: tuple[str, str]
    probes: tuple[ProbeSpec, ...]
    preprocessing: tuple[PreprocessingStep, ...] = ()
    knowledge: Knowledge = field(default_factory=Knowledge)
    penalty: float = 1.0
    graph_edits: tuple[GraphEdit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "probes", tuple(self.probes))
        object.__setattr__(self, "preprocessing", tuple(self.preprocessing))
        object.__setattr__(self, "graph_edits", tuple(self.graph_edits))
        if len(self.target) != 2 or self.target[0] == self.target[1]:
            raise ValueError("target must be two distinct variable names")
        if not self.probes:
            raise ValueError("at least one probe is required")
        if not (self.penalty > 0):
            raise ValueError("penalty must be positive")


@dataclass(frozen=True)
class AnalysisResult:
    """Discovered graph plus the validation report built on it."""

    discovered: Dag
    report: ValidationReport


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _preprocess(data, steps) -> BinaryDataset:
    for step in steps:
        data = step.apply(data)
    if isinstance(data, RawDataset):
        data = to_binary(data)
    return data


def _check_names(data: BinaryDataset, cfg: AnalysisConfig) -> None:
    # The columns become the graph's node names, which the report writes.
    _check_labels(data.columns, ",", "->")
    known = set(data.columns)
    named = [("target", name) for name in cfg.target]
    named += [
        ("probe", name) for s in cfg.probes for name in (s.treatment, s.outcome)
    ]
    named += [("knowledge", name) for name in sorted(cfg.knowledge.node_names())]
    for what, name in named:
        if name not in known:
            raise DataError(f"{what} names unknown column {name!r}")


def run_end_to_end(data, cfg: AnalysisConfig) -> AnalysisResult:
    """Run the full analysis; deterministic for fixed inputs.

    Stages run in order: preprocessing, config check, discovery,
    orientation, graph edits, estimation, validation. A failure in any
    stage raises PipelineError carrying the stage name and the original
    exception.
    """
    binary = _stage("preprocessing", _preprocess, data, cfg.preprocessing)
    _stage("config", _check_names, binary, cfg)
    pattern = _stage("discovery", ges, binary, cfg.knowledge, cfg.penalty)
    dag = _stage("orientation", orient_to_dag, pattern, cfg.knowledge)
    dag = _stage("graph-edit", apply_graph_edits, dag, cfg.graph_edits)

    def _estimate():
        target = estimate_ate_linear(binary, dag, *cfg.target)
        probes = [
            estimate_ate_linear(binary, dag, s.treatment, s.outcome)
            for s in cfg.probes
        ]
        return target, probes

    target_est, probe_ests = _stage("estimation", _estimate)
    report = _stage("validation", validate, target_est, probe_ests, cfg.probes)
    return AnalysisResult(dag, report)


def _report_dict(result: AnalysisResult) -> dict:
    rep = result.report
    return {
        "discovered_graph": to_text(result.discovered),
        "target": {
            "pair": [rep.target.treatment, rep.target.outcome],
            "estimate": rep.target.value,
            "method": rep.target.method,
        },
        "probes": [
            {
                "pair": [r.spec.treatment, r.spec.outcome],
                "expectation": format_expectation(r.spec.expectation),
                "estimate": r.estimate.value,
                "passed": r.passed,
            }
            for r in rep.probes
        ],
        "hit_rate": rep.hit_rate,
    }


def report_to_json(result: AnalysisResult) -> str:
    """Machine-readable report; keys are stable, floats round-trip."""
    return json.dumps(_report_dict(result), indent=2) + "\n"


def report_to_text(result: AnalysisResult) -> str:
    """Human-readable rendering of the same report."""
    rep = result.report
    lines = ["discovered graph:"]
    lines += ["  " + ln for ln in to_text(result.discovered).splitlines()]
    lines.append(
        f"target {rep.target.treatment} -> {rep.target.outcome}: "
        f"{rep.target.value!r} ({rep.target.method})"
    )
    lines.append("probes:")
    for r in rep.probes:
        mark = "pass" if r.passed else "FAIL"
        lines.append(
            f"  [{mark}] {r.spec.treatment} -> {r.spec.outcome} "
            f"expect {format_expectation(r.spec.expectation)}: "
            f"got {r.estimate.value!r}"
        )
    n_pass = sum(1 for r in rep.probes if r.passed)
    lines.append(
        f"hit rate: {rep.hit_rate!r} ({n_pass}/{len(rep.probes)})"
    )
    return "\n".join(lines) + "\n"
