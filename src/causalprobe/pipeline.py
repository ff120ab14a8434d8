"""End-to-end causal analysis.

One orchestrated run: discover a graph pattern over a binary dataset under
domain knowledge, orient it to a DAG, estimate the target effect and every
probe effect by parent adjustment, and score the probes into a validation
report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .dataset import BinaryDataset
from .discovery import Knowledge, ges, orient_to_dag
from .errors import DataError, PipelineError
from .estimation import estimate_ate_linear
from .graph import Dag, _check_labels, to_text
from .probing import ProbeSpec, ValidationReport, format_expectation, validate

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "report_to_json",
    "report_to_text",
    "run_end_to_end",
]


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything one end-to-end run needs besides the data."""

    target: tuple[str, str]
    probes: tuple[ProbeSpec, ...]
    knowledge: Knowledge = field(default_factory=Knowledge)
    penalty: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "probes", tuple(self.probes))
        if len(self.target) != 2 or self.target[0] == self.target[1]:
            raise ValueError("target must be two distinct variable names")
        if not self.probes:
            raise ValueError("at least one probe is required")
        if not 0.0 < self.penalty < math.inf:
            raise ValueError("penalty must be finite and > 0")


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


def run_end_to_end(data: BinaryDataset, cfg: AnalysisConfig) -> AnalysisResult:
    """Run the full analysis; deterministic for fixed inputs.

    Stages run in order: config check, discovery, orientation, estimation,
    validation. A failure in any stage raises PipelineError carrying the
    stage name and the original exception.
    """
    _stage("config", _check_names, data, cfg)
    pattern = _stage("discovery", ges, data, cfg.knowledge, cfg.penalty)
    dag = _stage("orientation", orient_to_dag, pattern)

    def _estimate():
        target = estimate_ate_linear(data, dag, *cfg.target)
        probes = [
            estimate_ate_linear(data, dag, s.treatment, s.outcome)
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
