"""Average-treatment-effect estimation from data plus a causal graph.

The estimator regresses the outcome on the treatment and a backdoor
adjustment set (the treatment's parents in the graph) and reads the ATE off
the treatment coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import BinaryDataset
from .graph import Dag

METHOD_TRIVIAL_ZERO = "trivial-zero"
METHOD_LINEAR = "linear-adjusted"
_METHODS = (METHOD_TRIVIAL_ZERO, METHOD_LINEAR)


@dataclass(frozen=True)
class AteEstimate:
    """One estimated average treatment effect.

    ``adjustment`` lists the conditioning variables actually used.
    """

    treatment: str
    outcome: str
    value: float
    method: str
    adjustment: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == METHOD_TRIVIAL_ZERO and self.value != 0.0:
            raise ValueError("a trivial-zero estimate must be exactly 0")
        object.__setattr__(self, "adjustment", tuple(self.adjustment))
        object.__setattr__(self, "value", float(self.value))


def adjustment_set(graph: Dag, treatment: str, outcome: str) -> frozenset[str]:
    """Backdoor adjustment set: the treatment's parents in the graph.

    With every variable observed (causal sufficiency), conditioning on the
    treatment's parents blocks all backdoor paths to any outcome.
    """
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    t = graph.index(treatment)
    graph.index(outcome)
    return frozenset(graph.labels[p] for p in graph.parents(t))


def estimate_ate_linear(
    data: BinaryDataset, graph: Dag, treatment: str, outcome: str
) -> AteEstimate:
    """ATE via linear regression with backdoor adjustment.

    With no directed path from treatment to outcome the effect is identically
    zero and no data is touched. Otherwise the outcome is regressed on an
    intercept, the treatment and the treatment's parents; the treatment
    coefficient is the estimate. Rank-deficient designs fall back to the
    minimum-norm solution rather than failing.
    """
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    t = graph.index(treatment)
    o = graph.index(outcome)
    if not graph.has_directed_path(t, o):
        return AteEstimate(treatment, outcome, 0.0, METHOD_TRIVIAL_ZERO)
    adjust = sorted(adjustment_set(graph, treatment, outcome))
    m = data.n_rows
    if m < 1:
        raise ValueError("need at least one row")
    design = np.ones((m, 2 + len(adjust)), dtype=np.float64)
    design[:, 1] = data.column(treatment)
    for j, name in enumerate(adjust):
        design[:, 2 + j] = data.column(name)
    response = data.column(outcome).astype(np.float64)
    coef = np.linalg.lstsq(design, response, rcond=None)[0]
    return AteEstimate(
        treatment, outcome, float(coef[1]), METHOD_LINEAR, tuple(adjust)
    )
