"""Average-treatment-effect estimation from data plus a causal graph.

The primary estimator regresses the outcome on the treatment and a backdoor
adjustment set (the treatment's parents in the graph) and reads the ATE off
the treatment coefficient. A nonparametric stratified plug-in estimator of
the same backdoor functional serves as a cross-check: it is exact in the
large-sample limit but needs both treatment arms in every stratum it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import BinaryDataset, state_index
from .errors import CapacityError, EstimationError
from .graph import Dag

METHOD_TRIVIAL_ZERO = "trivial-zero"
METHOD_LINEAR = "linear-adjusted"
METHOD_STRATIFIED = "stratified"
_METHODS = (METHOD_TRIVIAL_ZERO, METHOD_LINEAR, METHOD_STRATIFIED)

MAX_ADJUSTMENT = 15


@dataclass(frozen=True)
class AteEstimate:
    """One estimated average treatment effect.

    ``adjustment`` lists the conditioning variables actually used;
    ``retained_weight`` is the probability mass of the strata the stratified
    estimator kept (None for the other methods).
    """

    treatment: str
    outcome: str
    value: float
    method: str
    adjustment: tuple[str, ...] = ()
    retained_weight: float | None = None

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


def ols(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least-squares coefficients; minimum-norm when the design is rank
    deficient. Deterministic."""
    design = np.asarray(design, dtype=np.float64)
    response = np.asarray(response, dtype=np.float64)
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-d")
    if response.ndim != 1 or response.shape[0] != design.shape[0]:
        raise ValueError(
            f"response length {response.shape} does not match "
            f"{design.shape[0]} design rows"
        )
    if design.shape[0] < 1:
        raise ValueError("need at least one row")
    coef, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    return coef


def _require_columns(data: BinaryDataset, names: Sequence[str]) -> None:
    for name in names:
        data.column_index(name)


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
    _require_columns(data, [treatment, outcome, *adjust])
    m = data.n_rows
    design = np.ones((m, 2 + len(adjust)), dtype=np.float64)
    design[:, 1] = data.column(treatment)
    for j, name in enumerate(adjust):
        design[:, 2 + j] = data.column(name)
    coef = ols(design, data.column(outcome).astype(np.float64))
    return AteEstimate(
        treatment, outcome, float(coef[1]), METHOD_LINEAR, tuple(adjust)
    )


def estimate_ate_stratified(
    data: BinaryDataset, graph: Dag, treatment: str, outcome: str
) -> AteEstimate:
    """Plug-in backdoor estimate over strata of the treatment's parents.

    Computes sum over strata z of (p(o=1 | t=1, z) - p(o=1 | t=0, z)) * p(z).
    Strata missing either treatment arm are dropped and the remaining weights
    renormalized; the kept mass is reported as ``retained_weight``. Raises
    EstimationError when no stratum has both arms.
    """
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    adjust = sorted(adjustment_set(graph, treatment, outcome))
    if len(adjust) > MAX_ADJUSTMENT:
        raise CapacityError(
            f"stratifying over {len(adjust)} variables exceeds the "
            f"{MAX_ADJUSTMENT}-variable limit"
        )
    _require_columns(data, [treatment, outcome, *adjust])
    m = data.n_rows
    o_col = data.column(outcome).astype(np.int64)
    n_strata = 1 << len(adjust)
    # cell index: (stratum, t); count rows and outcome successes per cell
    cell = state_index((data.column(c) for c in [*adjust, treatment]), m)
    n = np.bincount(cell, minlength=2 * n_strata).astype(np.float64)
    n_o = np.bincount(cell, weights=o_col, minlength=2 * n_strata)
    n0, n1 = n[0::2], n[1::2]
    kept = (n0 > 0) & (n1 > 0)
    if not kept.any():
        raise EstimationError(
            f"no stratum of {adjust or '{}'} contains both treatment arms"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(kept, n_o[1::2] / n1 - n_o[0::2] / n0, 0.0)
    weights = (n0 + n1)[kept]
    value = float((diff[kept] * weights).sum() / weights.sum())
    return AteEstimate(
        treatment,
        outcome,
        value,
        METHOD_STRATIFIED,
        tuple(adjust),
        retained_weight=float(weights.sum() / m),
    )
