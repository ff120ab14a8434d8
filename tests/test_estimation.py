import math

import numpy as np
import pytest

from causalprobe.bayesnet import Cbn, Cpd, random_cpds, sample, true_ate
from causalprobe.dataset import BinaryDataset
from causalprobe.estimation import (
    AteEstimate,
    METHOD_LINEAR,
    METHOD_TRIVIAL_ZERO,
    adjustment_set,
    estimate_ate_linear,
)
from causalprobe.graph import Dag, random_dag
from reference import estimate_ate_stratified


def confounded_net():
    # c -> t, c -> y, t -> y with true ATE 0.45
    g = Dag(["c", "t", "y"], [(0, 1), (0, 2), (1, 2)])
    return Cbn(
        g,
        [
            Cpd("c", [], [0.5]),
            Cpd("t", ["c"], [0.2, 0.8]),
            Cpd("y", ["c", "t"], [0.1, 0.5, 0.4, 0.9]),
        ],
    )


class TestAteEstimate:
    def test_trivial_zero_must_be_zero(self):
        with pytest.raises(ValueError):
            AteEstimate("t", "o", 0.1, METHOD_TRIVIAL_ZERO)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            AteEstimate("t", "o", 0.1, "magic")


class TestAdjustmentSet:
    def test_parentless_treatment(self):
        g = Dag(["t", "o"], [(0, 1)])
        assert adjustment_set(g, "t", "o") == frozenset()

    def test_confounder(self):
        g = Dag(["z", "t", "o"], [(0, 1), (0, 2), (1, 2)])
        assert adjustment_set(g, "t", "o") == frozenset({"z"})

    def test_independent_of_outcome(self):
        g = Dag(["a", "b", "t", "o", "w"], [(0, 2), (1, 2), (2, 3), (2, 4)])
        assert adjustment_set(g, "t", "o") == frozenset({"a", "b"})
        assert adjustment_set(g, "t", "w") == frozenset({"a", "b"})

    def test_same_node_rejected(self):
        g = Dag(["t", "o"], [(0, 1)])
        with pytest.raises(ValueError):
            adjustment_set(g, "t", "t")


class TestOls:
    """The least-squares fit inside estimate_ate_linear."""

    def test_hand_computed_two_regressors(self):
        # Rows (z, t, o); the design is [1, t, z]. The normal equations
        # X'X = [[6, 3, 3], [3, 3, 2], [3, 2, 3]], X'y = [3, 2, 2] give
        # beta = (1/4, 1/4, 1/4); the unadjusted difference of means is 1/3.
        g = Dag(["z", "t", "o"], [(0, 1), (0, 2), (1, 2)])
        rows = [[0, 0, 0], [0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 0]]
        est = estimate_ate_linear(BinaryDataset(["z", "t", "o"], rows), g, "t", "o")
        assert est.adjustment == ("z",)
        assert est.value == pytest.approx(0.25, abs=1e-12)

    def test_rank_deficient_minimum_norm(self):
        # z is always 1, so its column duplicates the intercept. Only the
        # split between those two is not identified; the minimum-norm
        # solution puts the treatment coefficient at the difference of
        # means, 1 - 1/2.
        g = Dag(["z", "t", "o"], [(0, 1), (0, 2), (1, 2)])
        rows = [[1, 0, 0], [1, 0, 1], [1, 1, 1], [1, 1, 1]]
        est = estimate_ate_linear(BinaryDataset(["z", "t", "o"], rows), g, "t", "o")
        assert est.method == METHOD_LINEAR
        assert est.adjustment == ("z",)
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_no_rows_rejected(self):
        g = Dag(["t", "o"], [(0, 1)])
        d = BinaryDataset(["t", "o"], np.zeros((0, 2)))
        with pytest.raises(ValueError, match="at least one row"):
            estimate_ate_linear(d, g, "t", "o")

    def test_residual_orthogonality(self):
        # Given the estimated treatment coefficient, fit the intercept and
        # the parents' coefficients; the residual of that full fit is then
        # orthogonal to every design column, the treatment's included.
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            g = random_dag(4, 0.5, rng)
            pairs = [(a, b) for a in range(4) for b in range(4)
                     if a != b and g.has_directed_path(a, b)]
            if not pairs:
                continue
            a, b = pairs[int(rng.integers(len(pairs)))]
            t, o = g.labels[a], g.labels[b]
            rows = int(rng.integers(5, 40))
            d = BinaryDataset(g.labels, rng.integers(0, 2, size=(rows, 4)))
            est = estimate_ate_linear(d, g, t, o)
            x = np.column_stack(
                [np.ones(rows), *(d.column(p) for p in est.adjustment)]
            )
            y = d.column(o) - est.value * d.column(t)
            resid = y - x @ np.linalg.lstsq(x, y, rcond=None)[0]
            design = np.column_stack([d.column(t), x])
            assert np.abs(design.T @ resid).max() < 1e-8
            checked += 1
        assert checked >= 20


class TestLinearEstimator:
    def test_no_path_is_exactly_zero(self):
        g = Dag(["t", "o"], [])
        d = BinaryDataset(["t", "o"], np.array([[0, 1], [1, 0], [1, 1]]))
        est = estimate_ate_linear(d, g, "t", "o")
        assert est.method == METHOD_TRIVIAL_ZERO
        assert est.value == 0.0
        assert est.adjustment == ()

    def test_reverse_edge_is_trivial_zero(self):
        g = Dag(["t", "o"], [(1, 0)])
        d = BinaryDataset(["t", "o"], np.array([[0, 1], [1, 1]]))
        assert estimate_ate_linear(d, g, "t", "o").method == METHOD_TRIVIAL_ZERO

    def test_worked_example_difference_of_means(self):
        g = Dag(["t", "o"], [(0, 1)])
        d = BinaryDataset(["t", "o"], np.array([[0, 0], [0, 1], [1, 1], [1, 1]]))
        est = estimate_ate_linear(d, g, "t", "o")
        assert est.method == METHOD_LINEAR
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_confounded_agrees_with_stratified(self):
        net = confounded_net()
        d = sample(net, 100_000, np.random.default_rng(55))
        lin = estimate_ate_linear(d, net.graph, "t", "y")
        strat, _ = estimate_ate_stratified(d, net.graph, "t", "y")
        assert lin.adjustment == ("c",)
        assert abs(lin.value - strat) < 0.02

    def test_adjustment_removes_confounding_bias(self):
        net = confounded_net()
        d = sample(net, 100_000, np.random.default_rng(57))
        adjusted = estimate_ate_linear(d, net.graph, "t", "y").value
        naive = estimate_ate_linear(
            d, Dag(["c", "t", "y"], [(1, 2)]), "t", "y"
        ).value
        assert abs(adjusted - 0.45) < 0.02
        assert abs(naive - 0.45) > 0.05  # unadjusted estimate is biased

    def test_constant_treatment_does_not_crash(self):
        g = Dag(["t", "o"], [(0, 1)])
        d = BinaryDataset(["t", "o"], np.array([[1, 0], [1, 1]]))
        est = estimate_ate_linear(d, g, "t", "o")
        assert math.isfinite(est.value)


class TestStratifiedEstimator:
    """The plug-in reference that cross-checks the linear estimator."""

    def test_empty_adjustment_is_difference_of_means(self):
        g = Dag(["t", "o"], [(0, 1)])
        d = BinaryDataset(
            ["t", "o"], np.array([[0, 0], [0, 1], [1, 1], [1, 1]])
        )
        value, retained = estimate_ate_stratified(d, g, "t", "o")
        assert value == pytest.approx(0.5, abs=1e-12)
        assert retained == 1.0

    def test_perfect_confounding_error(self):
        g = Dag(["z", "t", "o"], [(0, 1), (1, 2)])
        rows = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1], [1, 1, 0]])
        d = BinaryDataset(["z", "t", "o"], rows)
        with pytest.raises(ValueError, match="both treatment arms"):
            estimate_ate_stratified(d, g, "t", "o")

    def test_dropped_stratum_renormalizes(self):
        # z=0 stratum has both arms (effect 0.5, 4 rows); z=1 stratum has
        # only treated rows (2 rows) and is dropped.
        g = Dag(["z", "t", "o"], [(0, 1), (1, 2)])
        rows = np.array(
            [
                [0, 0, 0],
                [0, 0, 1],
                [0, 1, 1],
                [0, 1, 1],
                [1, 1, 0],
                [1, 1, 1],
            ]
        )
        d = BinaryDataset(["z", "t", "o"], rows)
        value, retained = estimate_ate_stratified(d, g, "t", "o")
        assert value == pytest.approx(0.5, abs=1e-12)
        assert retained == pytest.approx(4 / 6, abs=1e-12)

    def test_confounded_close_to_exact(self):
        net = confounded_net()
        d = sample(net, 200_000, np.random.default_rng(59))
        value, _ = estimate_ate_stratified(d, net.graph, "t", "y")
        assert abs(value - 0.45) < 0.01


class TestConsistencyInvariants:
    def test_unconfounded_linear_matches_truth(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(50):
            g = random_dag(4, 0.4, rng)
            net = random_cpds(g, rng)
            roots = [v for v in range(g.n) if not g.parents(v)]
            t = g.labels[roots[0]]
            others = [lab for lab in g.labels if lab != t]
            o = others[int(rng.integers(0, len(others)))]
            d = sample(net, 100_000, rng)
            est = estimate_ate_linear(d, net.graph, t, o)
            if est.method == METHOD_TRIVIAL_ZERO:
                assert abs(true_ate(net, t, o)) < 1e-12
                continue
            t_col = d.column(t).astype(bool)
            p1 = d.column(o)[t_col].mean()
            p0 = d.column(o)[~t_col].mean()
            se = math.sqrt(
                p1 * (1 - p1) / t_col.sum() + p0 * (1 - p0) / (~t_col).sum()
            )
            assert abs(est.value - true_ate(net, t, o)) < 3 * max(se, 1e-4)
            checked += 1
        assert checked >= 10

    def test_linear_and_stratified_agree(self):
        # The regression coefficient is a treatment-variance-weighted mean of
        # stratum effects while the plug-in uses population weights, so under
        # strongly heterogeneous random CPDs the two can diverge. Agreement
        # within 0.05 therefore holds for the bulk of random networks, not
        # every single one.
        rng = np.random.default_rng(63)
        gaps = []
        while len(gaps) < 60:
            g = random_dag(4, 0.4, rng)
            net = random_cpds(g, rng)
            cands = [
                v
                for v in range(g.n)
                if len(g.parents(v)) <= 2 and g.children(v)
            ]
            if not cands:
                continue
            t_idx = cands[0]
            o_idx = g.children(t_idx)[0]
            t, o = g.labels[t_idx], g.labels[o_idx]
            d = sample(net, 100_000, rng)
            lin = estimate_ate_linear(d, net.graph, t, o)
            strat, _ = estimate_ate_stratified(d, net.graph, t, o)
            gaps.append(abs(lin.value - strat))
        gaps.sort()
        assert gaps[len(gaps) // 2] < 0.01  # median
        assert sum(1 for gap in gaps if gap <= 0.05) >= 0.9 * len(gaps)
