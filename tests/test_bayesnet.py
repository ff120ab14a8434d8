import itertools
import math
import tracemalloc

import numpy as np
import pytest

from causalprobe import bayesnet
from causalprobe.bayesnet import Cbn, Cpd, random_cpds, sample, true_ate
from causalprobe.errors import CapacityError
from causalprobe.graph import Dag, random_dag
from reference import intervened, joint, marginal, mutilated, probability


def two_node_net():
    # a -> b with p(a=1)=0.3, p(b=1|a=0)=0.2, p(b=1|a=1)=0.9
    g = Dag(["a", "b"], [(0, 1)])
    return Cbn(g, [Cpd("a", [], [0.3]), Cpd("b", ["a"], [0.2, 0.9])])


def confounded_net(y_parents_order):
    # c -> t, c -> y, t -> y. p(c=1)=0.5, p(t=1|c)=[0.2, 0.8],
    # p(y=1|c,t) = 0.1, 0.5, 0.4, 0.9 indexed with c as the high bit.
    g = Dag(["c", "t", "y"], [(0, 1), (0, 2), (1, 2)])
    table_by_ct = {(0, 0): 0.1, (0, 1): 0.5, (1, 0): 0.4, (1, 1): 0.9}
    k = len(y_parents_order)
    table = [0.0] * (1 << k)
    for c, t in table_by_ct:
        idx = 0
        for pos, name in enumerate(y_parents_order):
            idx |= {"c": c, "t": t}[name] << (k - 1 - pos)
        table[idx] = table_by_ct[(c, t)]
    return Cbn(
        g,
        [
            Cpd("c", [], [0.5]),
            Cpd("t", ["c"], [0.2, 0.8]),
            Cpd("y", y_parents_order, table),
        ],
    )


def brute_force_joint(net):
    # Independent oracle: per-assignment dict arithmetic, no shared helpers.
    labels = net.graph.labels
    table = {}
    for values in itertools.product((0, 1), repeat=len(labels)):
        assign = dict(zip(labels, values))
        p = 1.0
        for cpd in net.cpds:
            idx = 0
            for name in cpd.parents:
                idx = (idx << 1) | assign[name]
            p_one = cpd.table[idx]
            p *= p_one if assign[cpd.node] == 1 else 1.0 - p_one
        table[values] = p
    return table


def brute_force_do_marginal(net, treatment, value, outcome):
    labels = net.graph.labels
    total = 0.0
    for values in itertools.product((0, 1), repeat=len(labels)):
        assign = dict(zip(labels, values))
        if assign[treatment] != value or assign[outcome] != 1:
            continue
        p = 1.0
        for cpd in net.cpds:
            if cpd.node == treatment:
                continue
            idx = 0
            for name in cpd.parents:
                idx = (idx << 1) | assign[name]
            p_one = cpd.table[idx]
            p *= p_one if assign[cpd.node] == 1 else 1.0 - p_one
        total += p
    return total


class TestValidation:
    def test_cpd_table_length(self):
        with pytest.raises(ValueError):
            Cpd("a", ["b"], [0.5])

    def test_cpd_probability_range(self):
        with pytest.raises(ValueError):
            Cpd("a", [], [1.5])
        with pytest.raises(ValueError):
            Cpd("a", [], [float("nan")])

    def test_cpd_self_parent(self):
        with pytest.raises(ValueError):
            Cpd("a", ["a"], [0.1, 0.2])

    def test_cbn_parent_set_must_match_graph(self):
        g = Dag(["a", "b"], [(0, 1)])
        with pytest.raises(ValueError):
            Cbn(g, [Cpd("a", [], [0.3]), Cpd("b", [], [0.2])])

    def test_cbn_missing_cpd(self):
        g = Dag(["a", "b"], [(0, 1)])
        with pytest.raises(ValueError):
            Cbn(g, [Cpd("a", [], [0.3])])

    def test_cbn_duplicate_cpd(self):
        g = Dag(["a"], [])
        with pytest.raises(ValueError):
            Cbn(g, [Cpd("a", [], [0.3]), Cpd("a", [], [0.4])])


class TestJointDistribution:
    """The dense reference the oracle tests compare against."""

    def test_two_node_hand_values(self):
        probs = joint(two_node_net())
        # State s assigns node i the bit (s >> i) & 1, so s=1 is a=1, b=0.
        assert probs[0] == pytest.approx(0.7 * 0.8)
        assert probs[1] == pytest.approx(0.3 * 0.1)
        assert probs[2] == pytest.approx(0.7 * 0.2)
        assert probs[3] == pytest.approx(0.3 * 0.9)
        assert marginal("ab", probs, "b") == pytest.approx(0.41)
        assert marginal("ab", probs, "a") == pytest.approx(0.3)

    def test_against_brute_force_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_dag(int(rng.integers(1, 6)), 0.4, rng)
            net = random_cpds(g, rng)
            probs = joint(net)
            oracle = brute_force_joint(net)
            for values, p in oracle.items():
                s = sum(v << i for i, v in enumerate(values))
                assert probs[s] == pytest.approx(p, abs=1e-12)

    def test_cpd_parent_order_is_respected(self):
        # The same conditional law written with either parent order must
        # produce the identical joint.
        probs1 = joint(confounded_net(["c", "t"]))
        probs2 = joint(confounded_net(["t", "c"]))
        assert np.allclose(probs1, probs2, atol=1e-15)

    def test_probability_query(self):
        probs = joint(two_node_net())
        assert probability("ab", probs, {"a": 1, "b": 1}) == pytest.approx(0.27)
        assert probability("ab", probs, {"a": 0}) == pytest.approx(0.7)
        assert probability("ab", probs, {}) == pytest.approx(1.0)


class TestIntervention:
    def test_chain_ate(self):
        net = two_node_net()
        assert true_ate(net, "a", "b") == pytest.approx(0.9 - 0.2)
        # Intervening downstream cannot move an upstream marginal.
        assert true_ate(net, "b", "a") == pytest.approx(0.0, abs=1e-15)

    def test_confounded_ate_hand_value(self):
        net = confounded_net(["c", "t"])
        # do(t=1): 0.5*0.5 + 0.5*0.9 = 0.7; do(t=0): 0.5*0.1 + 0.5*0.4 = 0.25
        assert marginal("cty", intervened(net, "t", 1), "y") == pytest.approx(0.7)
        assert marginal("cty", intervened(net, "t", 0), "y") == pytest.approx(0.25)
        assert true_ate(net, "t", "y") == pytest.approx(0.45)

    def test_intervention_differs_from_conditioning(self):
        net = confounded_net(["c", "t"])
        probs = joint(net)
        cond = probability("cty", probs, {"t": 1, "y": 1}) / probability(
            "cty", probs, {"t": 1}
        )
        assert abs(cond - marginal("cty", intervened(net, "t", 1), "y")) > 0.01

    def test_matches_mutilated_network(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_dag(int(rng.integers(2, 6)), 0.4, rng)
            net = random_cpds(g, rng)
            t = g.labels[int(rng.integers(0, g.n))]
            v = int(rng.integers(0, 2))
            direct = intervened(net, t, v)
            via_mutilation = joint(mutilated(net, t, v))
            assert np.allclose(direct, via_mutilation, atol=1e-14)

    def test_against_brute_force_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            g = random_dag(int(rng.integers(2, 6)), 0.4, rng)
            net = random_cpds(g, rng)
            names = list(g.labels)
            t, o = rng.choice(len(names), size=2, replace=False)
            t, o = names[int(t)], names[int(o)]
            want = brute_force_do_marginal(net, t, 1, o) - brute_force_do_marginal(
                net, t, 0, o
            )
            assert true_ate(net, t, o) == pytest.approx(want, abs=1e-12)

    def test_pathless_effect_is_exactly_zero(self):
        # a -> c with b isolated: the two intervened marginals of b used to
        # differ by rounding, giving true_ate(a, b) = 1.4e-17.
        g = Dag(["a", "b", "c"], [(0, 2)])
        net = Cbn(
            g,
            [
                Cpd("a", [], [0.1]),
                Cpd("b", [], [0.1]),
                Cpd("c", ["a"], [0.1, 0.2]),
            ],
        )
        for t, o in itertools.permutations("abc", 2):
            if (t, o) != ("a", "c"):
                assert true_ate(net, t, o) == 0.0
        assert true_ate(net, "a", "c") == pytest.approx(0.1)

    def test_limit_is_the_live_width_not_the_node_count(self):
        # A 40-node chain keeps two nodes live at a time. Each step scales
        # the effect by p(x_k=1 | x_{k-1}=1) - p(x_k=1 | x_{k-1}=0).
        labels = [f"x{i}" for i in range(40)]
        g = Dag(labels, [(i, i + 1) for i in range(39)])
        cpds = [Cpd("x0", [], [0.5])]
        want = 1.0
        for i in range(1, 40):
            lo = 0.01 * (i % 7)
            cpds.append(Cpd(labels[i], [labels[i - 1]], [lo, lo + 0.9]))
            want *= 0.9
        assert true_ate(Cbn(g, cpds), "x0", "x39") == pytest.approx(want, rel=1e-12)

    def test_capacity_error_comes_before_any_factor(self, monkeypatch):
        # t -> m0..m13 and m_i -> y_i: t and all fourteen m's are live at
        # once. At a 14-node budget a pass that checked as it went would
        # have built a 2**14-cell factor (128 KB) before failing.
        k = 14
        ms = [f"m{i}" for i in range(k)]
        ys = [f"y{i}" for i in range(k)]
        edges = [(0, 1 + i) for i in range(k)] + [(1 + i, 1 + k + i) for i in range(k)]
        g = Dag(["t", *ms, *ys], edges)
        cpds = [Cpd("t", [], [0.5])]
        cpds += [Cpd(m, ["t"], [0.2, 0.7]) for m in ms]
        cpds += [Cpd(y, [m], [0.3, 0.6]) for m, y in zip(ms, ys)]
        net = Cbn(g, cpds)
        monkeypatch.setattr(bayesnet, "MAX_EXACT_NODES", 14)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="live nodes"):
                true_ate(net, "t", "y0")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
        assert net._effect_rows == {}
        monkeypatch.setattr(bayesnet, "MAX_EXACT_NODES", 16)
        assert true_ate(net, "t", "y0") == pytest.approx(0.5 * 0.3)

    def test_treatment_equals_outcome_rejected(self):
        with pytest.raises(ValueError):
            true_ate(two_node_net(), "a", "a")

    def test_mutilated_structure(self):
        net = confounded_net(["c", "t"])
        cut = mutilated(net, "t", 1)
        assert cut.graph.edges == frozenset({(0, 2), (1, 2)})
        assert cut.cpd("t").table == (1.0,)
        assert cut.cpd("t").parents == ()


class TestSampling:
    def test_frequencies_match_joint(self):
        net = two_node_net()
        probs = joint(net)
        rng = np.random.default_rng(23)
        m = 20000
        d = sample(net, m, rng)
        states = d.values[:, 0].astype(int) | (d.values[:, 1].astype(int) << 1)
        for s in range(4):
            p = probs[s]
            got = int((states == s).sum())
            sigma = math.sqrt(m * p * (1 - p))
            assert abs(got - m * p) < 4 * sigma

    def test_columns_follow_label_order(self):
        net = confounded_net(["c", "t"])
        d = sample(net, 10, np.random.default_rng(1))
        assert d.columns == ("c", "t", "y")
        assert d.n_rows == 10

    def test_deterministic_given_seed(self):
        net = confounded_net(["c", "t"])
        d1 = sample(net, 100, np.random.default_rng(42))
        d2 = sample(net, 100, np.random.default_rng(42))
        assert d1 == d2

    def test_mutilated_sampling_clamps_treatment(self):
        net = confounded_net(["c", "t"])
        d = sample(mutilated(net, "t", 1), 50, np.random.default_rng(3))
        assert (d.column("t") == 1).all()

    def test_invalid_size(self):
        with pytest.raises(Exception):
            sample(two_node_net(), 0, np.random.default_rng(0))


class TestRandomCpds:
    def test_shapes(self):
        g = Dag("abc", [(0, 2), (1, 2)])
        net = random_cpds(g, np.random.default_rng(0))
        assert len(net.cpd("a").table) == 1
        assert len(net.cpd("c").table) == 4
        assert net.cpd("c").parents == ("a", "b")

    def test_deterministic_given_seed(self):
        g = Dag("abc", [(0, 1), (1, 2)])
        n1 = random_cpds(g, np.random.default_rng(9))
        n2 = random_cpds(g, np.random.default_rng(9))
        assert n1 == n2
