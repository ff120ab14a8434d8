import itertools
import math

import numpy as np
import pytest

from causalprobe.errors import GraphGenerationError
from causalprobe.graph import (
    Dag,
    from_text,
    is_weakly_connected,
    random_dag,
    shd,
    to_text,
)


def brute_force_is_acyclic(n, edges):
    # Independent check: a digraph has a cycle iff some power of the
    # adjacency matrix has a nonzero diagonal entry.
    adj = np.zeros((n, n), dtype=np.int64)
    for a, b in edges:
        adj[a, b] = 1
    power = np.eye(n, dtype=np.int64)
    for _ in range(n):
        power = (power @ adj > 0).astype(np.int64)
        if np.trace(power) > 0:
            return False
    return True


def brute_force_reachable(n, edges):
    reach = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        reach[a, b] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


class TestDagBasics:
    def test_single_node(self):
        g = Dag(["a"])
        assert g.n == 1
        assert g.edges == frozenset()
        assert g.topological_order() == (0,)
        assert not g.has_directed_path(0, 0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Dag(["a", "a"])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Dag(["a", "b"], [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Dag(["a", "b"], [(0, 2)])

    def test_two_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dag(["a", "b"], [(0, 1), (1, 0)])

    def test_three_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dag(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])

    def test_parents_children(self):
        g = Dag(["a", "b", "c"], [(0, 2), (1, 2)])
        assert g.parents(2) == (0, 1)
        assert g.parents(0) == ()
        assert g.children(0) == (2,)
        assert g.children(2) == ()

    def test_index_lookup(self):
        g = Dag(["rain", "wet"], [(0, 1)])
        assert g.index("wet") == 1
        with pytest.raises(ValueError):
            g.index("snow")

    def test_immutable(self):
        g = Dag(["a"])
        with pytest.raises(AttributeError):
            g.labels = ("b",)

    def test_diamond_descendants(self):
        # a -> b, a -> c, b -> d, c -> d
        g = Dag("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert g.descendants(0) == frozenset({1, 2, 3})
        assert g.descendants(1) == frozenset({3})
        assert g.descendants(3) == frozenset()

    def test_topological_order_deterministic_min_index_first(self):
        # Both b and c are ready after a; the lower index must come first.
        g = Dag("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert g.topological_order() == (0, 1, 2, 3)
        g2 = Dag("abc", [])
        assert g2.topological_order() == (0, 1, 2)

    def test_topological_order_respects_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_dag(6, 0.3, rng)
            pos = {v: i for i, v in enumerate(g.topological_order())}
            for a, b in g.edges:
                assert pos[a] < pos[b]

    def test_equality_and_hash(self):
        g1 = Dag("ab", [(0, 1)])
        g2 = Dag("ab", [(0, 1)])
        g3 = Dag("ab", [])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != g3


class TestPaths:
    def test_chain_paths(self):
        g = Dag("abc", [(0, 1), (1, 2)])
        assert g.has_directed_path(0, 1)
        assert g.has_directed_path(0, 2)
        assert g.has_directed_path(1, 2)
        assert not g.has_directed_path(2, 0)
        assert not g.has_directed_path(1, 0)
        assert not g.has_directed_path(0, 0)

    def test_against_brute_force_reachability(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            g = random_dag(n, 0.3, rng)
            reach = brute_force_reachable(n, g.edges)
            for u in range(n):
                for v in range(n):
                    if u == v:
                        assert not g.has_directed_path(u, v)
                    else:
                        assert g.has_directed_path(u, v) == reach[u, v]

    def test_two_component_graph(self):
        # Two components: x3 -> x5 and x1 -> x6; the rest isolated.
        g = Dag([f"x{i}" for i in range(7)], [(3, 5), (1, 6)])
        assert not is_weakly_connected(g)
        assert not g.has_directed_path(1, 5)
        assert g.has_directed_path(3, 5)


class TestConnectivity:
    def test_single_node_connected(self):
        assert is_weakly_connected(Dag(["a"]))

    def test_edgeless_two_nodes_disconnected(self):
        assert not is_weakly_connected(Dag("ab"))

    def test_direction_ignored(self):
        # a <- b -> c is weakly connected despite no directed a..c path.
        g = Dag("abc", [(1, 0), (1, 2)])
        assert is_weakly_connected(g)

    def test_chain_connected(self):
        g = Dag("abcd", [(0, 1), (1, 2), (2, 3)])
        assert is_weakly_connected(g)


class TestRandomDag:
    def test_p_zero_gives_empty_graph(self):
        rng = np.random.default_rng(0)
        g = random_dag(5, 0.0, rng)
        assert g.n == 5
        assert g.edges == frozenset()
        assert g.labels == ("x0", "x1", "x2", "x3", "x4")

    def test_single_node(self):
        rng = np.random.default_rng(0)
        g = random_dag(1, 0.9, rng)
        assert g.n == 1
        assert g.edges == frozenset()

    def test_p_one_multi_node_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GraphGenerationError, match="in 10000 attempts"):
            random_dag(3, 1.0, rng)

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_dag(0, 0.5, rng)
        with pytest.raises(ValueError):
            random_dag(3, -0.1, rng)
        with pytest.raises(ValueError):
            random_dag(3, 1.5, rng)

    def test_always_acyclic(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            g = random_dag(int(rng.integers(1, 8)), 0.3, rng)
            assert brute_force_is_acyclic(g.n, g.edges)

    def test_n2_conditional_distribution(self):
        # With n=2, p=0.5: draws {}, {0->1}, {1->0} each have prior mass 1/4
        # and the cyclic draw {both} is rejected, so conditionally each
        # surviving outcome has probability 1/3.
        rng = np.random.default_rng(33)
        counts = {frozenset(): 0, frozenset({(0, 1)}): 0, frozenset({(1, 0)}): 0}
        trials = 3000
        for _ in range(trials):
            counts[random_dag(2, 0.5, rng).edges] += 1
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for got in counts.values():
            assert abs(got - trials / 3) < 3 * sigma

    def test_mean_edge_count_matches_exact_conditional(self):
        # Exact oracle: enumerate all 2^6 digraphs on 3 nodes, weight by the
        # i.i.d. edge probabilities, condition on acyclicity, and compute the
        # conditional mean and variance of the edge count.
        n, p = 3, 0.4
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        total_w = 0.0
        mean_acc = 0.0
        sq_acc = 0.0
        for k in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, k):
                if not brute_force_is_acyclic(n, combo):
                    continue
                w = (p ** k) * ((1 - p) ** (len(pairs) - k))
                total_w += w
                mean_acc += w * k
                sq_acc += w * k * k
        exact_mean = mean_acc / total_w
        exact_var = sq_acc / total_w - exact_mean ** 2

        rng = np.random.default_rng(55)
        trials = 4000
        sample_mean = (
            sum(len(random_dag(n, p, rng).edges) for _ in range(trials)) / trials
        )
        se = math.sqrt(exact_var / trials)
        assert abs(sample_mean - exact_mean) < 3 * se


class TestShd:
    def test_identical_graphs(self):
        g = Dag("abc", [(0, 1), (1, 2)])
        assert shd(g, g) == 0

    def test_single_reversal(self):
        a = Dag("abc", [(0, 1), (1, 2)])
        b = Dag("abc", [(1, 0), (1, 2)])
        assert shd(a, b) == 1

    def test_missing_and_extra(self):
        a = Dag("abc", [(0, 1)])
        b = Dag("abc", [(1, 2), (0, 2)])
        assert shd(a, b) == 3

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shd(Dag("ab"), Dag("ba"))

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = random_dag(n, 0.4, rng)
            b = random_dag(n, 0.4, rng)
            c = random_dag(n, 0.4, rng)
            assert shd(a, b) == shd(b, a)
            assert shd(a, a) == 0
            assert (shd(a, b) == 0) == (a == b)
            assert shd(a, c) <= shd(a, b) + shd(b, c)


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        g = Dag(["season", "rain", "wet"], [(0, 1), (1, 2)])
        text = to_text(g)
        assert text == "nodes: season, rain, wet\nseason -> rain\nrain -> wet\n"
        assert to_text(from_text(text)) == text

    def test_round_trip_random(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            g = random_dag(int(rng.integers(1, 8)), 0.3, rng)
            g2 = from_text(to_text(g))
            assert g2 == g

    def test_edgeless(self):
        g = Dag("ab")
        assert to_text(g) == "nodes: a, b\n"
        assert from_text(to_text(g)) == g

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            from_text("a -> b\n")
        with pytest.raises(ValueError):
            from_text("nodes: a, b\na => b\n")
        with pytest.raises(ValueError):
            from_text("nodes: a, b\na -> c\n")

    def test_unserializable_label(self):
        with pytest.raises(ValueError):
            to_text(Dag(["a,b", "c"]))
