import itertools
import math

import numpy as np
import pytest

from causalprobe.bayesnet import Cbn, Cpd, random_cpds, sample
from causalprobe.dataset import BinaryDataset
from causalprobe.discovery import (
    _extend,
    _Scorer,
    Cpdag,
    Knowledge,
    dag_to_cpdag,
    format_knowledge,
    ges,
    orient_to_dag,
    parse_knowledge,
    pick_hint_edges,
)
from causalprobe.errors import CapacityError, KnowledgeError, OrientationError
from causalprobe.graph import Dag, random_dag
from reference import on_sets, unshielded_colliders


def _mask(data, names):
    """The scorer's parent mask for the named columns."""
    return sum(1 << data.column_index(p) for p in names)


def local_bic(data, node, parents=(), penalty=1.0):
    """Local BIC of one node, from the scorer the search uses."""
    return _Scorer(data, penalty).local(data.column_index(node), _mask(data, parents))


def graph_bic(data, graph):
    """Sum of one scorer's local BICs over the nodes of a DAG."""
    scorer = _Scorer(data, 1.0)
    return sum(
        scorer.local(
            data.column_index(graph.labels[v]),
            _mask(data, [graph.labels[p] for p in graph.parents(v)]),
        )
        for v in range(graph.n)
    )


def chain_net(p0=0.5, lo=0.1, hi=0.9):
    g = Dag(["x0", "x1", "x2"], [(0, 1), (1, 2)])
    return Cbn(
        g,
        [
            Cpd("x0", [], [p0]),
            Cpd("x1", ["x0"], [lo, hi]),
            Cpd("x2", ["x1"], [lo, hi]),
        ],
    )


def collider_net():
    g = Dag(["x0", "x1", "x2"], [(0, 2), (1, 2)])
    return Cbn(
        g,
        [
            Cpd("x0", [], [0.5]),
            Cpd("x1", [], [0.5]),
            Cpd("x2", ["x0", "x1"], [0.05, 0.5, 0.5, 0.95]),
        ],
    )


class TestKnowledge:
    def test_empty(self):
        k = Knowledge()
        assert k.required == k.forbidden == frozenset()
        assert Knowledge([], []) == k

    def test_overlap_rejected(self):
        with pytest.raises(KnowledgeError):
            Knowledge(required=[("a", "b")], forbidden=[("a", "b")])

    def test_both_directions_required_rejected(self):
        with pytest.raises(KnowledgeError):
            Knowledge(required=[("a", "b"), ("b", "a")])

    def test_cyclic_required_rejected(self):
        with pytest.raises(KnowledgeError):
            Knowledge(required=[("a", "b"), ("b", "c"), ("c", "a")])

    def test_self_edge_rejected(self):
        with pytest.raises(KnowledgeError):
            Knowledge(forbidden=[("a", "a")])

    def test_reverse_forbidden_is_fine(self):
        k = Knowledge(required=[("a", "b")], forbidden=[("b", "a")])
        assert ("a", "b") in k.required

    def test_parse_and_format_round_trip(self):
        text = "require a -> b\n# comment\nforbid c -> d  # trailing\n\nrequire b -> c\n"
        k = parse_knowledge(text)
        assert k.required == frozenset({("a", "b"), ("b", "c")})
        assert k.forbidden == frozenset({("c", "d")})
        assert parse_knowledge(format_knowledge(k)) == k

    def test_parse_order_insensitive(self):
        a = parse_knowledge("require a -> b\nforbid c -> d\n")
        b = parse_knowledge("forbid c -> d\nrequire a -> b\n")
        assert a == b

    def test_parse_bad_directive(self):
        with pytest.raises(KnowledgeError):
            parse_knowledge("demand a -> b\n")

    def test_parse_bad_arrow(self):
        with pytest.raises(KnowledgeError):
            parse_knowledge("require a => b\n")

    def test_format_empty(self):
        assert format_knowledge(Knowledge()) == ""


class TestCpdag:
    def test_normalizes_undirected(self):
        p = Cpdag(["a", "b"], undirected=[(1, 0)])
        assert p.undirected == frozenset({(0, 1)})

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Cpdag("ab", directed=[(0, 1)], undirected=[(0, 1)])

    def test_rejects_two_way_directed(self):
        with pytest.raises(ValueError):
            Cpdag("ab", directed=[(0, 1), (1, 0)])

    def test_rejects_directed_cycle(self):
        with pytest.raises(ValueError):
            Cpdag("abc", directed=[(0, 1), (1, 2), (2, 0)])

    def test_v_structures(self):
        p = Cpdag("abc", directed=[(0, 2), (1, 2)])
        assert p.v_structures() == frozenset({(0, 2, 1)})
        shielded = Cpdag("abc", directed=[(0, 2), (1, 2), (0, 1)])
        assert shielded.v_structures() == frozenset()


class TestBicScore:
    def test_constant_node_no_parents(self):
        d = BinaryDataset(["a"], np.zeros((8, 1), dtype=np.uint8))
        # ML probability is 1 on every row, so log-likelihood is exactly 0.
        assert local_bic(d, "a", [], penalty=1.0) == -0.5 * math.log(8)
        assert local_bic(d, "a", [], penalty=2.0) == -1.0 * math.log(8)

    def test_hand_computed_with_parent(self):
        d = BinaryDataset(
            ["a", "b"], np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        )
        # Both strata of a are (1, 1), so ll = 4*ln(1/2); 2 strata cost
        # (1/2)*2*ln(4).
        want = 4 * math.log(0.5) - math.log(4)
        assert local_bic(d, "b", ["a"]) == pytest.approx(want, abs=1e-12)

    def test_empty_stratum_contributes_zero(self):
        d = BinaryDataset(
            ["a", "b"], np.array([[0, 0], [0, 1], [0, 1], [0, 1]])
        )
        # Stratum a=1 is empty; a=0 has counts (1, 3).
        want = (
            1 * math.log(1 / 4) + 3 * math.log(3 / 4) - 0.5 * 2 * math.log(4)
        )
        assert local_bic(d, "b", ["a"]) == pytest.approx(want, abs=1e-12)

    def test_parent_order_irrelevant(self):
        rng = np.random.default_rng(2)
        d = BinaryDataset(["a", "b", "c"], rng.integers(0, 2, size=(40, 3)))
        assert local_bic(d, "c", ["a", "b"]) == local_bic(d, "c", ["b", "a"])

    def test_decomposability(self):
        rng = np.random.default_rng(4)
        g = random_dag(5, 0.4, rng)
        d = sample(random_cpds(g, rng), 200, rng)
        total = sum(
            local_bic(d, g.labels[v], [g.labels[p] for p in g.parents(v)])
            for v in range(g.n)
        )
        assert graph_bic(d, g) == pytest.approx(total, abs=1e-9)

    def test_penalty_prefers_no_parent_on_independent_data(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = BinaryDataset(["a", "b"], rng.integers(0, 2, size=(1000, 2)))
            if local_bic(d, "a", []) > local_bic(d, "a", ["b"]):
                hits += 1
        assert hits >= 95

    def test_penalty_must_be_finite_and_positive(self):
        d = BinaryDataset(["a", "b"], np.array([[0, 1], [1, 0]]))
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="penalty"):
                ges(d, penalty=bad)

    def test_capacity_guard(self):
        cols = [f"v{i}" for i in range(17)]
        d = BinaryDataset(cols, np.zeros((4, 17), dtype=np.uint8))
        with pytest.raises(CapacityError):
            local_bic(d, "v0", cols[1:])


class TestDagToCpdag:
    def test_chain_is_fully_undirected(self):
        g = Dag("abc", [(0, 1), (1, 2)])
        p = dag_to_cpdag(g)
        assert p.directed == frozenset()
        assert p.undirected == frozenset({(0, 1), (1, 2)})

    def test_collider_stays_directed(self):
        g = Dag("abc", [(0, 2), (1, 2)])
        p = dag_to_cpdag(g)
        assert p.directed == frozenset({(0, 2), (1, 2)})
        assert p.undirected == frozenset()

    def test_triangle_fully_undirected(self):
        g = Dag("abc", [(0, 1), (0, 2), (1, 2)])
        p = dag_to_cpdag(g)
        assert p.directed == frozenset()
        assert p.undirected == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_diamond(self):
        g = Dag("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])
        p = dag_to_cpdag(g)
        assert p.directed == frozenset({(1, 3), (2, 3)})
        assert p.undirected == frozenset({(0, 1), (0, 2)})

    def test_downstream_of_collider_is_compelled(self):
        # a -> c <- b plus c -> d: rule 1 compels c -> d.
        g = Dag("abcd", [(0, 2), (1, 2), (2, 3)])
        p = dag_to_cpdag(g)
        assert p.directed == frozenset({(0, 2), (1, 2), (2, 3)})

    def test_class_members_share_pattern(self):
        # All three members of the chain class map to the same pattern.
        chain_up = Dag("abc", [(0, 1), (1, 2)])
        chain_down = Dag("abc", [(2, 1), (1, 0)])
        fork = Dag("abc", [(1, 0), (1, 2)])
        assert dag_to_cpdag(chain_up) == dag_to_cpdag(chain_down) == dag_to_cpdag(fork)


class TestOrientToDag:
    def test_fully_directed_is_identity(self):
        p = Cpdag("abc", directed=[(0, 2), (1, 2)])
        assert orient_to_dag(p) == Dag("abc", [(0, 2), (1, 2)])

    def test_single_undirected_edge_index_rule(self):
        p = Cpdag("ab", undirected=[(0, 1)])
        assert orient_to_dag(p) == Dag("ab", [(0, 1)])

    def test_chain_with_required_becomes_fork(self):
        # The search directs the required edge; the index rule then orients
        # the other one out of x1.
        d = sample(chain_net(), 1000, np.random.default_rng(101))
        p = ges(d, Knowledge(required=[("x1", "x0")]))
        assert orient_to_dag(p) == Dag(d.columns, [(1, 0), (1, 2)])

    def test_chain_no_knowledge_orients_by_index(self):
        p = Cpdag("abc", undirected=[(0, 1), (1, 2)])
        assert orient_to_dag(p) == Dag("abc", [(0, 1), (1, 2)])

    def test_rule1_beats_index_order(self):
        # 0 -> 2 with 2 - 1 and 0, 1 nonadjacent compels 2 -> 1 even though
        # the index rule alone would pick 1 -> 2.
        p = Cpdag("abc", directed=[(0, 2)], undirected=[(1, 2)])
        assert orient_to_dag(p) == Dag("abc", [(0, 2), (2, 1)])

    def test_rule2_beats_index_order(self):
        # 2 -> 1 -> 0 with 0 - 2 compels 2 -> 0 (else a cycle).
        p = Cpdag("abc", directed=[(2, 1), (1, 0)], undirected=[(0, 2)])
        assert orient_to_dag(p) == Dag("abc", [(2, 1), (1, 0), (2, 0)])

    def test_rule3_beats_index_order(self):
        # 3 - 0, 3 - 1, 3 - 2 with 1 -> 0, 2 -> 0 and 1, 2 nonadjacent
        # compels 3 -> 0.
        p = Cpdag(
            "abcd",
            directed=[(1, 0), (2, 0)],
            undirected=[(0, 3), (1, 3), (2, 3)],
        )
        out = orient_to_dag(p)
        assert (3, 0) in out.edges

    def test_rule4_beats_index_order(self):
        # Kite: 3 - 0, 3 - 1, 3 - 2 with 0 -> 1 -> 2 compels 3 -> 2.
        p = Cpdag(
            "abcd",
            directed=[(0, 1), (1, 2)],
            undirected=[(0, 3), (1, 3), (2, 3)],
        )
        out = orient_to_dag(p)
        assert (3, 2) in out.edges
        assert unshielded_colliders(out.edges, p.skeleton()) == set()

    def test_consistent_extension_properties(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            g = random_dag(6, 0.3, rng)
            p = dag_to_cpdag(g)
            out = orient_to_dag(p)
            assert {(min(e), max(e)) for e in out.edges} == set(p.skeleton())
            assert unshielded_colliders(out.edges, p.skeleton()) == p.v_structures()
            assert dag_to_cpdag(out) == p

    def test_forbidden_direction_is_not_chosen(self):
        # The index rule alone would pick x0 -> x1; the search has already
        # directed the edge the allowed way.
        d = sample(chain_net(), 1000, np.random.default_rng(109))
        p = ges(d, Knowledge(forbidden=[("x0", "x1")]))
        assert (1, 0) in orient_to_dag(p).edges


class TestConsistentExtension:
    """An extension of a PDAG orients its undirected edges into a DAG that
    keeps every directed edge and has the same unshielded colliders."""

    @staticmethod
    def has_extension(n, directed, undirected):
        labels = [f"v{i}" for i in range(n)]
        skeleton = {(min(e), max(e)) for e in directed} | undirected
        want = unshielded_colliders(directed, skeleton)
        und = sorted(undirected)
        for flips in itertools.product((False, True), repeat=len(und)):
            edges = directed | {(b, a) if f else (a, b) for (a, b), f in zip(und, flips)}
            try:
                Dag(labels, edges)
            except ValueError:
                continue
            if unshielded_colliders(edges, skeleton) == want:
                return True
        return False

    def check(self, n, directed, undirected):
        """Compare against brute force; True iff an extension exists."""
        extend = on_sets(_extend)
        if not self.has_extension(n, directed, undirected):
            with pytest.raises(OrientationError):
                extend(n, set(directed), set(undirected))
            return False
        out = extend(n, set(directed), set(undirected))
        Dag([f"v{i}" for i in range(n)], out)  # acyclic
        skeleton = {(min(e), max(e)) for e in directed} | undirected
        assert len(out) == len(skeleton)
        assert {(min(e), max(e)) for e in out} == skeleton
        assert directed <= out
        assert unshielded_colliders(out, skeleton) == unshielded_colliders(
            directed, skeleton
        )
        return True

    def test_random_pdags_agree_with_brute_force(self):
        # CPDAGs of dense random DAGs (edges follow a random node order) with
        # some undirected edges oriented at random; a few admit no extension.
        rng = np.random.default_rng(17)
        outcomes = []
        for _ in range(600):
            n = int(rng.integers(2, 7))
            order = rng.permutation(n).tolist()
            edges = [
                (order[i], order[j])
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < 0.6
            ]
            p = dag_to_cpdag(Dag([f"v{i}" for i in range(n)], edges))
            directed, undirected = set(p.directed), set()
            for a, b in sorted(p.undirected):
                r = rng.random()
                if r < 0.35:
                    directed.add((a, b))
                elif r < 0.7:
                    directed.add((b, a))
                else:
                    undirected.add((a, b))
            outcomes.append(self.check(n, directed, undirected))
        assert 20 < outcomes.count(False) < 100

    def test_chordless_four_cycle_has_no_extension(self):
        assert not self.check(4, set(), {(0, 1), (1, 2), (2, 3), (0, 3)})


class TestGes:
    def test_chain_recovers_class(self):
        rng = np.random.default_rng(101)
        d = sample(chain_net(), 1000, rng)
        p = ges(d)
        assert p.undirected == frozenset({(0, 1), (1, 2)})
        assert p.directed == frozenset()

    def test_collider_recovers_v_structure(self):
        rng = np.random.default_rng(103)
        d = sample(collider_net(), 2000, rng)
        p = ges(d)
        assert p.directed == frozenset({(0, 2), (1, 2)})
        assert p.undirected == frozenset()

    def test_independent_columns_give_empty_pattern(self):
        rng = np.random.default_rng(105)
        d = BinaryDataset(["a", "b", "c"], rng.integers(0, 2, size=(500, 3)))
        p = ges(d)
        assert p.directed == frozenset() and p.undirected == frozenset()

    def test_required_edge_appears_and_is_directed(self):
        rng = np.random.default_rng(107)
        d = sample(chain_net(), 1000, rng)
        p = ges(d, Knowledge(required=[("x1", "x0")]))
        assert (1, 0) in p.directed

    def test_forbidden_direction_is_never_produced(self):
        rng = np.random.default_rng(109)
        d = sample(chain_net(), 1000, rng)
        p = ges(d, Knowledge(forbidden=[("x0", "x1")]))
        assert (0, 1) not in p.directed
        # the adjacency itself survives, oriented the allowed way
        assert (1, 0) in p.directed

    def test_required_edge_not_supported_by_data_still_present(self):
        rng = np.random.default_rng(111)
        d = BinaryDataset(["a", "b"], rng.integers(0, 2, size=(500, 2)))
        p = ges(d, Knowledge(required=[("b", "a")]))
        assert (1, 0) in p.directed

    def test_deterministic(self):
        rng = np.random.default_rng(113)
        g = random_dag(6, 0.3, rng)
        d = sample(random_cpds(g, rng), 800, rng)
        k = pick_hint_edges(g, 0.4, rng)
        assert ges(d, k) == ges(d, k)

    def test_unknown_knowledge_column(self):
        d = BinaryDataset(["a", "b"], np.zeros((10, 2), dtype=np.uint8))
        with pytest.raises(KnowledgeError):
            ges(d, Knowledge(required=[("a", "zz")]))

    def test_knowledge_constraints_hold_on_random_runs(self):
        rng = np.random.default_rng(115)
        for _ in range(25):
            g = random_dag(5, 0.3, rng)
            net = random_cpds(g, rng)
            d = sample(net, 400, rng)
            k = pick_hint_edges(g, 0.5, rng)
            idx = {lab: i for i, lab in enumerate(d.columns)}
            p = ges(d, k)
            for a, b in k.required:
                assert (idx[a], idx[b]) in p.directed
            out = orient_to_dag(p)
            for a, b in k.required:
                assert (idx[a], idx[b]) in out.edges

    def test_score_never_below_start(self):
        rng = np.random.default_rng(117)
        for _ in range(10):
            g = random_dag(5, 0.35, rng)
            d = sample(random_cpds(g, rng), 500, rng)
            k = pick_hint_edges(g, 0.3, rng)
            p = ges(d, k)
            found = graph_bic(d, orient_to_dag(p))
            idx = {lab: i for i, lab in enumerate(d.columns)}
            start = graph_bic(
                d, Dag(d.columns, [(idx[a], idx[b]) for a, b in k.required])
            )
            assert found >= start - 1e-9

    def test_mixed_knowledge_survives_unextendable_moves(self):
        # With required plus forbidden constraints the working pattern is a
        # general PDAG, and the top-scoring insertion at this seed yields a
        # pattern with no consistent extension; the search must skip it
        # rather than fail, and the constraints must hold in the result.
        rng = np.random.default_rng(7089422506376582999)
        g = random_dag(6, 0.25, rng)
        net = random_cpds(g, rng)
        d = sample(net, 800, rng)
        k = pick_hint_edges(g, 0.5, rng)
        name = dict(enumerate(g.labels))
        adjacent = {frozenset((name[a], name[b])) for a, b in g.edges}
        forbidden = [(b, a) for a, b in sorted(k.required)]
        non_adj = [
            (name[a], name[b])
            for a in range(6)
            for b in range(6)
            if a != b and frozenset((name[a], name[b])) not in adjacent
        ]
        picks = rng.choice(len(non_adj), size=3, replace=False)
        forbidden += [non_adj[j] for j in sorted(picks)]
        know = Knowledge(required=sorted(k.required), forbidden=forbidden)
        dag = orient_to_dag(ges(d, know))
        edges = {(name[a], name[b]) for a, b in dag.edges}
        assert know.required <= edges
        assert not (know.forbidden & edges)


class TestPickHintEdges:
    def test_rounding_down(self):
        g = Dag("abcdef", [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        k = pick_hint_edges(g, 0.3, np.random.default_rng(0))
        assert len(k.required) == 1

    def test_all_edges(self):
        g = Dag("abc", [(0, 1), (1, 2)])
        k = pick_hint_edges(g, 1.0, np.random.default_rng(0))
        assert k.required == frozenset({("a", "b"), ("b", "c")})
        assert k.forbidden == frozenset()

    def test_zero(self):
        g = Dag("abc", [(0, 1)])
        assert pick_hint_edges(g, 0.0, np.random.default_rng(0)) == Knowledge()

    def test_subset_of_true_edges(self):
        rng = np.random.default_rng(7)
        g = random_dag(7, 0.4, rng)
        name = dict(enumerate(g.labels))
        true_pairs = {(name[a], name[b]) for a, b in g.edges}
        for _ in range(20):
            k = pick_hint_edges(g, 0.6, rng)
            assert k.required <= true_pairs
            assert len(k.required) == int(0.6 * len(g.edges))

    def test_invalid_proportion(self):
        g = Dag("ab", [(0, 1)])
        with pytest.raises(ValueError):
            pick_hint_edges(g, 1.2, np.random.default_rng(0))
