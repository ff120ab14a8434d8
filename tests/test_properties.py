"""Property tests: invariants checked on generated graphs, columns, joint
tables, networks and knowledge-constrained searches against direct reference
computations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalprobe import bayesnet
from causalprobe.bayesnet import (
    JointTable,
    from_json,
    intervene,
    random_cpds,
    sample,
    to_json,
    true_ate,
)
from causalprobe.dataset import state_index
from causalprobe.discovery import (
    Knowledge,
    dag_to_cpdag,
    dagv_structures,
    ges,
    orient_to_dag,
    pick_hint_edges,
)
from causalprobe.graph import Dag, from_text
from causalprobe.sim import SimParams, derive_seed, simulate_run

PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)


@st.composite
def dags(draw, max_nodes=8):
    """Any DAG on up to ``max_nodes`` nodes: a random order plus a random
    subset of the forward pairs in that order."""
    n = draw(st.integers(1, max_nodes))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag([f"v{i}" for i in range(n)], [e for e, k in zip(pairs, keep) if k])


@PROPERTY
@given(dags())
def test_pattern_keeps_the_dags_colliders(g):
    assert dag_to_cpdag(g).v_structures() == dagv_structures(g)


@PROPERTY
@given(dags())
def test_pattern_is_the_pattern_of_its_extension(g):
    pattern = dag_to_cpdag(g)
    assert dag_to_cpdag(orient_to_dag(pattern)) == pattern


@PROPERTY
@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(0, 30), st.integers(0, 12)),
        elements=st.integers(0, 1),
    )
)
def test_state_index_reads_each_row_as_binary(values):
    got = state_index((values[:, j] for j in range(values.shape[1])), len(values))
    assert got.dtype == np.int64
    want = [int("".join(map(str, row)) or "0", 2) for row in values]
    assert got.tolist() == want


@st.composite
def tables_and_assignments(draw):
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    probs = np.random.default_rng(seed).random(1 << n)
    labels = [f"v{i}" for i in range(n)]
    fixed = draw(st.lists(st.sampled_from(labels), unique=True))
    values = draw(
        st.lists(st.integers(0, 1), min_size=len(fixed), max_size=len(fixed))
    )
    return JointTable(labels, probs / probs.sum()), dict(zip(fixed, values))


@PROPERTY
@given(tables_and_assignments())
def test_probability_equals_masked_sum(table_and_assignment):
    table, assignment = table_and_assignment
    states = np.arange(1 << table.n)
    keep = np.ones(states.shape, dtype=bool)
    for node, value in assignment.items():
        keep &= ((states >> table.labels.index(node)) & 1) == value
    assert table.probability(assignment) == float(table.probs[keep].sum())
    for i, node in enumerate(table.labels):
        want = float(table.probs[(states >> i) & 1 == 1].sum())
        assert table.marginal(node) == want


@st.composite
def networks(draw, max_nodes=8):
    """A random DAG with CPD entries drawn from a seeded generator."""
    g = draw(dags(max_nodes))
    return random_cpds(g, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def _pairs(net):
    return [(t, o) for t in net.graph.labels for o in net.graph.labels if t != o]


@PROPERTY
@given(networks())
def test_true_ate_is_the_difference_of_the_intervened_marginals(net):
    g = net.graph
    for t, o in _pairs(net):
        got = true_ate(net, t, o)
        if g.has_directed_path(g.index(t), g.index(o)):
            want = intervene(net, t, 1).marginal(o) - intervene(net, t, 0).marginal(o)
            # Elimination sums in another order than the dense tables.
            assert abs(got - want) <= 1e-12
        else:
            assert got == 0.0


@PROPERTY
@given(networks(), st.randoms(use_true_random=False))
def test_true_ate_ignores_the_order_of_the_questions(net, random):
    pairs = _pairs(net)
    first = {pair: true_ate(net, *pair) for pair in pairs}
    shuffled = list(pairs)
    random.shuffle(shuffled)
    fresh = from_json(to_json(net))
    assert {pair: true_ate(fresh, *pair) for pair in shuffled} == first


@PROPERTY
@given(networks())
def test_network_equality_and_json_ignore_the_effect_memo(net):
    before = to_json(net)
    fresh = from_json(before)
    for t, o in _pairs(net):
        true_ate(net, t, o)
    assert net == fresh and fresh == net
    assert to_json(net) == before


def test_oracle_runs_one_elimination_pass_per_treatment(monkeypatch):
    passes = []
    effect_row = bayesnet._effect_row

    def counted(net, t):
        passes.append(t)
        return effect_row(net, t)

    def dense(*args):
        raise AssertionError("the study built a 2**n table")

    monkeypatch.setattr(bayesnet, "_effect_row", counted)
    monkeypatch.setattr(bayesnet, "_all_states", dense)
    params = SimParams(n=10, p_edge=0.2, m=200, master_seed=3)
    rec = simulate_run(params, 0)
    assert not rec.failed
    assert rec.run_seed == derive_seed(params.master_seed, 0, 0)  # first network
    g = from_text(rec.true_graph)
    with_descendant = sum(1 for v in range(g.n) if g.children(v))
    assert 0 < len(passes) <= with_descendant
    assert len(set(passes)) == len(passes)


@st.composite
def searches(draw, max_nodes=6, m=300):
    """Data sampled from a random network, with knowledge that holds in it:
    hinted true edges as required, and forbidden pairs drawn only from the
    pairs the true graph leaves nonadjacent."""
    net = draw(networks(max_nodes))
    g = net.graph
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = sample(net, m, rng)
    hints = pick_hint_edges(g, draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])), rng)
    skeleton = {frozenset(e) for e in g.edges}
    open_pairs = [
        (a, b) for a in range(g.n) for b in range(g.n)
        if a != b and frozenset((a, b)) not in skeleton
    ]
    keep = draw(
        st.lists(st.booleans(), min_size=len(open_pairs), max_size=len(open_pairs))
    )
    forbidden = [
        (g.labels[a], g.labels[b]) for (a, b), k in zip(open_pairs, keep) if k
    ]
    return data, Knowledge(hints.required, forbidden)


def _directed_edges(pattern, dag):
    """Name pairs directed in the search's pattern, and in its DAG."""
    labels = pattern.labels
    return (
        {(labels[a], labels[b]) for a, b in pattern.directed},
        {(labels[a], labels[b]) for a, b in dag.edges},
    )


@PROPERTY
@given(searches())
def test_search_directs_every_required_edge(case):
    data, knowledge = case
    pattern = ges(data, knowledge)
    in_pattern, in_dag = _directed_edges(pattern, orient_to_dag(pattern, knowledge))
    assert knowledge.required <= in_pattern
    assert knowledge.required <= in_dag


@PROPERTY
@given(searches())
def test_search_never_directs_a_forbidden_edge(case):
    data, knowledge = case
    pattern = ges(data, knowledge)
    in_pattern, in_dag = _directed_edges(pattern, orient_to_dag(pattern, knowledge))
    assert not knowledge.forbidden & in_pattern
    assert not knowledge.forbidden & in_dag


@PROPERTY
@given(searches())
def test_search_without_knowledge_returns_the_pattern_of_its_extension(case):
    data, _ = case
    pattern = ges(data)
    assert dag_to_cpdag(orient_to_dag(pattern)) == pattern
