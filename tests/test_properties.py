"""Property tests: invariants checked on generated graphs, columns, the
dense reference tables, networks, knowledge-constrained searches and text
formats against direct reference computations."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalprobe import bayesnet
from causalprobe.bayesnet import Cbn, random_cpds, sample, true_ate
from causalprobe.dataset import state_index
from causalprobe.discovery import (
    Knowledge,
    _apply_knowledge_orientations,
    _knowledge_edges,
    _meek_closure,
    dag_to_cpdag,
    dagv_structures,
    format_knowledge,
    ges,
    orient_to_dag,
    parse_knowledge,
    pick_hint_edges,
)
from causalprobe.graph import Dag, from_text, to_text
from causalprobe.probing import (
    GreaterThan,
    Interval,
    LessThan,
    NonZero,
    Point,
    ProbeSpec,
    format_probes,
    parse_probes,
)
from causalprobe.sim import SimParams, derive_seed, simulate_run
from reference import intervened, marginal, probability

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
    return labels, probs / probs.sum(), dict(zip(fixed, values))


@PROPERTY
@given(tables_and_assignments())
def test_probability_equals_masked_sum(table_and_assignment):
    labels, probs, assignment = table_and_assignment
    states = np.arange(1 << len(labels))
    keep = np.ones(states.shape, dtype=bool)
    for node, value in assignment.items():
        keep &= ((states >> labels.index(node)) & 1) == value
    assert probability(labels, probs, assignment) == float(probs[keep].sum())
    for i, node in enumerate(labels):
        want = float(probs[(states >> i) & 1 == 1].sum())
        assert marginal(labels, probs, node) == want


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
            want = marginal(g.labels, intervened(net, t, 1), o) - marginal(
                g.labels, intervened(net, t, 0), o
            )
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
    fresh = Cbn(net.graph, net.cpds)
    assert {pair: true_ate(fresh, *pair) for pair in shuffled} == first


@PROPERTY
@given(networks())
def test_network_equality_ignores_the_effect_memo(net):
    fresh = Cbn(net.graph, net.cpds)
    for t, o in _pairs(net):
        true_ate(net, t, o)
    assert not fresh._effect_rows
    assert net == fresh and fresh == net


def test_oracle_runs_one_elimination_pass_per_treatment(monkeypatch):
    passes = []
    effect_row = bayesnet._effect_row

    def counted(net, t):
        passes.append(t)
        return effect_row(net, t)

    monkeypatch.setattr(bayesnet, "_effect_row", counted)
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
    in_pattern, in_dag = _directed_edges(pattern, orient_to_dag(pattern))
    assert knowledge.required <= in_pattern
    assert knowledge.required <= in_dag


@PROPERTY
@given(searches())
def test_search_never_directs_a_forbidden_edge(case):
    data, knowledge = case
    pattern = ges(data, knowledge)
    in_pattern, in_dag = _directed_edges(pattern, orient_to_dag(pattern))
    assert not knowledge.forbidden & in_pattern
    assert not knowledge.forbidden & in_dag


@PROPERTY
@given(searches())
def test_search_returns_a_pattern_closed_under_its_knowledge(case):
    # Orientation reads only the pattern, so applying the knowledge and the
    # orientation rules once more must change nothing.
    data, knowledge = case
    pattern = ges(data, knowledge)
    directed, undirected = set(pattern.directed), set(pattern.undirected)
    required, forbidden = _knowledge_edges(knowledge, pattern.labels)
    _apply_knowledge_orientations(
        pattern.labels, directed, undirected, required, forbidden
    )
    _meek_closure(pattern.n, directed, undirected)
    assert directed == pattern.directed
    assert undirected == pattern.undirected


@PROPERTY
@given(searches())
def test_search_without_knowledge_returns_the_pattern_of_its_extension(case):
    data, _ = case
    pattern = ges(data)
    assert dag_to_cpdag(orient_to_dag(pattern)) == pattern


# Plain names, or names built from pieces a line format may split, strip or
# cut at.
labels = st.one_of(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.lists(
        st.sampled_from(
            ["a", "b", " ", "\t", "#", ",", "-", ">", "->", "\r", "\n",
             "\u2028", "expect", " expect", "expect "]
        ),
        max_size=4,
    ).map("".join),
)


def _writes_nothing_or_round_trips(write, read, value):
    try:
        text = write(value)
    except ValueError:
        return
    assert read(text) == value


@PROPERTY
@given(dags(max_nodes=5), st.data())
def test_graph_text_round_trips_or_the_writer_refuses(g, data):
    names = data.draw(st.lists(labels, min_size=g.n, max_size=g.n, unique=True))
    _writes_nothing_or_round_trips(to_text, from_text, Dag(names, g.edges))


@PROPERTY
@given(st.lists(labels, min_size=2, max_size=4, unique=True), st.data())
def test_knowledge_text_round_trips_or_the_writer_refuses(names, data):
    # Required pairs run forward in the list, so they are acyclic.
    forward = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    both = [(a, b) for a in names for b in names if a != b]
    required = data.draw(st.sets(st.sampled_from(forward)))
    forbidden = data.draw(st.sets(st.sampled_from(both))) - required
    _writes_nothing_or_round_trips(
        format_knowledge, parse_knowledge, Knowledge(required, forbidden)
    )


# An expectation, with one of its numbers made non-finite or not.
expectations = st.tuples(
    st.sampled_from(
        [(Point, (0.5, 0.1)), (Interval, (-0.25, 0.75)), (GreaterThan, (0.0,)),
         (LessThan, (-0.5,)), (NonZero, (0.05,))]
    ),
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 1), st.sampled_from([math.inf, -math.inf, math.nan])),
    ),
)


def _expectation(kind_and_args, bad):
    kind, args = kind_and_args
    args = list(args)
    if bad is not None:
        args[bad[0] % len(args)] = bad[1]
    return kind(*args)


@PROPERTY
@given(
    st.lists(
        st.tuples(labels, labels, expectations).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=3,
    )
)
def test_probe_text_round_trips_or_the_writer_refuses(probes):
    try:
        specs = tuple(ProbeSpec(t, o, _expectation(*e)) for t, o, e in probes)
    except ValueError:  # a non-finite number, which no probe line can hold
        return
    _writes_nothing_or_round_trips(format_probes, parse_probes, specs)
