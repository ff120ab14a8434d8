"""Property tests: invariants checked on generated graphs, columns and
joint tables against direct reference computations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalprobe.bayesnet import JointTable
from causalprobe.dataset import state_index
from causalprobe.discovery import dag_to_cpdag, dagv_structures, orient_to_dag
from causalprobe.graph import Dag

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
