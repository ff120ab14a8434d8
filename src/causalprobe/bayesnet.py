"""Causal Bayesian networks over binary variables.

A network pairs a DAG with one conditional probability table per node. All
variables take values in {0, 1}. Average treatment effects are computed
exactly, without sampling error, by variable elimination, whose factors span
only the nodes that are live at one step; the limit there is on that live
width, not on the node count.

Bit convention: CPD tables are indexed by the parent configuration with the
first parent in the CPD's parent list as the most significant bit. Entry
``table[i]`` is p(node = 1 | parents in configuration i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataset import BinaryDataset, state_index
from .errors import CapacityError, DataError
from .graph import Dag

MAX_EXACT_NODES = 25


@dataclass(frozen=True, slots=True)
class Cpd:
    """Conditional probability table for one binary node.

    ``table`` has length 2**len(parents); entry i is p(node = 1 | parents in
    configuration i), with the first parent as the most significant bit.
    Parents and table are kept as tuples.
    """

    node: str
    parents: Sequence[str]
    table: Sequence[float]

    def __post_init__(self):
        node = self.node
        parents = tuple(str(p) for p in self.parents)
        if len(set(parents)) != len(parents):
            raise ValueError(f"cpd for {node!r} repeats a parent")
        if node in parents:
            raise ValueError(f"cpd for {node!r} lists itself as a parent")
        table = tuple(float(x) for x in self.table)
        if len(table) != 1 << len(parents):
            raise ValueError(
                f"cpd for {node!r} has {len(table)} entries, expected "
                f"{1 << len(parents)} for {len(parents)} parents"
            )
        for x in table:
            if not (0.0 <= x <= 1.0) or not math.isfinite(x):
                raise ValueError(f"cpd for {node!r} has probability {x} outside [0, 1]")
        object.__setattr__(self, "node", str(node))
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "table", table)

    def __repr__(self) -> str:
        return f"Cpd({self.node!r}, parents={list(self.parents)})"


@dataclass(frozen=True, slots=True)
class Cbn:
    """A DAG plus one CPD per node, checked for mutual consistency.

    ``cpds`` is kept as a tuple in the graph's label order. ``_effect_rows``
    memoizes :func:`true_ate` per treatment index; it is derived from the
    graph and CPDs, so equality ignores it.
    """

    graph: Dag
    cpds: Iterable[Cpd]
    _effect_rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        graph = self.graph
        by_node = {}
        for cpd in self.cpds:
            if cpd.node in by_node:
                raise ValueError(f"two cpds for node {cpd.node!r}")
            by_node[cpd.node] = cpd
        missing = set(graph.labels) - set(by_node)
        if missing:
            raise ValueError(f"missing cpds for {sorted(missing)}")
        extra = set(by_node) - set(graph.labels)
        if extra:
            raise ValueError(f"cpds for unknown nodes {sorted(extra)}")
        for v in range(graph.n):
            cpd = by_node[graph.labels[v]]
            want = {graph.labels[p] for p in graph.parents(v)}
            if set(cpd.parents) != want:
                raise ValueError(
                    f"cpd for {cpd.node!r} conditions on {sorted(cpd.parents)} "
                    f"but the graph gives parents {sorted(want)}"
                )
        object.__setattr__(self, "cpds", tuple(by_node[lab] for lab in graph.labels))
        object.__setattr__(self, "_effect_rows", {})

    def cpd(self, node: str) -> Cpd:
        return self.cpds[self.graph.index(node)]

    def __repr__(self) -> str:
        return f"Cbn({self.graph!r})"


def _elimination_plan(g: Dag, t: int) -> list[tuple[int, tuple[int, ...]]]:
    """Steps of the elimination pass for do(t): (node, nodes summed out after
    adding it), over t, its descendants and their ancestors in topological
    order, with t's parents cut.

    A node is live from when it is added until its last kept child is. Walked
    dry, before any factor exists: CapacityError when the factor over the arm
    axis and the live nodes would exceed 2**MAX_EXACT_NODES cells.
    """
    kept = {t}
    stack = list(g.descendants(t))
    while stack:
        v = stack.pop()
        if v not in kept:
            kept.add(v)
            stack.extend(g.parents(v))
    pending = {v: sum(c in kept for c in g.children(v)) for v in kept}
    live: list[int] = []
    steps = []
    for v in g.topological_order():
        if v not in kept:
            continue
        live.append(v)
        if len(live) + 1 > MAX_EXACT_NODES:
            raise CapacityError(
                f"exact effects of {g.labels[t]!r} need {len(live)} live nodes "
                f"at once; the factor would exceed 2**{MAX_EXACT_NODES} cells"
            )
        for p in () if v == t else g.parents(v):
            pending[p] -= 1
        dead = tuple(u for u in live if pending[u] == 0)
        live = [u for u in live if pending[u] > 0]
        steps.append((v, dead))
    return steps


def _effect_row(net: Cbn, t: int) -> tuple[float, ...]:
    """Exact effect of do(node t) on every node, 0.0 where no directed path
    leads from t.

    Variable elimination along :func:`_elimination_plan`: one dense factor
    over the live nodes, with a leading arm axis for do(t = 0) and
    do(t = 1). Adding a node multiplies in its CPD (for t, the identity over
    arm and t); a descendant's effect is read off the factor before the
    nodes that are no longer live are summed out.
    """
    g = net.graph
    steps = _elimination_plan(g, t)
    reached = g.descendants(t)
    row = [0.0] * g.n
    factor = np.ones(2)
    live: list[int] = []
    for v, dead in steps:
        # The new node's axis goes last; its parents' axes keep their places.
        if v == t:
            table = np.eye(2).reshape([2] + [1] * len(live) + [2])
        else:
            cpd = net.cpds[v]
            pos = [live.index(g.index(p)) for p in cpd.parents]
            p_one = np.asarray(cpd.table, dtype=np.float64)
            table = np.stack([1.0 - p_one, p_one], axis=-1).reshape(
                (2,) * (len(pos) + 1)
            )
            shape = [1] * (len(live) + 1) + [2]
            for q in pos:
                shape[q + 1] = 2
            order = sorted(range(len(pos)), key=pos.__getitem__)
            table = table.transpose([*order, len(pos)]).reshape(shape)
        factor = factor[..., None] * table
        live.append(v)
        if v in reached:
            arms = factor.sum(axis=tuple(range(1, factor.ndim - 1)))
            row[v] = float(arms[1, 1] - arms[0, 1])
        if dead:
            factor = factor.sum(axis=tuple(live.index(u) + 1 for u in dead))
            live = [u for u in live if u not in dead]
    return tuple(row)


def true_ate(net: Cbn, treatment: str, outcome: str) -> float:
    """Average treatment effect p(outcome=1 | do(t=1)) - p(outcome=1 | do(t=0)).

    Computed exactly from the truncated factorization, and exactly 0.0 when
    no directed path leads from treatment to outcome. The effects of one
    treatment on every node come from one elimination pass on first use and
    are kept with the network. Raises CapacityError when that pass would
    need a factor of more than 2**MAX_EXACT_NODES cells.
    """
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    g = net.graph
    t, o = g.index(treatment), g.index(outcome)
    if not g.has_directed_path(t, o):
        return 0.0
    row = net._effect_rows.get(t)
    if row is None:
        row = net._effect_rows[t] = _effect_row(net, t)
    return row[o]


def random_cpds(graph: Dag, rng: np.random.Generator) -> Cbn:
    """Network with every CPD entry drawn independently from Uniform[0, 1).

    Nodes are visited in label order; each node's parents appear in the
    graph's parent order (ascending index). One uniform draw per table entry.
    """
    cpds = []
    for v in range(graph.n):
        parents = [graph.labels[p] for p in graph.parents(v)]
        table = rng.random(1 << len(parents))
        cpds.append(Cpd(graph.labels[v], parents, table))
    return Cbn(graph, cpds)


def sample(net: Cbn, m: int, rng: np.random.Generator) -> BinaryDataset:
    """Draw m joint observations by ancestral sampling.

    Nodes are visited in the graph's topological order (ties broken by node
    index); each node consumes exactly one block of m uniforms. Columns of
    the result follow the graph's label order.
    """
    if m < 1:
        raise DataError("sample size must be >= 1")
    n = net.graph.n
    values = np.zeros((m, n), dtype=np.uint8)
    for v in net.graph.topological_order():
        cpd = net.cpds[v]
        idx = state_index(
            (values[:, net.graph.index(p)] for p in cpd.parents), m
        )
        p_one = np.asarray(cpd.table, dtype=np.float64)[idx]
        values[:, v] = (rng.random(m) < p_one).astype(np.uint8)
    return BinaryDataset(net.graph.labels, values)
