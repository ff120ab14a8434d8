"""Labeled directed acyclic graphs with generation, reachability and comparison.

Nodes are referenced by index into an ordered label list. All operations are
deterministic; ties are broken by node index.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphGenerationError

REJECTION_CAP = 10_000


@dataclass(frozen=True, slots=True)
class Dag:
    """Immutable directed acyclic graph over an ordered list of node labels.

    Edges are ordered (parent, child) index pairs, kept as a frozenset; labels
    are kept as a tuple. Construction rejects self-loops, out-of-range
    endpoints and directed cycles.
    """

    labels: Sequence[str]
    edges: Iterable[tuple[int, int]] = ()
    # Derived from the edges in __post_init__.
    _parents: tuple = field(init=False, repr=False, compare=False)
    _children: tuple = field(init=False, repr=False, compare=False)
    _topo: tuple = field(init=False, repr=False, compare=False)
    _descendants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate node labels")
        n = len(labels)
        edge_set = frozenset((int(a), int(b)) for a, b in self.edges)
        for a, b in edge_set:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) references an unknown node")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for a, b in sorted(edge_set):
            parents[b].append(a)
            children[a].append(b)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "_parents", tuple(tuple(p) for p in parents))
        object.__setattr__(self, "_children", tuple(tuple(c) for c in children))
        object.__setattr__(self, "_topo", self._toposort())
        # A node's descendants are its children and theirs: one pass in
        # reverse topological order derives every set.
        desc: list[frozenset[int]] = [frozenset()] * n
        for v in reversed(self._topo):
            desc[v] = frozenset(children[v]).union(*(desc[c] for c in children[v]))
        object.__setattr__(self, "_descendants", tuple(desc))

    def _toposort(self) -> tuple[int, ...]:
        indeg = [len(p) for p in self._parents]
        ready = [v for v, d in enumerate(indeg) if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != self.n:
            raise ValueError("edges contain a directed cycle")
        return tuple(order)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown node label {label!r}") from None

    def parents(self, v: int) -> tuple[int, ...]:
        return self._parents[self._check(v)]

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[self._check(v)]

    def descendants(self, v: int) -> frozenset[int]:
        """All nodes reachable from v by a directed path of length >= 1."""
        return self._descendants[self._check(v)]

    def topological_order(self) -> tuple[int, ...]:
        """Topological order with ties broken by node index."""
        return self._topo

    def has_directed_path(self, u: int, v: int) -> bool:
        """True iff a directed path of length >= 1 leads from u to v.

        has_directed_path(u, u) is False by convention: acyclicity rules out
        any directed path from a node back to itself.
        """
        reachable = self.descendants(u)
        return self._check(v) in reachable

    def with_edges(self, edges: Iterable[tuple[int, int]]) -> "Dag":
        """New Dag over the same labels with the given edge set."""
        return Dag(self.labels, edges)

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{self.labels[a]}->{self.labels[b]}" for a, b in sorted(self.edges)
        )
        return f"Dag({self.n} nodes: {edges or 'no edges'})"

    def _check(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"node index {v} out of range for {self.n} nodes")
        return v


def random_dag(n: int, p_edge: float, rng: np.random.Generator) -> Dag:
    """Draw a random DAG over the labels x0..x(n-1) by rejection sampling.

    Every ordered pair (i, j) with i != j is included independently with
    probability ``p_edge``; a cyclic draw is discarded wholesale and redrawn.
    Raises GraphGenerationError after REJECTION_CAP discarded draws, which
    signals that ``p_edge`` is too high for ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError("p_edge must lie in [0, 1]")
    # Interned, so the records of a study's runs share one copy of each.
    labels = tuple(sys.intern(f"x{i}") for i in range(n))
    for _ in range(REJECTION_CAP + 1):
        mask = rng.random((n, n)) < p_edge
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        try:
            return Dag(labels, zip(rows.tolist(), cols.tolist()))
        except ValueError:
            continue
    raise GraphGenerationError(
        f"no acyclic draw in {REJECTION_CAP} attempts (n={n}, p_edge={p_edge})"
    )


def shd(a: Dag, b: Dag) -> int:
    """Structural Hamming distance between two DAGs on the same node set.

    A reversed edge counts 1; an edge present in only one graph counts 1.
    """
    if a.labels != b.labels:
        raise ValueError("graphs must share the same node set")
    skel_a = {(min(e), max(e)) for e in a.edges}
    skel_b = {(min(e), max(e)) for e in b.edges}
    dist = 0
    for pair in skel_a | skel_b:
        if pair in skel_a and pair in skel_b:
            i, j = pair
            if ((i, j) in a.edges) != ((i, j) in b.edges):
                dist += 1
        else:
            dist += 1
    return dist


def is_weakly_connected(g: Dag) -> bool:
    """True iff the undirected skeleton has exactly one connected component."""
    if g.n <= 1:
        return True
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def _check_labels(labels: Iterable[str], *tokens: str) -> None:
    """Raise ValueError for a label that a line format would not read back
    unchanged: one that is empty, spans lines, has surrounding whitespace, or
    contains one of ``tokens`` once a space is put on each side of it."""
    for label in labels:
        if (
            label.splitlines() != [label]
            or label != label.strip()
            or any(t in f" {label} " for t in tokens)
        ):
            raise ValueError(f"label {label!r} cannot be serialized")


def to_text(g: Dag) -> str:
    """Serialize to the line format: a `nodes:` header then one edge per line.

    Raises ValueError for a label :func:`from_text` would not read back.
    """
    _check_labels(g.labels, ",", "->")
    lines = ["nodes: " + ", ".join(g.labels)]
    for a, b in sorted(g.edges):
        lines.append(f"{g.labels[a]} -> {g.labels[b]}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Dag:
    """Parse the format written by :func:`to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("nodes:"):
        raise ValueError("expected a 'nodes:' header line")
    labels = tuple(x.strip() for x in lines[0][len("nodes:"):].split(",") if x.strip())
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for ln in lines[1:]:
        if "->" not in ln:
            raise ValueError(f"expected 'a -> b', got {ln!r}")
        left, right = ln.split("->", 1)
        a, b = left.strip(), right.strip()
        if a not in index or b not in index:
            raise ValueError(f"edge references unknown node in {ln!r}")
        edges.append((index[a], index[b]))
    return Dag(labels, edges)


def to_dot(g: Dag) -> str:
    """Export a DOT-subset digraph for visualization."""

    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph g {"]
    for label in g.labels:
        lines.append(f"  {q(label)};")
    for a, b in sorted(g.edges):
        lines.append(f"  {q(g.labels[a])} -> {q(g.labels[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
