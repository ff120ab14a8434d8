"""Score-based causal structure discovery honoring domain knowledge.

The search is a two-phase greedy equivalence search over CPDAGs: a forward
insertion phase climbs to a local optimum of the total BIC score, then a
backward deletion phase does the same. Domain knowledge enters three ways:
required edges are installed before the forward phase and are never deletion
candidates, forbidden edges are never introduced in their stated direction,
and after every operator the pattern is re-oriented so knowledge-implied
directions propagate through Meek's rules. The returned pattern therefore
carries the knowledge, and committing it to a DAG reads only the pattern.

All tie-breaks are fixed (enumeration order: by edge, then by subset), so
the search is a deterministic function of its inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import BinaryDataset, state_index
from .errors import CapacityError, DataError, KnowledgeError, OrientationError
from .graph import Dag, _check_labels

MAX_SCORE_PARENTS = 15
_IMPROVEMENT_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class Knowledge:
    """Qualitative structure constraints: edges that must or must not appear.

    Pairs are (parent, child) node names. Required and forbidden sets must be
    disjoint, no pair may be required in both directions, and the required
    edges alone must be acyclic. Both sets are kept as frozensets.
    """

    required: Iterable[tuple[str, str]] = ()
    forbidden: Iterable[tuple[str, str]] = ()

    def __post_init__(self):
        req = frozenset((str(a), str(b)) for a, b in self.required)
        forb = frozenset((str(a), str(b)) for a, b in self.forbidden)
        for a, b in req | forb:
            if a == b:
                raise KnowledgeError(f"self-edge {a!r} -> {b!r} is not allowed")
        overlap = req & forb
        if overlap:
            raise KnowledgeError(
                f"edges both required and forbidden: {sorted(overlap)}"
            )
        for a, b in req:
            if (b, a) in req:
                raise KnowledgeError(
                    f"both directions required between {a!r} and {b!r}"
                )
        nodes = sorted({x for edge in req for x in edge})
        index = {x: i for i, x in enumerate(nodes)}
        try:
            Dag(nodes, [(index[a], index[b]) for a, b in req])
        except ValueError:
            raise KnowledgeError("required edges form a cycle") from None
        object.__setattr__(self, "required", req)
        object.__setattr__(self, "forbidden", forb)

    def node_names(self) -> frozenset[str]:
        return frozenset(x for edge in self.required | self.forbidden for x in edge)

    def __repr__(self) -> str:
        return (
            f"Knowledge(required={sorted(self.required)}, "
            f"forbidden={sorted(self.forbidden)})"
        )


def parse_knowledge(text: str) -> Knowledge:
    """Parse lines of `require a -> b` and `forbid a -> b`; `#` starts a comment."""
    required = []
    forbidden = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        if len(fields) != 2 or "->" not in fields[1]:
            raise KnowledgeError(
                f"line {lineno}: expected 'require a -> b' or 'forbid a -> b', "
                f"got {raw.strip()!r}"
            )
        verb, rest = fields
        left, right = rest.split("->", 1)
        a, b = left.strip(), right.strip()
        if not a or not b:
            raise KnowledgeError(f"line {lineno}: missing node name")
        if verb == "require":
            required.append((a, b))
        elif verb == "forbid":
            forbidden.append((a, b))
        else:
            raise KnowledgeError(
                f"line {lineno}: unknown directive {verb!r}, "
                "expected 'require' or 'forbid'"
            )
    return Knowledge(required, forbidden)


def format_knowledge(k: Knowledge) -> str:
    """Render knowledge in the line format accepted by :func:`parse_knowledge`.

    Raises ValueError for a node name that format would not read back.
    """
    _check_labels(sorted(k.node_names()), "#", "->")
    lines = [f"require {a} -> {b}" for a, b in sorted(k.required)]
    lines += [f"forbid {a} -> {b}" for a, b in sorted(k.forbidden)]
    return "\n".join(lines) + "\n" if lines else ""


@dataclass(frozen=True, slots=True)
class Cpdag:
    """Partially directed pattern: directed plus undirected edges.

    Undirected pairs are stored normalized as (low index, high index). The
    directed part must be acyclic and no adjacency may be both directed and
    undirected. Labels are kept as a tuple, edges as frozensets.
    """

    labels: Sequence[str]
    directed: Iterable[tuple[int, int]] = ()
    undirected: Iterable[tuple[int, int]] = ()

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate node labels")
        n = len(labels)
        dir_set = frozenset((int(a), int(b)) for a, b in self.directed)
        und_set = frozenset(
            (min(int(a), int(b)), max(int(a), int(b))) for a, b in self.undirected
        )
        for a, b in dir_set | und_set:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) references an unknown node")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
        for a, b in dir_set:
            if (b, a) in dir_set:
                raise ValueError(f"edge between {a} and {b} directed both ways")
            if (min(a, b), max(a, b)) in und_set:
                raise ValueError(
                    f"edge between {a} and {b} both directed and undirected"
                )
        Dag(labels, dir_set)  # rejects directed cycles
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "directed", dir_set)
        object.__setattr__(self, "undirected", und_set)

    @property
    def n(self) -> int:
        return len(self.labels)

    def skeleton(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            {(min(a, b), max(a, b)) for a, b in self.directed} | self.undirected
        )

    def v_structures(self) -> frozenset[tuple[int, int, int]]:
        """Unshielded colliders (x, z, y) with x < y, x -> z <- y."""
        return _colliders(self.n, self.directed, self.skeleton())

    def __repr__(self) -> str:
        parts = [f"{self.labels[a]}->{self.labels[b]}" for a, b in sorted(self.directed)]
        parts += [f"{self.labels[a]}--{self.labels[b]}" for a, b in sorted(self.undirected)]
        return f"Cpdag({', '.join(parts) or 'no edges'})"


class _Scorer:
    """Cached local BIC scores over a binary dataset."""

    def __init__(self, data: BinaryDataset, penalty: float):
        if data.n_rows < 1:
            raise DataError("scoring needs at least one row")
        if not 0.0 < penalty < math.inf:
            raise ValueError("penalty must be finite and > 0")
        self.values = data.values
        self.m = data.n_rows
        self.log_m = math.log(self.m)
        self.penalty = float(penalty)
        self.cache: dict[tuple[int, frozenset[int]], float] = {}

    def local(self, node: int, parents: frozenset[int]) -> float:
        key = (node, parents)
        got = self.cache.get(key)
        if got is not None:
            return got
        k = len(parents)
        if k > MAX_SCORE_PARENTS:
            raise CapacityError(
                f"scoring with {k} parents exceeds the "
                f"{MAX_SCORE_PARENTS}-parent limit"
            )
        columns = [self.values[:, p] for p in sorted(parents)]
        idx = state_index([*columns, self.values[:, node]], self.m)
        cnt = np.bincount(idx, minlength=1 << (k + 1))
        n0 = cnt[0::2].astype(np.float64)
        n1 = cnt[1::2].astype(np.float64)
        ns = n0 + n1
        # ML log-likelihood; empty strata and zero counts contribute 0
        ll = 0.0
        mask = n1 > 0
        ll += float((n1[mask] * np.log(n1[mask] / ns[mask])).sum())
        mask = n0 > 0
        ll += float((n0[mask] * np.log(n0[mask] / ns[mask])).sum())
        score = ll - (self.penalty / 2.0) * (1 << k) * self.log_m
        self.cache[key] = score
        return score


# ---------------------------------------------------------------------------
# Pattern machinery: orientation, consistent extension, class computation.
# Internal helpers operate on mutable sets: directed {(a, b)} and undirected
# {(low, high)}.
# ---------------------------------------------------------------------------


def _und_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _colliders(
    n: int, directed: Iterable[tuple[int, int]], skeleton: set
) -> frozenset[tuple[int, int, int]]:
    """Unshielded colliders (x, z, y), x < y: x -> z <- y with x and y
    nonadjacent in ``skeleton`` (a set of (low, high) pairs)."""
    parents: list[list[int]] = [[] for _ in range(n)]
    for a, b in directed:
        parents[b].append(a)
    return frozenset(
        (x, z, y)
        for z in range(n)
        for x, y in itertools.combinations(sorted(parents[z]), 2)
        if (x, y) not in skeleton
    )


def _orient(directed: set, undirected: set, a: int, b: int) -> None:
    pair = _und_pair(a, b)
    if pair not in undirected:
        raise OrientationError(f"no undirected edge between {a} and {b} to orient")
    if (b, a) in directed:
        raise OrientationError(f"conflicting orientations for edge {a}-{b}")
    undirected.discard(pair)
    directed.add((a, b))


def _views(n: int, directed: set, undirected: set) -> tuple[list[set[int]], ...]:
    """Per-node adjacency, undirected neighbours, children and parents."""
    und_nb: list[set[int]] = [set() for _ in range(n)]
    children: list[set[int]] = [set() for _ in range(n)]
    parents: list[set[int]] = [set() for _ in range(n)]
    for a, b in undirected:
        und_nb[a].add(b)
        und_nb[b].add(a)
    for a, b in directed:
        children[a].add(b)
        parents[b].add(a)
    adj = [und_nb[v] | children[v] | parents[v] for v in range(n)]
    return adj, und_nb, children, parents


def _one_meek_step(n: int, directed: set, undirected: set) -> bool:
    """Apply the first firing orientation rule; True if anything changed.

    The rules direct an undirected edge whenever the opposite orientation
    would force a directed cycle or a new unshielded collider in every
    extension of the pattern.
    """
    adj, und_nb, children, parents = _views(n, directed, undirected)

    # Rule 1: a -> b, b - c, a and c nonadjacent  =>  b -> c
    for a, b in sorted(directed):
        for c in sorted(und_nb[b]):
            if c != a and c not in adj[a]:
                _orient(directed, undirected, b, c)
                return True
    for u, v in sorted(undirected):
        for a, b in ((u, v), (v, u)):
            # Rule 2: a -> w -> b, a - b  =>  a -> b
            if any(w in parents[b] for w in sorted(children[a])):
                _orient(directed, undirected, a, b)
                return True
            # Rule 3: a - c, a - d, c -> b, d -> b, c and d nonadjacent  =>  a -> b
            shared = sorted(und_nb[a] & parents[b])
            for c, d in itertools.combinations(shared, 2):
                if d not in adj[c]:
                    _orient(directed, undirected, a, b)
                    return True
            # Rule 4: a - w, w -> x, x -> b, w and b nonadjacent  =>  a -> b
            # (otherwise b -> a would either close a cycle through w, x or
            # build a new collider w -> a <- b)
            for w in sorted(und_nb[a]):
                if w != b and b not in adj[w] and children[w] & parents[b]:
                    _orient(directed, undirected, a, b)
                    return True
    return False


def _meek_closure(n: int, directed: set, undirected: set) -> None:
    while _one_meek_step(n, directed, undirected):
        pass


def _consistent_extension(n: int, directed: set, undirected: set) -> set:
    """Orient all undirected edges into a DAG with the pattern's colliders.

    Repeatedly finds the lowest node with no outgoing directed edges whose
    undirected neighbors are adjacent to all of its other neighbors, points
    that node's undirected edges at it, and removes it (Dor and Tarsi, 1992).
    Raises OrientationError when no such node exists, meaning the pattern
    admits no consistent extension.
    """
    adj, und_nb, children, _ = _views(n, directed, undirected)
    result = set(directed)
    alive = set(range(n))
    while alive:
        for x in sorted(alive):
            if not children[x] and all(adj[x] - {u} <= adj[u] for u in und_nb[x]):
                break
        else:
            raise OrientationError("pattern admits no consistent extension")
        result.update((u, x) for u in und_nb[x])
        for v in adj[x]:
            adj[v].discard(x)
            und_nb[v].discard(x)
            children[v].discard(x)
        alive.discard(x)
    return result


def _dag_to_pattern(n: int, dag_edges: set) -> tuple[set, set]:
    """Equivalence-class pattern of a DAG: v-structures stay directed, then
    the orientation rules propagate; everything else is undirected."""
    skeleton = {_und_pair(a, b) for a, b in dag_edges}
    directed = {
        (p, z) for x, z, y in _colliders(n, dag_edges, skeleton) for p in (x, y)
    }
    undirected = {_und_pair(a, b) for a, b in dag_edges if (a, b) not in directed}
    _meek_closure(n, directed, undirected)
    return directed, undirected


def dag_to_cpdag(graph: Dag) -> Cpdag:
    """The Markov equivalence class pattern of a DAG."""
    directed, undirected = _dag_to_pattern(graph.n, set(graph.edges))
    return Cpdag(graph.labels, directed, undirected)


def _knowledge_edges(
    knowledge: Knowledge, labels: Sequence[str]
) -> tuple[set, set]:
    """Required and forbidden edges as index pairs into ``labels``."""
    unknown = knowledge.node_names() - set(labels)
    if unknown:
        raise KnowledgeError(
            f"knowledge references unknown columns: {sorted(unknown)}"
        )
    index = {lab: i for i, lab in enumerate(labels)}
    return (
        {(index[a], index[b]) for a, b in knowledge.required},
        {(index[a], index[b]) for a, b in knowledge.forbidden},
    )


def _apply_knowledge_orientations(
    labels: Sequence[str], directed: set, undirected: set, required: set, forbidden: set
) -> None:
    """Orient required edges, then undirected edges forbidden one way only."""
    for a, b in sorted(required):
        edge = f"required edge {labels[a]}->{labels[b]}"
        if (b, a) in directed:
            raise OrientationError(
                f"{edge} is directed the other way in the pattern"
            )
        if (a, b) in directed:
            continue
        if _und_pair(a, b) in undirected:
            _orient(directed, undirected, a, b)
        else:
            raise OrientationError(f"{edge} has no adjacency in the pattern")
    for a, b in sorted(undirected):
        lo_hi = (a, b) in forbidden
        hi_lo = (b, a) in forbidden
        if lo_hi and not hi_lo:
            _orient(directed, undirected, b, a)
        elif hi_lo and not lo_hi:
            _orient(directed, undirected, a, b)


def _rebuild(
    labels: Sequence[str], directed: set, undirected: set, required: set, forbidden: set
) -> tuple[set, set]:
    """Canonical pattern after an operator: re-derive the equivalence class,
    re-apply knowledge orientations, and close under the orientation rules."""
    n = len(labels)
    extension = _consistent_extension(n, directed, undirected)
    d2, u2 = _dag_to_pattern(n, extension)
    _apply_knowledge_orientations(labels, d2, u2, required, forbidden)
    _meek_closure(n, d2, u2)
    return d2, u2


def _subsets(items: Sequence[int]):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _is_clique(nodes: Iterable[int], adj: list[set[int]]) -> bool:
    return all(b in adj[a] for a, b in itertools.combinations(nodes, 2))


def _blocks_semi_directed(
    y: int, x: int, blocked: set, children: list[set[int]], und_nb: list[set[int]]
) -> bool:
    """True iff every path y -> .. -> x along directed (forward) or
    undirected edges passes through a blocked node."""
    seen = {y}
    stack = [y]
    while stack:
        v = stack.pop()
        for w in itertools.chain(children[v], und_nb[v]):
            if w == x:
                return False
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return True


def _insertions(views, scorer: _Scorer, required: set, forbidden: set):
    """Insert x -> y, orienting the undirected t - y edges (t a subset of y's
    neighbours not adjacent to x) into y: yields (gain, (x, y, t)).
    ``required`` is unused; it keeps the signature of :func:`_deletions`."""
    adj, und_nb, children, parents = views
    n = len(adj)
    for x in range(n):
        for y in range(n):
            if x == y or y in adj[x] or (x, y) in forbidden:
                continue
            na = und_nb[y] & adj[x]
            for t in _subsets(sorted(und_nb[y] - adj[x])):
                if any((u, y) in forbidden for u in t):
                    continue
                group = na | set(t)
                if not _is_clique(group, adj) or not _blocks_semi_directed(
                    y, x, group, children, und_nb
                ):
                    continue
                base = parents[y] | group
                if len(base) + 1 > MAX_SCORE_PARENTS:
                    continue
                delta = scorer.local(y, frozenset(base | {x})) - scorer.local(
                    y, frozenset(base)
                )
                if delta > _IMPROVEMENT_TOL:
                    yield delta, (x, y, t)


def _deletions(views, scorer: _Scorer, required: set, forbidden: set):
    """Delete x - y or x -> y, orienting y -> h and x -> h for each h in a
    subset of the common undirected neighbours: yields
    (gain, (x, y, h, is_dir))."""
    adj, und_nb, children, parents = views
    n = len(adj)
    for x in range(n):
        for y in range(n):
            if x == y or (x, y) in required or (y, x) in required:
                continue
            is_dir = y in children[x]
            if not (is_dir or y in und_nb[x]):
                continue
            na = sorted(und_nb[y] & adj[x])
            for h in _subsets(na):
                rest = set(na) - set(h)
                if not _is_clique(rest, adj):
                    continue
                if any(
                    (y, u) in forbidden or (u in und_nb[x] and (x, u) in forbidden)
                    for u in h
                ):
                    continue
                base = (parents[y] - {x}) | rest
                if len(base) + 1 > MAX_SCORE_PARENTS:
                    continue
                delta = scorer.local(y, frozenset(base)) - scorer.local(
                    y, frozenset(base | {x})
                )
                if delta > _IMPROVEMENT_TOL:
                    yield delta, (x, y, h, is_dir)


def _insert(directed: set, undirected: set, move) -> tuple[set, set]:
    """Copies of the pattern with an insertion from :func:`_insertions` made."""
    x, y, t = move
    d, u = set(directed), set(undirected)
    d.add((x, y))
    for w in t:
        _orient(d, u, w, y)
    return d, u


def _delete(directed: set, undirected: set, move) -> tuple[set, set]:
    """Copies of the pattern with a deletion from :func:`_deletions` made."""
    x, y, h, is_dir = move
    d, u = set(directed), set(undirected)
    if is_dir:
        d.discard((x, y))
    else:
        u.discard(_und_pair(x, y))
    for w in h:
        if _und_pair(y, w) in u:
            _orient(d, u, y, w)
        if _und_pair(x, w) in u:
            _orient(d, u, x, w)
    return d, u


def ges(
    data: BinaryDataset,
    knowledge: Knowledge = Knowledge(),
    penalty: float = 1.0,
) -> Cpdag:
    """Greedy equivalence search over the dataset's columns.

    Returns the pattern found by a forward insertion phase followed by a
    backward deletion phase, both climbing total BIC. Knowledge constrains
    the search as described in the module docstring. Deterministic: the
    best-scoring move wins, and ties go to enumeration order: by x, then by
    y, then by the subset's size and lexicographic order.
    """
    labels = data.columns
    required, forbidden = _knowledge_edges(knowledge, labels)
    n = len(labels)
    scorer = _Scorer(data, penalty)

    directed: set = set(required)
    undirected: set = set()
    if required:
        directed, undirected = _rebuild(
            labels, directed, undirected, required, forbidden
        )
    # Each phase takes the best move that rebuilds until none does. A stable
    # sort on the gain keeps enumeration order among ties. Knowledge
    # orientations make the working pattern a general PDAG, so a move that
    # scores well can still fail to rebuild; such moves are skipped.
    for moves, apply in ((_insertions, _insert), (_deletions, _delete)):
        while True:
            views = _views(n, directed, undirected)
            ranked = sorted(
                moves(views, scorer, required, forbidden), key=lambda mv: -mv[0]
            )
            for _, move in ranked:
                d_try, u_try = apply(directed, undirected, move)
                try:
                    directed, undirected = _rebuild(
                        labels, d_try, u_try, required, forbidden
                    )
                except OrientationError:
                    continue
                break
            else:
                break  # no move rebuilt: the phase is over
    return Cpdag(labels, directed, undirected)


def orient_to_dag(pattern: Cpdag) -> Dag:
    """Commit a pattern to a single DAG.

    The orientation rules are closed first; remaining undirected edges are
    oriented lexicographically smallest first, low index to high index,
    re-closing after each. Knowledge is not an input: a pattern from
    :func:`ges` already has its required edges, and its edges forbidden in
    one direction, directed. The result is a consistent extension: acyclic,
    same skeleton, same unshielded colliders. Raises OrientationError when
    no consistent extension exists.
    """
    n = pattern.n
    directed = set(pattern.directed)
    undirected = set(pattern.undirected)
    before_colliders = pattern.v_structures()
    _meek_closure(n, directed, undirected)
    while undirected:
        a, b = min(undirected)
        _orient(directed, undirected, a, b)
        _meek_closure(n, directed, undirected)
    try:
        result = Dag(pattern.labels, directed)
    except ValueError as exc:
        raise OrientationError(f"orientation produced a cycle: {exc}") from exc
    if dagv_structures(result) != before_colliders:
        raise OrientationError(
            "no consistent extension: orientation changed the pattern's colliders"
        )
    return result


def dagv_structures(graph: Dag) -> frozenset[tuple[int, int, int]]:
    """Unshielded colliders (x, z, y) of a DAG, with x < y."""
    skeleton = {_und_pair(a, b) for a, b in graph.edges}
    return _colliders(graph.n, graph.edges, skeleton)


def pick_hint_edges(
    graph: Dag, p_hint: float, rng: np.random.Generator
) -> Knowledge:
    """Reveal a share of the true edges as required-edge knowledge.

    floor(p_hint * |edges|) distinct edges are drawn uniformly without
    replacement and returned as required edges; nothing is forbidden.
    """
    if not 0.0 <= p_hint <= 1.0:
        raise ValueError("p_hint must lie in [0, 1]")
    edges = sorted(graph.edges)
    k = int(math.floor(p_hint * len(edges)))
    if k == 0:
        return Knowledge()
    chosen = rng.choice(len(edges), size=k, replace=False)
    required = [
        (graph.labels[edges[i][0]], graph.labels[edges[i][1]])
        for i in sorted(int(c) for c in chosen)
    ]
    return Knowledge(required=required)
