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

from .dataset import BinaryDataset, _content_lines, state_index
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
    for lineno, line in _content_lines(text):
        fields = line.split(None, 1)
        if len(fields) != 2 or "->" not in fields[1]:
            raise KnowledgeError(
                f"line {lineno}: expected 'require a -> b' or 'forbid a -> b', "
                f"got {line!r}"
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
        return _colliders(_pattern(self.n, self.directed, self.undirected))

    def __repr__(self) -> str:
        parts = [f"{self.labels[a]}->{self.labels[b]}" for a, b in sorted(self.directed)]
        parts += [f"{self.labels[a]}--{self.labels[b]}" for a, b in sorted(self.undirected)]
        return f"Cpdag({', '.join(parts) or 'no edges'})"


class _Scorer:
    """Cached local BIC scores over a binary dataset.

    A parent set is a bitmask over column indices (bit ``p`` for column
    ``p``); each node's scores are cached by that mask.
    """

    def __init__(self, data: BinaryDataset, penalty: float):
        if data.n_rows < 1:
            raise DataError("scoring needs at least one row")
        if not 0.0 < penalty < math.inf:
            raise ValueError("penalty must be finite and > 0")
        self.values = data.values
        self.m = data.n_rows
        self.log_m = math.log(self.m)
        self.penalty = float(penalty)
        self.cache: list[dict[int, float]] = [{} for _ in data.columns]

    def local(self, node: int, parents: int) -> float:
        cache = self.cache[node]
        got = cache.get(parents)
        if got is not None:
            return got
        k = parents.bit_count()
        if k > MAX_SCORE_PARENTS:
            raise CapacityError(
                f"scoring with {k} parents exceeds the "
                f"{MAX_SCORE_PARENTS}-parent limit"
            )
        columns = [self.values[:, p] for p in _bits(parents)]
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
        cache[parents] = score
        return score


# ---------------------------------------------------------------------------
# Pattern machinery: orientation, consistent extension, class computation.
# A pattern is held as four per-node bitmask lists (bit v for node v):
# adjacents, undirected neighbours, children and parents. Edge sets are built
# only where a Cpdag or Dag is made or read. Walking a mask's bits in
# ascending order keeps the node order the tie-breaks rely on.
# ---------------------------------------------------------------------------


def _bits(mask: int):
    """The nodes of a bitmask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pattern(
    n: int,
    directed: Iterable[tuple[int, int]],
    undirected: Iterable[tuple[int, int]] = (),
) -> tuple[list[int], ...]:
    """The masks of a pattern: adjacents, undirected neighbours, children,
    parents."""
    adj, und, children, parents = pattern = ([0] * n, [0] * n, [0] * n, [0] * n)
    for a, b in undirected:
        und[a] |= 1 << b
        und[b] |= 1 << a
    for a, b in directed:
        children[a] |= 1 << b
        parents[b] |= 1 << a
    for v in range(n):
        adj[v] = und[v] | children[v] | parents[v]
    return pattern


def _edges(pattern) -> tuple[set, set]:
    """The pattern's directed (a, b) and undirected (low, high) edges."""
    _, und, children, _ = pattern
    directed = {(a, b) for a, mask in enumerate(children) for b in _bits(mask)}
    undirected = {(a, b) for a, mask in enumerate(und) for b in _bits(mask) if a < b}
    return directed, undirected


def _copy(pattern) -> tuple[list[int], ...]:
    return tuple(list(masks) for masks in pattern)


def _colliders(pattern) -> frozenset[tuple[int, int, int]]:
    """Unshielded colliders (x, z, y), x < y: x -> z <- y with x and y
    nonadjacent."""
    adj, _, _, parents = pattern
    return frozenset(
        (x, z, y)
        for z, into in enumerate(parents)
        for x in _bits(into)
        for y in _bits((into & ~adj[x]) >> (x + 1) << (x + 1))
    )


def _orient(pattern, a: int, b: int) -> None:
    """Direct the edge a - b as a -> b, in place. The edge is undirected or
    already a -> b."""
    _, und, children, parents = pattern
    und[a] &= ~(1 << b)
    und[b] &= ~(1 << a)
    children[a] |= 1 << b
    parents[b] |= 1 << a


def _meek_edge(pattern) -> tuple[int, int] | None:
    """The first undirected edge a - b that an orientation rule directs
    a -> b, or None when the pattern is closed under the rules.

    The rules direct an undirected edge whenever the opposite orientation
    would force a directed cycle or a new unshielded collider in every
    extension of the pattern.
    """
    adj, und, children, parents = pattern
    n = len(adj)
    # Rule 1: a -> b, b - c, a and c nonadjacent  =>  b -> c
    for a in range(n):
        for b in _bits(children[a]):
            free = und[b] & ~adj[a] & ~(1 << a)
            if free:
                return b, next(_bits(free))
    for u in range(n):
        for v in _bits(und[u] >> (u + 1) << (u + 1)):
            for a, b in ((u, v), (v, u)):
                # Rule 2: a -> w -> b, a - b  =>  a -> b
                if children[a] & parents[b]:
                    return a, b
                # Rule 3: a - c, a - d, c -> b, d -> b, c and d nonadjacent  =>  a -> b
                shared = und[a] & parents[b]
                if any(shared & ~adj[c] & ~(1 << c) for c in _bits(shared)):
                    return a, b
                # Rule 4: a - w, w -> x, x -> b, w and b nonadjacent  =>  a -> b
                # (otherwise b -> a would either close a cycle through w, x or
                # build a new collider w -> a <- b)
                if any(
                    not (adj[w] >> b & 1) and children[w] & parents[b]
                    for w in _bits(und[a] & ~(1 << b))
                ):
                    return a, b
    return None


def _meek_closure(pattern) -> None:
    """Close the pattern under the orientation rules, in place."""
    while (edge := _meek_edge(pattern)) is not None:
        _orient(pattern, *edge)


def _consistent_extension(pattern) -> tuple[list[int], ...]:
    """Orient all undirected edges into a DAG with the pattern's colliders.

    Repeatedly finds the lowest node with no outgoing directed edges whose
    undirected neighbors are adjacent to all of its other neighbors, points
    that node's undirected edges at it, and removes it (Dor and Tarsi, 1992).
    Returns the DAG as a pattern with no undirected edges. Raises
    OrientationError when no such node exists, meaning the pattern admits no
    consistent extension.
    """
    dag = _copy(pattern)
    adj, und, children, _ = _copy(pattern)
    alive = (1 << len(adj)) - 1
    while alive:
        for x in _bits(alive):
            if not children[x] and all(
                not (adj[x] & ~adj[u] & ~(1 << u)) for u in _bits(und[x])
            ):
                break
        else:
            raise OrientationError("pattern admits no consistent extension")
        for u in _bits(und[x]):
            _orient(dag, u, x)
        keep = ~(1 << x)
        for v in _bits(adj[x]):
            adj[v] &= keep
            und[v] &= keep
            children[v] &= keep
        alive &= keep
    return dag


def _dag_to_pattern(dag) -> tuple[list[int], ...]:
    """Equivalence-class pattern of a DAG: v-structures stay directed, then
    the orientation rules propagate; everything else is undirected."""
    adj = dag[0]
    pattern = (list(adj), list(adj), [0] * len(adj), [0] * len(adj))
    for x, z, y in _colliders(dag):
        _orient(pattern, x, z)
        _orient(pattern, y, z)
    _meek_closure(pattern)
    return pattern


def dag_to_cpdag(graph: Dag) -> Cpdag:
    """The Markov equivalence class pattern of a DAG."""
    pattern = _dag_to_pattern(_pattern(graph.n, graph.edges))
    return Cpdag(graph.labels, *_edges(pattern))


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
    labels: Sequence[str], pattern, required_from: list[int], forbidden_from: list[int]
) -> None:
    """Orient required edges, then undirected edges forbidden one way only.

    ``required_from[a]`` and ``forbidden_from[a]`` hold the nodes b of the
    required and forbidden edges a -> b.
    """
    adj, und, children, _ = pattern
    for a, required in enumerate(required_from):
        for b in _bits(required):
            edge = f"required edge {labels[a]}->{labels[b]}"
            if children[b] >> a & 1:
                raise OrientationError(
                    f"{edge} is directed the other way in the pattern"
                )
            if not adj[a] >> b & 1:
                raise OrientationError(f"{edge} has no adjacency in the pattern")
            _orient(pattern, a, b)
    for a, forbidden in enumerate(forbidden_from):
        for b in _bits(und[a] & forbidden):
            if not forbidden_from[b] >> a & 1:
                _orient(pattern, b, a)


def _rebuild(
    labels: Sequence[str], pattern, required_from: list[int], forbidden_from: list[int]
) -> tuple[list[int], ...]:
    """Canonical pattern after an operator: re-derive the equivalence class,
    re-apply knowledge orientations, and close under the orientation rules."""
    rebuilt = _dag_to_pattern(_consistent_extension(pattern))
    _apply_knowledge_orientations(labels, rebuilt, required_from, forbidden_from)
    _meek_closure(rebuilt)
    return rebuilt


def _subsets(mask: int):
    """Subsets of a bitmask's nodes by size, then lexicographically: yields
    (nodes as an ascending tuple, their mask)."""
    items = list(_bits(mask))
    for r in range(len(items) + 1):
        for nodes in itertools.combinations(items, r):
            yield nodes, sum(1 << v for v in nodes)


def _is_clique(nodes: int, adj: list[int]) -> bool:
    return all(not (nodes & ~adj[v] & ~(1 << v)) for v in _bits(nodes))


def _blocks_semi_directed(
    y: int, x: int, blocked: int, children: list[int], und: list[int]
) -> bool:
    """True iff every path y -> .. -> x along directed (forward) or
    undirected edges passes through a blocked node."""
    seen = frontier = 1 << y
    while frontier:
        step = 0
        for v in _bits(frontier):
            step |= children[v] | und[v]
        if step >> x & 1:
            return False
        frontier = step & ~seen & ~blocked
        seen |= frontier
    return True


# Each phase keeps a memo of move candidates. A pair (x, y)'s candidates,
# their MAX_SCORE_PARENTS filter and their gains depend only on the masks in
# its key: for an insertion y's undirected neighbours, those adjacent to x,
# and y's parents; for a deletion the common neighbours and y's parents. The
# memo maps the key to the candidates in enumeration order, each [group,
# subset, base, gain]: the nodes whose validity a step re-checks, the subset
# the move carries, the parent mask its gain compares with and without x,
# and that gain once computed. The generators thus yield what a full
# re-enumeration would, in the same order, but score each candidate once
# and skip those whose gain is already known to be too small.
#
# Knowledge needs no filter on the subsets: every pattern the search holds
# comes from _rebuild, which directs each edge forbidden one way, and an
# edge forbidden both ways is never inserted, so no undirected edge is
# forbidden either way.


def _insertions(pattern, memo: dict, scorer: _Scorer, forbidden_from: list[int]):
    """Insert x -> y, orienting the undirected t - y edges (t a subset of y's
    neighbours not adjacent to x) into y: yields (gain, (x, y, t))."""
    adj, und, children, parents = pattern
    n = len(adj)
    for x in range(n):
        for y in _bits(((1 << n) - 1) & ~(adj[x] | forbidden_from[x] | 1 << x)):
            na = und[y] & adj[x]
            key = (x, y, und[y], na, parents[y])
            candidates = memo.get(key)
            if candidates is None:
                candidates = memo[key] = []
                for t, t_mask in _subsets(und[y] & ~na):
                    base = parents[y] | na | t_mask
                    if base.bit_count() + 1 <= MAX_SCORE_PARENTS:
                        candidates.append([na | t_mask, t, base, None])
            for cand in candidates:
                group, t, base, gain = cand
                if gain is not None and gain <= _IMPROVEMENT_TOL:
                    continue
                if not _is_clique(group, adj) or not _blocks_semi_directed(
                    y, x, group, children, und
                ):
                    continue
                if gain is None:
                    gain = cand[3] = scorer.local(y, base | 1 << x) - scorer.local(
                        y, base
                    )
                if gain > _IMPROVEMENT_TOL:
                    yield gain, (x, y, t)


def _deletions(pattern, memo: dict, scorer: _Scorer, required_adj: list[int]):
    """Delete x - y or x -> y, orienting y -> h and x -> h for each h in a
    subset of the common undirected neighbours: yields (gain, (x, y, h))."""
    adj, und, children, parents = pattern
    n = len(adj)
    for x in range(n):
        for y in _bits((children[x] | und[x]) & ~required_adj[x]):
            na = und[y] & adj[x]
            key = (x, y, na, parents[y])
            candidates = memo.get(key)
            if candidates is None:
                candidates = memo[key] = []
                for h, h_mask in _subsets(na):
                    rest = na & ~h_mask
                    base = (parents[y] & ~(1 << x)) | rest
                    if base.bit_count() + 1 <= MAX_SCORE_PARENTS:
                        candidates.append([rest, h, base, None])
            for cand in candidates:
                rest, h, base, gain = cand
                if gain is not None and gain <= _IMPROVEMENT_TOL:
                    continue
                if not _is_clique(rest, adj):
                    continue
                if gain is None:
                    gain = cand[3] = scorer.local(y, base) - scorer.local(
                        y, base | 1 << x
                    )
                if gain > _IMPROVEMENT_TOL:
                    yield gain, (x, y, h)


def _insert(pattern, move) -> tuple[list[int], ...]:
    """A copy of the pattern with an insertion from :func:`_insertions` made."""
    x, y, t = move
    new = adj, _, children, parents = _copy(pattern)
    adj[x] |= 1 << y
    adj[y] |= 1 << x
    children[x] |= 1 << y
    parents[y] |= 1 << x
    for w in t:
        _orient(new, w, y)
    return new


def _delete(pattern, move) -> tuple[list[int], ...]:
    """A copy of the pattern with a deletion from :func:`_deletions` made."""
    x, y, h = move
    new = _copy(pattern)
    for a, b in ((x, y), (y, x)):
        for masks in new:
            masks[a] &= ~(1 << b)
    und = new[1]
    for w in h:
        _orient(new, y, w)
        if und[x] >> w & 1:
            _orient(new, x, w)
    return new


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

    # Knowledge as per-node masks: the adjacents and children of the
    # required edges read as a pattern, and the children of the forbidden.
    required_adj, _, required_from, _ = _pattern(n, required)
    forbidden_from = _pattern(n, forbidden)[2]
    pattern = _pattern(n, required)
    if required:
        pattern = _rebuild(labels, pattern, required_from, forbidden_from)
    # Each phase takes the best move that rebuilds until none does. A stable
    # sort on the gain keeps enumeration order among ties. Knowledge
    # orientations make the working pattern a general PDAG, so a move that
    # scores well can still fail to rebuild; such moves are skipped.
    phases = (
        (_insertions, forbidden_from, _insert),
        (_deletions, required_adj, _delete),
    )
    for moves, knowledge_masks, apply in phases:
        memo: dict = {}
        while True:
            ranked = sorted(
                moves(pattern, memo, scorer, knowledge_masks), key=lambda mv: -mv[0]
            )
            for _, move in ranked:
                try:
                    pattern = _rebuild(
                        labels, apply(pattern, move), required_from, forbidden_from
                    )
                except OrientationError:
                    continue
                break
            else:
                break  # no move rebuilt: the phase is over
    return Cpdag(labels, *_edges(pattern))


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
    before_colliders = pattern.v_structures()
    masks = _pattern(pattern.n, pattern.directed, pattern.undirected)
    und = masks[1]
    _meek_closure(masks)
    # Orienting never adds an undirected edge, so the lowest node left with
    # one has only higher neighbours: its lowest one makes the smallest pair.
    for a in range(pattern.n):
        while und[a]:
            _orient(masks, a, next(_bits(und[a])))
            _meek_closure(masks)
    try:
        result = Dag(pattern.labels, _edges(masks)[0])
    except ValueError as exc:
        raise OrientationError(f"orientation produced a cycle: {exc}") from exc
    if dagv_structures(result) != before_colliders:
        raise OrientationError(
            "no consistent extension: orientation changed the pattern's colliders"
        )
    return result


def dagv_structures(graph: Dag) -> frozenset[tuple[int, int, int]]:
    """Unshielded colliders (x, z, y) of a DAG, with x < y."""
    return _colliders(_pattern(graph.n, graph.edges))


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
