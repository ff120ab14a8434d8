"""Reference computations that tests compare the package against.

A joint distribution here is a plain float64 array over all 2**n states of
a network, with node ``i`` at bit ``i``: state ``s`` gives node ``i`` the
value ``(s >> i) & 1``. Every CPD is multiplied out over every state, so
these suit small networks only; the package itself computes effects by
variable elimination (``bayesnet.true_ate``).

``ges_reference`` is the greedy equivalence search written plainly: every
step re-enumerates and re-scores every move of the whole pattern, on
per-node Python sets. ``meek_closure_reference``,
``consistent_extension_reference`` and ``rebuild_reference`` are the
pattern rules and the search's rebuild on the same sets; they share no
pattern code with the package, whose rules read per-node bitmasks.
``masks``, ``edge_sets`` and ``on_sets`` convert between the two forms.
"""

import itertools

import numpy as np

from causalprobe.bayesnet import Cbn, Cpd
from causalprobe.dataset import state_index
from causalprobe.discovery import (
    _IMPROVEMENT_TOL,
    MAX_SCORE_PARENTS,
    Cpdag,
    Knowledge,
    _knowledge_edges,
    _Scorer,
)
from causalprobe.errors import OrientationError
from causalprobe.estimation import adjustment_set
from causalprobe.graph import Dag


def _factor_product(net, skip, states):
    """Product over ``states`` of every node's CPD factor except ``skip``'s."""
    probs = np.ones(states.shape, dtype=np.float64)
    for v in range(net.graph.n):
        if v == skip:
            continue
        cpd = net.cpds[v]
        idx = state_index(
            ((states >> net.graph.index(p)) & 1 for p in cpd.parents), states.size
        )
        p_one = np.asarray(cpd.table, dtype=np.float64)[idx]
        value = (states >> v) & 1
        probs *= np.where(value == 1, p_one, 1.0 - p_one)
    return probs


def joint(net):
    """The exact joint distribution of the network."""
    return _factor_product(net, None, np.arange(1 << net.graph.n, dtype=np.int64))


def intervened(net, treatment, value):
    """The joint distribution under do(treatment = value).

    Truncated factorization: the treatment's own CPD is dropped and its
    value clamped; every other CPD is left untouched.
    """
    t = net.graph.index(treatment)
    states = np.arange(1 << net.graph.n, dtype=np.int64)
    prod = _factor_product(net, t, states)
    return np.where(((states >> t) & 1) == value, prod, 0.0)


def probability(labels, probs, assignment):
    """Probability that every node in ``assignment`` takes its given value."""
    labels = list(labels)
    n = len(labels)
    # Axis 0 of the reshaped table is the highest bit, node n - 1.
    key = [slice(None)] * n
    for node, value in assignment.items():
        key[n - 1 - labels.index(node)] = value
    return float(probs.reshape((2,) * n)[tuple(key)].ravel().sum())


def marginal(labels, probs, node):
    """p(node = 1)."""
    return probability(labels, probs, {node: 1})


def mutilated(net, treatment, value):
    """The post-intervention network: the treatment loses its parents and is
    clamped to ``value`` with probability 1."""
    t = net.graph.index(treatment)
    graph = Dag(net.graph.labels, [(a, b) for a, b in net.graph.edges if b != t])
    cpds = [
        Cpd(treatment, (), (float(value),)) if v == t else net.cpds[v]
        for v in range(net.graph.n)
    ]
    return Cbn(graph, cpds)


def estimate_ate_stratified(data, graph, treatment, outcome):
    """Plug-in backdoor estimate over strata of the treatment's parents, as
    (estimate, retained weight).

    Computes sum over strata z of (p(o=1 | t=1, z) - p(o=1 | t=0, z)) * p(z).
    Strata missing either treatment arm are dropped and the remaining weights
    renormalized; the retained weight is the kept share of the rows. Raises
    ValueError when no stratum has both arms.
    """
    adjust = sorted(adjustment_set(graph, treatment, outcome))
    m = data.n_rows
    n_strata = 1 << len(adjust)
    # cell index: (stratum, t); count rows and outcome successes per cell
    cell = state_index((data.column(c) for c in [*adjust, treatment]), m)
    n = np.bincount(cell, minlength=2 * n_strata).astype(np.float64)
    n_o = np.bincount(
        cell, weights=data.column(outcome).astype(np.int64), minlength=2 * n_strata
    )
    n0, n1 = n[0::2], n[1::2]
    kept = (n0 > 0) & (n1 > 0)
    if not kept.any():
        raise ValueError(f"no stratum of {adjust or '{}'} contains both treatment arms")
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(kept, n_o[1::2] / n1 - n_o[0::2] / n0, 0.0)
    weights = (n0 + n1)[kept]
    return float((diff[kept] * weights).sum() / weights.sum()), float(weights.sum() / m)


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _orient(directed, undirected, a, b):
    pair = _pair(a, b)
    if pair not in undirected:
        raise OrientationError(f"no undirected edge between {a} and {b} to orient")
    if (b, a) in directed:
        raise OrientationError(f"conflicting orientations for edge {a}-{b}")
    undirected.discard(pair)
    directed.add((a, b))


def _views(n, directed, undirected):
    """Per-node adjacency, undirected neighbours, children and parents."""
    und_nb = [set() for _ in range(n)]
    children = [set() for _ in range(n)]
    parents = [set() for _ in range(n)]
    for a, b in undirected:
        und_nb[a].add(b)
        und_nb[b].add(a)
    for a, b in directed:
        children[a].add(b)
        parents[b].add(a)
    adj = [und_nb[v] | children[v] | parents[v] for v in range(n)]
    return adj, und_nb, children, parents


def _one_meek_step(n, directed, undirected):
    """Apply the first firing orientation rule; True if anything changed."""
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
            rule2 = children[a] & parents[b]
            # Rule 3: a - c, a - d, c -> b, d -> b, c and d nonadjacent  =>  a -> b
            shared = sorted(und_nb[a] & parents[b])
            rule3 = any(
                d not in adj[c] for c, d in itertools.combinations(shared, 2)
            )
            # Rule 4: a - w, w -> x, x -> b, w and b nonadjacent  =>  a -> b
            rule4 = any(
                w != b and b not in adj[w] and children[w] & parents[b]
                for w in und_nb[a]
            )
            if rule2 or rule3 or rule4:
                _orient(directed, undirected, a, b)
                return True
    return False


def meek_closure_reference(n, directed, undirected):
    """Close the pattern under the orientation rules, in place."""
    while _one_meek_step(n, directed, undirected):
        pass


def consistent_extension_reference(n, directed, undirected):
    """A DAG extending the pattern (Dor and Tarsi, 1992), lowest node first;
    OrientationError when none exists."""
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


def unshielded_colliders(directed, skeleton):
    """(x, z, y), x < y, for x -> z <- y with x and y nonadjacent."""
    return {
        (x, z, y)
        for x, z in directed
        for y, w in directed
        if w == z and x < y and (x, y) not in skeleton
    }


def _dag_to_pattern(n, dag_edges):
    skeleton = {_pair(a, b) for a, b in dag_edges}
    directed = {
        (p, z)
        for x, z, y in unshielded_colliders(dag_edges, skeleton)
        for p in (x, y)
    }
    undirected = {_pair(a, b) for a, b in dag_edges if (a, b) not in directed}
    meek_closure_reference(n, directed, undirected)
    return directed, undirected


def _apply_knowledge_orientations(labels, directed, undirected, required, forbidden):
    for a, b in sorted(required):
        edge = f"required edge {labels[a]}->{labels[b]}"
        if (b, a) in directed:
            raise OrientationError(
                f"{edge} is directed the other way in the pattern"
            )
        if (a, b) in directed:
            continue
        if _pair(a, b) in undirected:
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


def rebuild_reference(labels, directed, undirected, required, forbidden):
    """The pattern after a search step: the pattern of a consistent
    extension, then the knowledge orientations, closed under the rules."""
    n = len(labels)
    d2, u2 = _dag_to_pattern(n, consistent_extension_reference(n, directed, undirected))
    _apply_knowledge_orientations(labels, d2, u2, required, forbidden)
    meek_closure_reference(n, d2, u2)
    return d2, u2


def masks(n, directed, undirected=()):
    """The per-node bitmasks (bit v for node v) the package's pattern code
    reads: adjacents, undirected neighbours, children and parents."""
    return tuple(
        [sum(1 << v for v in nodes) for nodes in view]
        for view in _views(n, directed, undirected)
    )


def edge_sets(pattern):
    """The directed and undirected edges of per-node bitmasks."""
    _, und, children, _ = pattern
    n = len(und)
    directed = {(a, b) for a in range(n) for b in range(n) if children[a] >> b & 1}
    undirected = {(a, b) for a in range(n) for b in range(a + 1, n) if und[a] >> b & 1}
    return directed, undirected


def on_sets(rule):
    """A package pattern rule called as its set version is: on (n,
    directed, undirected), updating the sets in place. A pattern the rule
    returns comes back as its directed edges."""

    def run(n, directed, undirected):
        pattern = masks(n, directed, undirected)
        try:
            got = rule(pattern)
        finally:
            d, u = edge_sets(pattern)
            directed.clear()
            directed.update(d)
            undirected.clear()
            undirected.update(u)
        return None if got is None else edge_sets(got)[0]

    return run


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _is_clique(nodes, adj):
    return all(b in adj[a] for a, b in itertools.combinations(nodes, 2))


def _blocks_semi_directed(y, x, blocked, children, und_nb):
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


def _gain(scorer, y, with_x, without_x):
    """Score of y's parent set ``with_x`` minus that of ``without_x``."""
    def local(parents):
        return scorer.local(y, sum(1 << p for p in parents))

    return local(with_x) - local(without_x)


def _insertions(views, scorer, forbidden):
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
                delta = _gain(scorer, y, base | {x}, base)
                if delta > _IMPROVEMENT_TOL:
                    yield delta, (x, y, t)


def _deletions(views, scorer, required, forbidden):
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
                delta = _gain(scorer, y, base, base | {x})
                if delta > _IMPROVEMENT_TOL:
                    yield delta, (x, y, h, is_dir)


def _insert(directed, undirected, move):
    x, y, t = move
    d, u = set(directed), set(undirected)
    d.add((x, y))
    for w in t:
        _orient(d, u, w, y)
    return d, u


def _delete(directed, undirected, move):
    x, y, h, is_dir = move
    d, u = set(directed), set(undirected)
    if is_dir:
        d.discard((x, y))
    else:
        u.discard(_pair(x, y))
    for w in h:
        if _pair(y, w) in u:
            _orient(d, u, y, w)
        if _pair(x, w) in u:
            _orient(d, u, x, w)
    return d, u


def ges_reference(data, knowledge=Knowledge(), penalty=1.0):
    """The pattern ``discovery.ges`` returns, found by full re-enumeration:
    the best-scoring move that rebuilds wins, ties go to enumeration order."""
    labels = data.columns
    required, forbidden = _knowledge_edges(knowledge, labels)
    n = len(labels)
    scorer = _Scorer(data, penalty)
    directed, undirected = set(required), set()
    if required:
        directed, undirected = rebuild_reference(
            labels, directed, undirected, required, forbidden
        )
    phases = (
        (lambda views: _insertions(views, scorer, forbidden), _insert),
        (lambda views: _deletions(views, scorer, required, forbidden), _delete),
    )
    for moves, apply in phases:
        while True:
            ranked = sorted(
                moves(_views(n, directed, undirected)), key=lambda mv: -mv[0]
            )
            for _, move in ranked:
                try:
                    directed, undirected = rebuild_reference(
                        labels, *apply(directed, undirected, move), required, forbidden
                    )
                except OrientationError:
                    continue
                break
            else:
                break
    return Cpdag(labels, directed, undirected)
