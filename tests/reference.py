"""Dense reference computations that tests compare the package against.

A joint distribution here is a plain float64 array over all 2**n states of
a network, with node ``i`` at bit ``i``: state ``s`` gives node ``i`` the
value ``(s >> i) & 1``. Every CPD is multiplied out over every state, so
these suit small networks only; the package itself computes effects by
variable elimination (``bayesnet.true_ate``).
"""

import numpy as np

from causalprobe.bayesnet import Cbn, Cpd
from causalprobe.dataset import state_index
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
