"""The immutable value types survive pickle, copy and deepcopy: the copy
gets the original's stored fields back (the constructor does not run
again), equals the original and stays immutable in every slot, derived
ones included."""

import copy
import pickle

import pytest

from causalprobe import (
    BinaryDataset,
    Cbn,
    Cpd,
    Cpdag,
    Dag,
    Knowledge,
    RawDataset,
    dag_to_cpdag,
    sprinkler_data,
    sprinkler_net,
    true_ate,
)

VALUES = {
    Dag: lambda: sprinkler_net().graph,
    Cpd: lambda: sprinkler_net().cpd("wet"),
    Cbn: sprinkler_net,
    Cpdag: lambda: dag_to_cpdag(sprinkler_net().graph),
    Knowledge: lambda: Knowledge([("a", "b")], [("b", "c")]),
    RawDataset: lambda: RawDataset(["a", "b"], [["0", "1"], ["yes", "no"]]),
    BinaryDataset: lambda: sprinkler_data(m=50, seed=1),
}

COPIES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("kind", list(VALUES), ids=lambda t: t.__name__)
def test_copy_equals_the_original_and_stays_immutable(kind, how):
    original = VALUES[kind]()
    got = COPIES[how](original)
    assert type(got) is kind
    assert got == original
    for name in type(got).__slots__:
        with pytest.raises(AttributeError):
            setattr(got, name, None)


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copied_network_gives_the_same_effects(how):
    net = sprinkler_net()
    want = true_ate(net, "sprinkler", "slippery")
    got = COPIES[how](net)
    assert got.graph.topological_order() == net.graph.topological_order()
    assert true_ate(got, "sprinkler", "slippery") == want
    assert true_ate(got, "slippery", "sprinkler") == 0.0
