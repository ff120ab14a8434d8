"""Structure discovery: what data alone can and cannot tell you.

Greedy equivalence search recovers causal structure from observational
data only up to a Markov equivalence class (a CPDAG): some edges stay
undirected because the data genuinely cannot orient them. Domain
knowledge breaks those ties -- and this demo shows both halves.

Run me:  python3 demos/03_discovery_and_knowledge.py
"""

import numpy as np

from causalprobe import (
    Cbn,
    Cpd,
    Dag,
    Knowledge,
    dag_to_cpdag,
    ges,
    orient_to_dag,
    sample,
    shd,
    to_text,
)

print(__doc__)

rng = np.random.default_rng(7)

print("=" * 72)
print("A chain and a collider: same skeleton, different evidence")
print("=" * 72)
print()

chain = Cbn(
    Dag(["a", "b", "c"], [(0, 1), (1, 2)]),
    [Cpd("a", [], [0.5]), Cpd("b", ["a"], [0.1, 0.9]), Cpd("c", ["b"], [0.1, 0.9])],
)
collider = Cbn(
    Dag(["a", "b", "c"], [(0, 2), (1, 2)]),
    [
        Cpd("a", [], [0.5]),
        Cpd("b", [], [0.5]),
        Cpd("c", ["a", "b"], [0.05, 0.5, 0.5, 0.95]),
    ],
)

for name, net in (("chain a->b->c", chain), ("collider a->c<-b", collider)):
    pattern = ges(sample(net, 2000, rng))
    directed = sorted(
        f"{pattern.labels[i]}->{pattern.labels[j]}" for i, j in pattern.directed
    )
    undirected = sorted(
        f"{pattern.labels[i]}--{pattern.labels[j]}" for i, j in pattern.undirected
    )
    print(f"  {name}:")
    print(f"    directed edges:   {directed or '(none)'}")
    print(f"    undirected edges: {undirected or '(none)'}")
print()
print("The collider is identifiable from data (it leaves a v-structure")
print("fingerprint: a and b are independent until you condition on c).")
print("The chain is not: a->b->c, a<-b<-c and a<-b->c encode the same")
print("independencies, so both edges stay undirected. That matches the")
print("true chain's equivalence class:")
print()
cls = dag_to_cpdag(chain.graph)
print(f"  dag_to_cpdag(chain) undirected: {sorted(cls.undirected)}")
print()

print("=" * 72)
print("Knowledge breaks the tie")
print("=" * 72)
print()

know = Knowledge(required=[("a", "b")], forbidden=[("c", "b")])
data = sample(chain, 2000, rng)
# The search applies the knowledge and closes the orientation rules, so
# the pattern already has a -> b and b -> c directed; orientation reads
# only the pattern.
pattern = ges(data, know)
dag = orient_to_dag(pattern)
print("With 'require a -> b' and 'forbid c -> b', discovery plus")
print("orientation commits to a single DAG:")
print()
print("  " + "\n  ".join(to_text(dag).splitlines()))
print()
print(f"  distance to the true chain: shd = {shd(dag, chain.graph)}")
print()

print("=" * 72)
print("SHD: how structure errors are counted")
print("=" * 72)
print()
true = Dag(["a", "b", "c"], [(0, 1), (1, 2)])
for desc, edges in (
    ("the true graph", [(0, 1), (1, 2)]),
    ("one edge reversed", [(1, 0), (1, 2)]),
    ("one edge missing", [(0, 1)]),
    ("one edge added", [(0, 1), (1, 2), (0, 2)]),
):
    print(f"  vs {desc:20} shd = {shd(true, Dag(['a', 'b', 'c'], edges))}")
print()
print("Each insertion, deletion, or reversal costs one. The simulation")
print("studies (next demo) use SHD to ask whether runs that pass their")
print("probes also got the structure right.")
