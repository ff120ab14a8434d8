"""Acceptance criteria for the package, one test per criterion.

Each test computes a verdict, emits one `criterion N: PASS/FAIL` line
(shown in the terminal summary), and then asserts. The simulation-study
criteria share one 300-run study at a fixed master seed, so every number
here is reproducible.
"""

import math
import time

import numpy as np
import pytest

from causalprobe.bayesnet import Cbn, Cpd, random_cpds, sample
from causalprobe.cli import main
from causalprobe.discovery import Knowledge, ges, orient_to_dag, pick_hint_edges
from causalprobe.estimation import METHOD_TRIVIAL_ZERO
from causalprobe.graph import Dag, random_dag, shd
from causalprobe.sim import (
    SimParams,
    aggregate,
    derive_seed,
    filter_connected,
    filter_outliers,
    read_runs_jsonl,
    run_study,
    spearman,
    write_runs_jsonl,
)
from causalprobe.sprinkler import oracle_target_ate, run_sprinkler_demo, sprinkler_net

from conftest import record_criterion
from reference import intervened, marginal, mutilated


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_criterion(line)
    print(line)


@pytest.fixture(scope="module")
def study():
    params = SimParams(n_runs=300, master_seed=42)
    t0 = time.perf_counter()
    records = run_study(params)
    return records, time.perf_counter() - t0


def test_criterion_1_exact_oracle_consistency():
    t0 = time.perf_counter()
    ok_nets = 0
    for i in range(50):
        rng = np.random.default_rng(derive_seed(1001, i))
        g = random_dag(7, 0.1, rng)
        net = random_cpds(g, rng)
        t, o = (g.labels[j] for j in rng.choice(7, size=2, replace=False))
        good = True
        for v in (0, 1):
            exact = marginal(g.labels, intervened(net, t, v), o)
            data = sample(mutilated(net, t, v), 200_000, rng)
            mc = float(data.values[:, data.column_index(o)].mean())
            se = math.sqrt(exact * (1.0 - exact) / 200_000)
            if se == 0.0:
                good = good and mc == exact
            else:
                good = good and abs(mc - exact) <= 3.0 * se
        ok_nets += good
    elapsed = time.perf_counter() - t0
    ok = ok_nets >= 48 and elapsed < 60.0
    verdict(1, ok, f"{ok_nets}/50 networks within 3 SE, {elapsed:.1f}s")
    assert ok_nets >= 48
    assert elapsed < 60.0


def test_criterion_2_sprinkler_correct_knowledge():
    t0 = time.perf_counter()
    result = run_sprinkler_demo()
    elapsed = time.perf_counter() - t0
    distance = shd(result.discovered, sprinkler_net().graph)
    probes_pass = all(p.passed for p in result.report.probes)
    target_err = abs(result.report.target.value - oracle_target_ate())
    ok = distance == 0 and probes_pass and target_err <= 0.1 and elapsed < 10.0
    verdict(
        2,
        ok,
        f"shd={distance}, probes pass={probes_pass}, "
        f"target err={target_err:.3f}, {elapsed:.1f}s",
    )
    assert distance == 0
    assert probes_pass
    assert target_err <= 0.1
    assert elapsed < 10.0


def test_criterion_3_sprinkler_flipped_knowledge():
    t0 = time.perf_counter()
    result = run_sprinkler_demo(flip=True)
    elapsed = time.perf_counter() - t0
    target = result.report.target
    by_treatment = {p.spec.treatment: p for p in result.report.probes}
    spr_wet_fails = not by_treatment["sprinkler"].passed
    ok = (
        target.value == 0.0
        and target.method == METHOD_TRIVIAL_ZERO
        and spr_wet_fails
        and result.report.hit_rate == 0.5
        and elapsed < 10.0
    )
    verdict(
        3,
        ok,
        f"target={target.value!r} ({target.method}), "
        f"sprinkler->wet fails={spr_wet_fails}, "
        f"hit rate={result.report.hit_rate}, {elapsed:.1f}s",
    )
    assert target.value == 0.0
    assert target.method == METHOD_TRIVIAL_ZERO
    assert spr_wet_fails
    assert result.report.hit_rate == 0.5
    assert elapsed < 10.0


def test_criterion_4_desk_scale_study(study):
    records, elapsed = study
    completed = [r for r in records if not r.failed]
    frac_high = sum(r.hit_rate >= 0.8 for r in completed) / len(completed)

    groups = [row for row in aggregate(records) if row.count >= 5]
    rates = [row.hit_rate for row in groups]
    rho_abs = spearman(rates, [row.mean_abs_err for row in groups])
    rho_shd = spearman(rates, [row.mean_shd for row in groups])

    before = len(filter_outliers(records))
    after = len(filter_outliers(filter_connected(records)))

    ok = (
        elapsed < 600.0
        and frac_high > 0.6
        and rho_abs < 0.0
        and rho_shd < 0.0
        and after <= before
    )
    verdict(
        4,
        ok,
        f"{elapsed:.1f}s, frac hit>=0.8: {frac_high:.2f}, "
        f"rho abs_err={rho_abs:.2f}, rho shd={rho_shd:.2f}, "
        f"outliers {before}->{after}",
    )
    assert elapsed < 600.0
    assert frac_high > 0.6
    assert len(groups) >= 2
    assert rho_abs < 0.0
    assert rho_shd < 0.0
    assert after <= before


def test_criterion_5_discovery_correctness():
    def chain_net():
        g = Dag(["x0", "x1", "x2"], [(0, 1), (1, 2)])
        return Cbn(
            g,
            [
                Cpd("x0", [], [0.5]),
                Cpd("x1", ["x0"], [0.1, 0.9]),
                Cpd("x2", ["x1"], [0.1, 0.9]),
            ],
        )

    recovered = 0
    for i in range(100):
        rng = np.random.default_rng(derive_seed(3001, i))
        d = sample(chain_net(), 1000, rng)
        p = ges(d)
        recovered += p.undirected == frozenset({(0, 1), (1, 2)}) and (
            p.directed == frozenset()
        )

    respected = 0
    for i in range(200):
        rng = np.random.default_rng(derive_seed(3002, i))
        g = random_dag(6, 0.25, rng)
        net = random_cpds(g, rng)
        data = sample(net, 800, rng)
        required = sorted(pick_hint_edges(g, 0.5, rng).required)
        name = dict(enumerate(g.labels))
        adjacent = {frozenset((name[a], name[b])) for a, b in g.edges}
        forbidden = [(b, a) for a, b in required]
        non_adj = [
            (name[a], name[b])
            for a in range(6)
            for b in range(6)
            if a != b and frozenset((name[a], name[b])) not in adjacent
        ]
        if non_adj:
            picks = rng.choice(len(non_adj), size=min(3, len(non_adj)), replace=False)
            forbidden += [non_adj[j] for j in sorted(picks)]
        know = Knowledge(required=required, forbidden=forbidden)
        dag = orient_to_dag(ges(data, know), know)
        edges = {(name[a], name[b]) for a, b in dag.edges}
        respected += know.required <= edges and not (know.forbidden & edges)

    ok = recovered >= 95 and respected == 200
    verdict(
        5,
        ok,
        f"chain CPDAG {recovered}/100, knowledge constraints {respected}/200",
    )
    assert recovered >= 95
    assert respected == 200


def test_criterion_6_cli_determinism(tmp_path, capsys):
    blobs = {}
    for sub, threads in (("first", "1"), ("second", "1"), ("eight", "8")):
        out = tmp_path / sub
        out.mkdir()
        rc = main(
            [
                "simulate",
                "--seed",
                "42",
                "--runs",
                "50",
                "--threads",
                threads,
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        blobs[sub] = (out / "runs.csv").read_bytes()
    capsys.readouterr()
    same_invocation = blobs["first"] == blobs["second"]
    same_threads = blobs["first"] == blobs["eight"]
    ok = same_invocation and same_threads
    verdict(
        6,
        ok,
        f"repeat invocation identical={same_invocation}, "
        f"threads 1 vs 8 identical={same_threads}",
    )
    assert same_invocation
    assert same_threads


def test_criterion_7_metric_properties(study, tmp_path):
    # Densities stay modest: the generator rejection-samples acyclic draws,
    # which are vanishingly rare for dense adjacency masks at n near 8.
    rng = np.random.default_rng(20240814)
    axiom_failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a = random_dag(n, float(rng.uniform(0.05, 0.25)), rng)
        b = random_dag(n, float(rng.uniform(0.05, 0.25)), rng)
        c = random_dag(n, float(rng.uniform(0.05, 0.25)), rng)
        good = (
            shd(a, a) == 0
            and shd(a, b) == shd(b, a)
            and shd(a, b) >= 0
            and shd(a, c) <= shd(a, b) + shd(b, c)
            and (shd(a, b) > 0 or a.edges == b.edges)
        )
        axiom_failures += not good

    records, _ = study
    path = tmp_path / "runs.jsonl"
    write_runs_jsonl(str(path), records)
    loaded = read_runs_jsonl(str(path))
    completed = [r for r in loaded if not r.failed]
    recomputable = all(
        len(r.probes) == r.n_probes
        and r.hit_rate == sum(d.passed for d in r.probes) / r.n_probes
        for r in completed
    )
    finite = sum(math.isfinite(r.rel_err) for r in completed)

    ok = axiom_failures == 0 and recomputable and finite == len(completed)
    verdict(
        7,
        ok,
        f"shd axiom failures {axiom_failures}/1000, "
        f"hit rate recomputable={recomputable}, "
        f"rel_err finite {finite}/{len(completed)}",
    )
    assert axiom_failures == 0
    assert recomputable
    assert finite == len(completed)
