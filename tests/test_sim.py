import dataclasses
import json
import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from causalprobe import sim
from causalprobe.bayesnet import Cbn, Cpd
from causalprobe.errors import DataError, DegenerateNetworkError, PipelineError
from causalprobe.graph import Dag, from_text
from causalprobe.sim import (
    AGG_CSV_COLUMNS,
    AggRow,
    ProbeDetail,
    RUNS_CSV_COLUMNS,
    RunRecord,
    SimParams,
    aggregate,
    derive_seed,
    filter_connected,
    filter_outliers,
    read_agg_csv,
    read_runs_csv,
    read_runs_jsonl,
    run_study,
    select_probes,
    select_target,
    simulate_run,
    spearman,
    splitmix64,
    trend_stat,
    write_agg_csv,
    write_runs_csv,
    write_runs_jsonl,
)

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def make_record(
    run_index=0,
    hit_rate=1.0,
    abs_err=0.1,
    rel_err=0.2,
    shd=1,
    n_probes=24,
    connected=True,
    failed=False,
    **overrides,
):
    base = dict(
        run_index=run_index,
        run_seed=run_index + 1,
        n=7,
        p_edge=0.1,
        m=1000,
        p_hint=0.3,
        p_probe=0.5,
        eps_probe=0.1,
        target_treatment="x0",
        target_outcome="x1",
        true_ate=0.5,
        est_ate=0.5 + abs_err,
        abs_err=abs_err,
        rel_err=rel_err,
        shd=shd,
        hit_rate=hit_rate,
        n_probes=n_probes,
        connected=connected,
        failed=failed,
    )
    if failed:
        base.update(
            est_ate=math.nan,
            abs_err=math.nan,
            rel_err=math.nan,
            hit_rate=math.nan,
            true_ate=math.nan,
            target_treatment="",
            target_outcome="",
            n_probes=0,
            shd=0,
        )
    base.update(overrides)
    return RunRecord(**base)


class TestSeedMixing:
    def test_splitmix64_published_stream(self):
        # First five outputs from state 1234567, per the reference
        # implementation's test vector.
        want = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]
        state = 1234567
        got = []
        for _ in range(5):
            got.append(splitmix64(state))
            state = (state + GOLDEN) & MASK
        assert got == want

    def test_splitmix64_range(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = int(rng.integers(0, 1 << 63))
            assert 0 <= splitmix64(x) <= MASK

    def test_derive_seed_varies_per_run_and_attempt(self):
        seeds = {derive_seed(42, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(42, 3, 0) != derive_seed(42, 3, 1)

    def test_derive_seed_stable(self):
        assert derive_seed(42, 0) == derive_seed(42, 0, 0)
        assert derive_seed(0, 0) == splitmix64(
            splitmix64(splitmix64(0)) ^ 0
        )


class TestSimParams:
    def test_defaults_match_protocol(self):
        p = SimParams()
        assert (p.n, p.p_edge, p.m) == (7, 0.1, 1000)
        assert (p.p_hint, p.p_probe, p.eps_probe) == (0.3, 0.5, 0.1)
        assert p.penalty == 1.0

    def test_zero_p_probe_rejected(self):
        with pytest.raises(ValueError):
            SimParams(p_probe=0.0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            SimParams(n=1)
        with pytest.raises(ValueError):
            SimParams(m=0)
        with pytest.raises(ValueError):
            SimParams(p_edge=1.5)
        with pytest.raises(ValueError):
            SimParams(eps_probe=-0.1)
        with pytest.raises(ValueError):
            SimParams(n_runs=-1)
        for penalty in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="penalty"):
                SimParams(penalty=penalty)

    def test_non_finite_eps_probe_rejected(self):
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="eps_probe"):
                SimParams(eps_probe=eps)


class TestSelectTarget:
    def test_single_edge(self):
        net = Cbn(
            Dag(["a", "b"], [(0, 1)]),
            [Cpd("a", [], [0.5]), Cpd("b", ["a"], [0.1, 0.9])],
        )
        for seed in range(10):
            assert select_target(net, np.random.default_rng(seed)) == (
                "a",
                "b",
            )

    def test_empty_graph_degenerate(self):
        net = Cbn(
            Dag(["a", "b"], []),
            [Cpd("a", [], [0.5]), Cpd("b", [], [0.5])],
        )
        with pytest.raises(DegenerateNetworkError):
            select_target(net, np.random.default_rng(0))

    def test_zero_effect_edge_degenerate(self):
        # Path exists but the effect is exactly zero, so the pair is out.
        net = Cbn(
            Dag(["a", "b"], [(0, 1)]),
            [Cpd("a", [], [0.5]), Cpd("b", ["a"], [0.5, 0.5])],
        )
        with pytest.raises(DegenerateNetworkError):
            select_target(net, np.random.default_rng(0))

    def test_chain_uniform(self):
        net = Cbn(
            Dag(["a", "b", "c"], [(0, 1), (1, 2)]),
            [
                Cpd("a", [], [0.5]),
                Cpd("b", ["a"], [0.1, 0.9]),
                Cpd("c", ["b"], [0.1, 0.9]),
            ],
        )
        rng = np.random.default_rng(99)
        tally = {("a", "b"): 0, ("a", "c"): 0, ("b", "c"): 0}
        draws = 1000
        for _ in range(draws):
            tally[select_target(net, rng)] += 1
        # Multinomial p=1/3: 3 sigma = 3*sqrt(1000*(1/3)*(2/3)) ~ 44.7.
        for count in tally.values():
            assert abs(count - draws / 3) <= 3 * math.sqrt(
                draws * (1 / 3) * (2 / 3)
            )


class TestSelectProbes:
    def test_count_at_protocol_defaults(self):
        g = Dag([f"x{i}" for i in range(7)], [])
        probes = select_probes(g, ("x0", "x1"), 0.5, np.random.default_rng(0))
        assert len(probes) == 24

    def test_target_and_self_pairs_excluded(self):
        g = Dag([f"x{i}" for i in range(7)], [])
        rng = np.random.default_rng(4)
        for _ in range(50):
            probes = select_probes(g, ("x2", "x5"), 0.5, rng)
            assert ("x2", "x5") not in probes
            assert all(a != b for a, b in probes)
            assert len(set(probes)) == len(probes)

    def test_cap_when_candidates_scarce(self):
        g = Dag(["a", "b"], [])
        probes = select_probes(g, ("a", "b"), 1.0, np.random.default_rng(0))
        assert probes == [("b", "a")]

    def test_deterministic(self):
        g = Dag([f"x{i}" for i in range(5)], [])
        a = select_probes(g, ("x0", "x1"), 0.5, np.random.default_rng(3))
        b = select_probes(g, ("x0", "x1"), 0.5, np.random.default_rng(3))
        assert a == b


class TestSimulateRun:
    def test_deterministic(self):
        p = SimParams(n_runs=1, master_seed=7)
        assert simulate_run(p, 0) == simulate_run(p, 0)

    def test_record_internal_consistency(self):
        p = SimParams(master_seed=42)
        r = simulate_run(p, 1)
        assert not r.failed
        assert r.n_probes == 24 == len(r.probes)
        assert r.abs_err == abs(r.est_ate - r.true_ate)
        assert r.rel_err == abs((r.est_ate - r.true_ate) / r.true_ate)
        recomputed = (
            sum(
                abs(d.estimate - d.truth) <= p.eps_probe for d in r.probes
            )
            / r.n_probes
        )
        assert r.hit_rate == recomputed
        assert r.run_seed == derive_seed(42, 1, 0) or r.run_seed == r.run_seed

    def test_full_hints_keep_all_true_edges(self):
        # With every true edge required, SHD counts only additions.
        p = SimParams(p_hint=1.0, master_seed=11, n_runs=20)
        checked = 0
        for i in range(20):
            r = simulate_run(p, i)
            if r.failed:
                continue
            true_g = from_text(r.true_graph)
            disc_g = from_text(r.discovered_graph)
            true_edges = {
                (true_g.labels[a], true_g.labels[b]) for a, b in true_g.edges
            }
            disc_edges = {
                (disc_g.labels[a], disc_g.labels[b]) for a, b in disc_g.edges
            }
            assert true_edges <= disc_edges
            checked += 1
        assert checked >= 15

    def test_impossible_network_marks_run_failed(self):
        p = SimParams(n=2, p_edge=0.0, m=10, n_runs=1, master_seed=1)
        r = simulate_run(p, 0)
        assert r.failed
        assert "degenerate" in r.error
        assert math.isnan(r.est_ate)

    def test_failed_records_pin_every_field(self, monkeypatch, tmp_path):
        # One case per failure exit of simulate_run: the generator gives up,
        # every attempt is degenerate, the pipeline raises.
        def pipeline_fails(data, cfg):
            raise PipelineError("estimation", ValueError("singular design"))

        gen = simulate_run(SimParams(n=6, p_edge=0.9), 0)
        degenerate = simulate_run(SimParams(n=2, p_edge=0.0), 0)
        monkeypatch.setattr(sim, "run_end_to_end", pipeline_fails)
        pipeline = simulate_run(SimParams(n=4, p_edge=0.5, m=50, master_seed=3), 2)

        nan = math.nan
        common = dict(
            p_hint=0.3, p_probe=0.5, eps_probe=0.1, est_ate=nan, abs_err=nan,
            rel_err=nan, shd=0, hit_rate=nan, n_probes=0, failed=True,
            discovered_graph="", probes=(),
        )
        graph4 = "nodes: x0, x1, x2, x3\nx0 -> x3\nx1 -> x0\nx2 -> x0\nx2 -> x1\nx2 -> x3\n"
        cases = [
            (gen, dict(
                run_index=0, run_seed=2558736989570252433, n=6, p_edge=0.9,
                m=1000, target_treatment="", target_outcome="", true_ate=nan,
                connected=False, true_graph="",
                error="no acyclic draw in 10000 attempts (n=6, p_edge=0.9)",
            )),
            (degenerate, dict(
                run_index=0, run_seed=14883332845613455354, n=2, p_edge=0.0,
                m=1000, target_treatment="", target_outcome="", true_ate=nan,
                connected=False, true_graph="nodes: x0, x1\n",
                error="degenerate network in 100 attempts",
            )),
            (pipeline, dict(
                run_index=2, run_seed=940761850445385982, n=4, p_edge=0.5,
                m=50, target_treatment="x2", target_outcome="x0",
                true_ate=-0.16026759010575142, connected=True,
                true_graph=graph4,
                error="stage 'estimation' failed: singular design",
            )),
        ]
        for rec, want in cases:
            want = {**common, **want}
            assert set(want) == {f.name for f in dataclasses.fields(RunRecord)}
            for name, value in want.items():
                got = getattr(rec, name)
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(got), name
                else:
                    assert got == value and type(got) is type(value), name

        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [rec for rec, _ in cases])
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines == [
            # generation failure
            '{"abs_err":null,"connected":false,"discovered_graph":"",'
            '"eps_probe":0.1,'
            '"error":"no acyclic draw in 10000 attempts (n=6, p_edge=0.9)",'
            '"est_ate":null,"failed":true,"hit_rate":null,"m":1000,"n":6,'
            '"n_probes":0,"p_edge":0.9,"p_hint":0.3,"p_probe":0.5,'
            '"probes":[],"rel_err":null,"run_index":0,'
            '"run_seed":2558736989570252433,"shd":0,"target_outcome":"",'
            '"target_treatment":"","true_ate":null,"true_graph":""}',
            # degenerate network
            '{"abs_err":null,"connected":false,"discovered_graph":"",'
            '"eps_probe":0.1,"error":"degenerate network in 100 attempts",'
            '"est_ate":null,"failed":true,"hit_rate":null,"m":1000,"n":2,'
            '"n_probes":0,"p_edge":0.0,"p_hint":0.3,"p_probe":0.5,'
            '"probes":[],"rel_err":null,"run_index":0,'
            '"run_seed":14883332845613455354,"shd":0,"target_outcome":"",'
            '"target_treatment":"","true_ate":null,"true_graph":"nodes: x0,'
            ' x1\\n"}',
            # pipeline failure
            '{"abs_err":null,"connected":true,"discovered_graph":"",'
            '"eps_probe":0.1,'
            '"error":"stage \'estimation\' failed: singular design",'
            '"est_ate":null,"failed":true,"hit_rate":null,"m":50,"n":4,'
            '"n_probes":0,"p_edge":0.5,"p_hint":0.3,"p_probe":0.5,'
            '"probes":[],"rel_err":null,"run_index":2,'
            '"run_seed":940761850445385982,"shd":0,"target_outcome":"x0",'
            '"target_treatment":"x2","true_ate":-0.16026759010575142,'
            '"true_graph":"nodes: x0, x1, x2,'
            ' x3\\nx0 -> x3\\nx1 -> x0\\nx2 -> x0\\nx2 -> x1\\nx2 -> x3\\n"}',
        ]

    def test_probe_truths_are_exact_oracle_values(self):
        p = SimParams(master_seed=42)
        r = simulate_run(p, 0)
        # A probe pair without a directed path has a truth of exactly 0.0,
        # not the rounding residue of two joint-table marginals.
        true_g = from_text(r.true_graph)
        pathless = [
            d.truth
            for d in r.probes
            if not true_g.has_directed_path(
                true_g.index(d.treatment), true_g.index(d.outcome)
            )
        ]
        assert pathless and all(t == 0.0 for t in pathless)

    def test_runs_share_the_detail_of_a_zero_probe(self):
        # A study holds every record until it writes them: a probe whose
        # truth and estimate are both exactly 0.0 is one object per pair.
        p = SimParams(n=16, p_edge=0.12, m=200, master_seed=0)
        first = {(d.treatment, d.outcome): d for d in simulate_run(p, 0).probes}
        shared = 0
        for d in simulate_run(p, 1).probes:
            other = first.get((d.treatment, d.outcome))
            if other is None or other.truth != 0.0 or other.estimate != 0.0:
                continue
            if d.truth == d.estimate == 0.0:
                assert d is other and d.passed
                shared += 1
        assert shared > 0


def test_n25_run_fits_its_time_and_memory_budget():
    # Seed 0, run 0 draws an acyclic graph on its first try. The budgets
    # hold with tracing on; a dense oracle would need 2**25-cell tables
    # (256 MB each) and tens of seconds per treatment here.
    params = SimParams(n=25, p_edge=0.1, m=2000, master_seed=0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rec = simulate_run(params, 0)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rec.failed, rec.error
    assert rec.n == 25 and rec.n_probes > 0
    assert seconds < 10.0
    assert peak < 16 * 2**20


class TestRunStudy:
    def test_zero_runs(self):
        assert run_study(SimParams(n_runs=0), threads=1) == []

    def test_matches_individual_runs(self):
        p = SimParams(n_runs=2, master_seed=5)
        assert run_study(p, threads=1) == [
            simulate_run(p, 0),
            simulate_run(p, 1),
        ]

    def test_thread_count_does_not_change_output(self):
        p = SimParams(n_runs=8, master_seed=3)
        assert run_study(p, threads=1) == run_study(p, threads=4)

    def test_records_ordered_by_run_index(self):
        recs = run_study(SimParams(n_runs=6, master_seed=2), threads=3)
        assert [r.run_index for r in recs] == list(range(6))

    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            run_study(SimParams(n_runs=1), threads=0)


class TestAggregate:
    def test_single_record(self):
        rows = aggregate([make_record(abs_err=0.3, rel_err=0.6, shd=2)])
        assert rows == [
            AggRow(
                hit_rate=1.0,
                count=1,
                mean_abs_err=0.3,
                mean_rel_err=0.6,
                mean_shd=2.0,
            )
        ]

    def test_mean_within_group(self):
        rows = aggregate(
            [
                make_record(run_index=0, abs_err=0.1),
                make_record(run_index=1, abs_err=0.3),
            ]
        )
        assert len(rows) == 1
        assert rows[0].count == 2
        assert rows[0].mean_abs_err == pytest.approx(0.2, abs=1e-15)

    def test_exact_grouping(self):
        rows = aggregate(
            [
                make_record(run_index=0, hit_rate=23 / 24),
                make_record(run_index=1, hit_rate=24 / 24),
            ]
        )
        assert [r.hit_rate for r in rows] == [23 / 24, 1.0]
        assert [r.count for r in rows] == [1, 1]

    def test_mixed_probe_counts_rejected(self):
        with pytest.raises(ValueError):
            aggregate(
                [
                    make_record(run_index=0, n_probes=24),
                    make_record(run_index=1, n_probes=12),
                ]
            )

    def test_failed_runs_excluded(self):
        rows = aggregate(
            [make_record(run_index=0), make_record(run_index=1, failed=True)]
        )
        assert rows[0].count == 1

    def test_all_failed_rejected(self):
        with pytest.raises(ValueError):
            aggregate([make_record(failed=True)])


class TestFilters:
    def test_connected_identity_and_empty(self):
        recs = [make_record(run_index=i) for i in range(3)]
        assert filter_connected(recs) == recs
        off = [make_record(run_index=i, connected=False) for i in range(3)]
        assert filter_connected(off) == []

    def test_connected_mixed(self):
        recs = [
            make_record(run_index=0, connected=True),
            make_record(run_index=1, connected=False),
            make_record(run_index=2, connected=True),
        ]
        assert [r.run_index for r in filter_connected(recs)] == [0, 2]

    def test_outlier_rule(self):
        kept = make_record(run_index=0, hit_rate=1.0, abs_err=0.25)
        low_err = make_record(run_index=1, hit_rate=1.0, abs_err=0.19)
        low_hit = make_record(run_index=2, hit_rate=0.95, abs_err=0.5)
        assert filter_outliers([kept, low_err, low_hit]) == [kept]


class TestSpearman:
    def test_anti_monotone(self):
        assert spearman([1, 2, 3, 4], [9, 7, 4, 1]) == pytest.approx(-1.0)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])

    def test_hand_example_with_ties(self):
        # x ranks [1, 2.5, 2.5, 4], y ranks [3, 2, 4, 1]:
        # cov -0.75, var_x 1.125, var_y 1.25.
        got = spearman([1, 2, 2, 3], [4, 3, 5, 1])
        assert got == pytest.approx(-0.75 / math.sqrt(1.125 * 1.25), abs=1e-12)

    def test_matches_reference_implementation(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.normal(size=n)
            if len(set(x)) < 2:
                continue
            want = stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    def test_trend_stat_on_study(self):
        recs = run_study(SimParams(n_runs=60, master_seed=42), threads=None)
        ts = trend_stat(recs)
        assert -1.0 <= ts.rho_abs_err < 0.0
        assert -1.0 <= ts.rho_shd < 0.0

    def test_trend_stat_constant_hit_rate(self):
        recs = [make_record(run_index=i, hit_rate=1.0) for i in range(4)]
        with pytest.raises(ValueError):
            trend_stat(recs)


class TestShdZeroRuns:
    def test_perfect_recovery_means_small_error(self):
        # Correct graph plus a consistent estimator keeps the target error
        # near its sampling noise at m=1000; the heavy tail belongs to the
        # estimator's stratum weighting, so the check is distributional.
        recs = run_study(SimParams(n_runs=120, master_seed=42), threads=None)
        errs = sorted(
            r.abs_err for r in recs if not r.failed and r.shd == 0
        )
        assert len(errs) >= 10
        assert errs[len(errs) // 2] <= 0.05
        assert errs[int(0.9 * (len(errs) - 1))] <= 0.1


class TestCsvIo:
    def test_header_exact(self, tmp_path):
        path = str(tmp_path / "runs.csv")
        write_runs_csv(path, [])
        with open(path, "rb") as fh:
            content = fh.read()
        assert content == (
            b"run_index,run_seed,n,p_edge,m,p_hint,p_probe,eps_probe,"
            b"target_treatment,target_outcome,true_ate,est_ate,abs_err,"
            b"rel_err,shd,hit_rate,n_probes,connected,failed\n"
        )

    def test_round_trip(self, tmp_path):
        recs = run_study(SimParams(n_runs=5, master_seed=9), threads=1)
        path = str(tmp_path / "runs.csv")
        write_runs_csv(path, recs)
        back = read_runs_csv(path)
        for a, b in zip(recs, back):
            for c in RUNS_CSV_COLUMNS:
                assert getattr(a, c) == getattr(b, c)

    def test_rewrite_is_byte_identical(self, tmp_path):
        recs = run_study(SimParams(n_runs=5, master_seed=9), threads=1)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_runs_csv(p1, recs)
        write_runs_csv(p2, recs)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_no_temp_file_left(self, tmp_path):
        path = str(tmp_path / "runs.csv")
        write_runs_csv(path, [make_record()])
        assert os.listdir(tmp_path) == ["runs.csv"]

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_runs_csv(str(tmp_path / "nope" / "runs.csv"), [])

    def test_wrong_header_rejected(self, tmp_path):
        path = str(tmp_path / "other.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n")
        with pytest.raises(DataError):
            read_runs_csv(path)

    def test_invalid_record_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "runs.csv")
        write_runs_csv(path, [make_record(run_index=0), make_record(run_index=1)])
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = lines[2].split(",")
        cells[RUNS_CSV_COLUMNS.index("hit_rate")] = "2.0"
        lines[2] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(path)}:3: .*hit_rate"):
            read_runs_csv(path)

    def test_oversized_cell_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "runs.csv")
        write_runs_csv(path, [make_record()])
        with open(path, "a") as fh:
            fh.write("0," + "9" * 131_073 + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(path)}:3: "):
            read_runs_csv(path)

    def test_agg_round_trip(self, tmp_path):
        rows = aggregate(
            [
                make_record(run_index=0, hit_rate=0.5, abs_err=0.1),
                make_record(run_index=1, hit_rate=1.0, abs_err=0.2),
            ]
        )
        path = str(tmp_path / "agg.csv")
        write_agg_csv(path, rows)
        assert read_agg_csv(path) == rows
        with open(path) as fh:
            assert fh.readline().rstrip("\n") == ",".join(AGG_CSV_COLUMNS)


class TestJsonlIo:
    def test_full_round_trip(self, tmp_path):
        recs = run_study(SimParams(n_runs=4, master_seed=6), threads=1)
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, recs)
        assert read_runs_jsonl(path) == recs

    def test_failed_record_round_trip(self, tmp_path):
        rec = make_record(failed=True, error="boom")
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [rec])
        back = read_runs_jsonl(path)[0]
        assert back.failed and back.error == "boom"
        assert math.isnan(back.est_ate)

    def test_probe_detail_survives(self, tmp_path):
        rec = make_record(
            probes=(
                ProbeDetail("x0", "x2", 0.3, 0.35, True),
                ProbeDetail("x1", "x2", 0.0, 0.2, False),
            ),
            n_probes=2,
            hit_rate=0.5,
        )
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [rec])
        assert read_runs_jsonl(path)[0].probes == rec.probes

    def test_probes_are_rows(self, tmp_path):
        rec = make_record(
            probes=(
                ProbeDetail("x0", "x2", 0.3, 0.35, True),
                ProbeDetail("x1", "x2", 0.0, math.nan, False),
            ),
            n_probes=2,
            hit_rate=0.5,
        )
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [rec])
        with open(path, encoding="utf-8") as fh:
            line = fh.read()
        assert '"probes":[["x0","x2",0.3,0.35,true],["x1","x2",0.0,null,false]]' in line
        assert ", " not in line and '": ' not in line
        back = read_runs_jsonl(path)[0]
        assert back.probes[0] == rec.probes[0]
        assert math.isnan(back.probes[1].estimate)

    def test_probe_object_rejected(self, tmp_path):
        # The keyed-object probe form of earlier versions no longer reads.
        rec = make_record(
            probes=(ProbeDetail("x0", "x2", 0.3, 0.35, True),), n_probes=1
        )
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [rec, rec])
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        doc = json.loads(lines[1])
        keys = ("treatment", "outcome", "truth", "estimate", "passed")
        doc["probes"] = [dict(zip(keys, p)) for p in doc["probes"]]
        lines[1] = json.dumps(doc, sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(
            DataError, match=rf"^{re.escape(path)}:2: bad record: a probe must be a row"
        ):
            read_runs_jsonl(path)

    def test_probe_row_of_the_wrong_length_rejected(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [make_record()])
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        doc["probes"] = [["x0", "x1", 0.1, 0.2]]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(DataError, match=r":1: bad record"):
            read_runs_jsonl(path)

    def test_failed_runs_write_strict_json(self, tmp_path):
        recs = run_study(SimParams(n=2, p_edge=0.0, n_runs=2), threads=1)
        assert all(r.failed for r in recs)
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, recs)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with open(path, encoding="utf-8") as fh:
            docs = [json.loads(line, parse_constant=reject) for line in fh]
        assert len(docs) == 2
        for d in docs:
            for key in ("true_ate", "est_ate", "abs_err", "rel_err", "hit_rate"):
                assert d[key] is None
            assert d["error"] == "degenerate network in 100 attempts"

    def test_null_reads_back_as_nan(self, tmp_path):
        rec = make_record(
            failed=True,
            error=None,
            probes=(ProbeDetail("x0", "x1", math.nan, math.nan, False),),
        )
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [rec])
        back = read_runs_jsonl(path)[0]
        for key in ("true_ate", "est_ate", "abs_err", "rel_err", "hit_rate"):
            assert math.isnan(getattr(back, key))
        assert back.error is None
        assert math.isnan(back.probes[0].truth)
        assert math.isnan(back.probes[0].estimate)
        again = str(tmp_path / "again.jsonl")
        write_runs_jsonl(again, [back])
        with open(path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

    def test_invalid_record_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        write_runs_jsonl(path, [make_record(run_index=0), make_record(run_index=1)])
        with open(path) as fh:
            lines = fh.read().splitlines()
        doc = json.loads(lines[1])
        doc["hit_rate"] = 2.0
        lines[1] = json.dumps(doc)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(path)}:2: .*hit_rate"):
            read_runs_jsonl(path)

    def test_bad_line_rejected(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        for line in ('{"nope": 1}', "[1, 2]", '"text"'):
            with open(path, "w") as fh:
                fh.write(line + "\n")
            with pytest.raises(DataError):
                read_runs_jsonl(path)


class TestRecordValidation:
    def test_bad_hit_rate_rejected(self):
        with pytest.raises(ValueError):
            make_record(hit_rate=1.5)

    def test_nonfinite_rel_err_rejected(self):
        with pytest.raises(ValueError):
            make_record(rel_err=math.inf)

    def test_negative_shd_rejected(self):
        with pytest.raises(ValueError):
            make_record(shd=-1)
