"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import math
import os

import pytest

from causalprobe import __version__, pipeline
from causalprobe.cli import main, parse_config
from causalprobe.dataset import write_csv
from causalprobe.sim import (
    RUNS_CSV_COLUMNS,
    RunRecord,
    read_agg_csv,
    read_runs_csv,
    write_runs_csv,
    write_runs_jsonl,
)
from causalprobe.sprinkler import sprinkler_data


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


class TestParsing:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--no-such-flag"]) == 2

    def test_help_exits_zero(self, capsys):
        for argv in (
            ["--help"],
            ["simulate", "--help"],
            ["aggregate", "--help"],
            ["plot", "--help"],
            ["demo-sprinkler", "--help"],
            ["analyze", "--help"],
        ):
            assert main(argv) == 0
            assert "usage" in capsys.readouterr().out

    def test_config_grammar(self):
        text = "\n".join(
            [
                "# study shape",
                "n = 5",
                "p_edge=0.25   # inline comment",
                "",
                "  n_runs = 12  ",
            ]
        )
        assert parse_config(text) == {
            "n": "5",
            "p_edge": "0.25",
            "n_runs": "12",
        }

    def test_config_rejects_lines_without_equals(self):
        from causalprobe.errors import DataError

        with pytest.raises(DataError):
            parse_config("n 5")


    def test_each_subcommand_takes_only_the_flags_it_reads(self, tmp_path, capsys):
        runs = str(tmp_path / "runs.csv")
        for argv in (
            ["analyze", "d.csv", "--probes", "p.txt", "--target", "a,b",
             "--threads", "2"],
            ["aggregate", runs, "--seed", "1"],
            ["plot", runs, "--kind", "histogram", "--threads", "2"],
            ["demo-sprinkler", "--out-dir", str(tmp_path / "x")],
        ):
            assert main(argv) == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def seed_plot_files(tmp_path):
    """A runs.csv of four completed runs and its agg.csv, in ``tmp_path``."""
    records = [
        make_record(run_index=i, hit_rate=r, abs_err=e, shd=s)
        for i, (r, e, s) in enumerate(
            [(0.5, 0.3, 4), (0.75, 0.2, 2), (1.0, 0.05, 0), (1.0, 0.1, 1)]
        )
    ]
    runs = tmp_path / "runs.csv"
    write_runs_csv(str(runs), records)
    assert main(["aggregate", str(runs), "--out-dir", str(tmp_path)]) == 0
    return str(runs), str(tmp_path / "agg.csv")


class TestPlotSpec:
    """Which --kind and --y pairs plot accepts."""

    def plot(self, tmp_path, kind, *y):
        runs, _ = seed_plot_files(tmp_path)
        out = str(tmp_path / "a.svg")
        return main(["plot", runs, "--kind", kind, *y, "--output", out])

    def test_valid_combinations(self, tmp_path, capsys):
        for kind, y in (
            ("scatter", "abs_err"), ("means", "shd"), ("histogram", "count")
        ):
            assert self.plot(tmp_path, kind, "--y", y) == 0

    def test_histogram_requires_count(self, tmp_path, capsys):
        assert self.plot(tmp_path, "histogram", "--y", "abs_err") == 2
        assert capsys.readouterr().err == (
            "error: histogram plots counts; use --y count\n"
        )

    def test_scatter_rejects_count(self, tmp_path, capsys):
        assert self.plot(tmp_path, "scatter", "--y", "count") == 2
        assert capsys.readouterr().err == (
            "error: scatter needs a metric y, not count\n"
        )

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        assert self.plot(tmp_path, "pie", "--y", "count") == 2
        assert "invalid choice: 'pie'" in capsys.readouterr().err


class TestSimulate:
    def test_writes_both_files_and_summary(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--seed",
                "3",
                "--runs",
                "6",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "runs: 6" in out
        assert "failed:" in out
        assert "mean hit rate:" in out
        records = read_runs_csv(str(tmp_path / "runs.csv"))
        assert len(records) == 6
        assert (tmp_path / "runs.jsonl").exists()

    def test_byte_identical_across_invocations_and_threads(
        self, tmp_path, capsys
    ):
        blobs = []
        for sub, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            d = tmp_path / sub
            d.mkdir()
            rc = main(
                [
                    "simulate",
                    "--seed",
                    "11",
                    "--runs",
                    "8",
                    "--threads",
                    threads,
                    "--out-dir",
                    str(d),
                ]
            )
            assert rc == 0
            blobs.append(
                (
                    (d / "runs.csv").read_bytes(),
                    (d / "runs.jsonl").read_bytes(),
                )
            )
        capsys.readouterr()
        assert blobs[0] == blobs[1] == blobs[2]

    def test_zero_runs_writes_header_only(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--runs", "0", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        text = (tmp_path / "runs.csv").read_text()
        assert text == ",".join(RUNS_CSV_COLUMNS) + "\n"
        assert "mean hit rate: n/a" in capsys.readouterr().out

    def test_missing_out_dir_is_created(self, tmp_path, capsys):
        out = tmp_path / "new" / "study"
        rc = main(["simulate", "--runs", "1", "--out-dir", str(out)])
        assert rc == 0
        assert len(read_runs_csv(str(out / "runs.csv"))) == 1
        assert (out / "runs.jsonl").exists()

    def test_out_dir_that_is_a_file_is_io_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr("causalprobe.cli.run_study", no_study)
        path = tmp_path / "taken"
        path.write_text("")
        rc = main(["simulate", "--runs", "1", "--out-dir", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_parameter_is_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--p-edge",
                "1.5",
                "--runs",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_infinite_penalty_is_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--penalty",
                "inf",
                "--runs",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "penalty" in capsys.readouterr().err
        assert not (tmp_path / "runs.csv").exists()

    def test_zero_threads_is_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--runs",
                "1",
                "--threads",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_config_file_matches_flags(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# small study\nn = 5\np_edge = 0.2\nn_runs = 4\nmaster_seed = 9\n"
        )
        d1 = tmp_path / "via_config"
        d2 = tmp_path / "via_flags"
        d1.mkdir()
        d2.mkdir()
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(cfg),
                    "--out-dir",
                    str(d1),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "simulate",
                    "--n",
                    "5",
                    "--p-edge",
                    "0.2",
                    "--runs",
                    "4",
                    "--seed",
                    "9",
                    "--out-dir",
                    str(d2),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (d1 / "runs.csv").read_bytes() == (
            d2 / "runs.csv"
        ).read_bytes()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("n_runs = 4\nmaster_seed = 9\n")
        rc = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--runs",
                "2",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert len(read_runs_csv(str(tmp_path / "runs.csv"))) == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("warp_factor = 9\n")
        rc = main(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("n 5\n")
        rc = main(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert rc == 2


class TestAggregate:
    def seed_runs(self, tmp_path, records):
        path = tmp_path / "runs.csv"
        write_runs_csv(str(path), records)
        return str(path)

    def test_writes_agg_csv(self, tmp_path, capsys):
        records = [
            make_record(run_index=0, hit_rate=0.5, abs_err=0.3),
            make_record(run_index=1, hit_rate=0.5, abs_err=0.1),
            make_record(run_index=2, hit_rate=1.0, abs_err=0.05),
        ]
        rc = main(
            [
                "aggregate",
                self.seed_runs(tmp_path, records),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rows = read_agg_csv(str(tmp_path / "agg.csv"))
        assert [(r.hit_rate, r.count) for r in rows] == [(0.5, 2), (1.0, 1)]
        assert rows[0].mean_abs_err == pytest.approx(0.2)

    def test_connected_only_filters(self, tmp_path, capsys):
        records = [
            make_record(run_index=0, hit_rate=0.5, connected=False),
            make_record(run_index=1, hit_rate=1.0, connected=True),
        ]
        rc = main(
            [
                "aggregate",
                self.seed_runs(tmp_path, records),
                "--connected-only",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rows = read_agg_csv(str(tmp_path / "agg.csv"))
        assert [(r.hit_rate, r.count) for r in rows] == [(1.0, 1)]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        rc = main(["aggregate", str(tmp_path / "absent.csv")])
        assert rc == 1

    def test_no_completed_runs_is_data_error(self, tmp_path, capsys):
        records = [make_record(run_index=0, failed=True)]
        rc = main(
            [
                "aggregate",
                self.seed_runs(tmp_path, records),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 1

    def test_outlier_listing_uses_jsonl_graphs(self, tmp_path, capsys):
        records = [
            make_record(
                run_index=0,
                hit_rate=1.0,
                abs_err=0.45,
                true_graph="nodes: a, b\na -> b\n",
                discovered_graph="nodes: a, b\n",
            ),
            make_record(run_index=1, hit_rate=1.0, abs_err=0.01),
            make_record(run_index=2, hit_rate=0.5, abs_err=0.45),
        ]
        path = self.seed_runs(tmp_path, records)
        write_runs_jsonl(str(tmp_path / "runs.jsonl"), records)
        rc = main(["aggregate", path, "--outliers"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "outliers: 1" in out
        assert "run 0:" in out
        assert "run 1:" not in out
        assert "a -> b" in out
        assert "true graph:" in out

    def test_outlier_listing_without_sidecar(self, tmp_path, capsys):
        # CSV rows carry no graph text, so the listing omits those blocks.
        records = [make_record(run_index=4, hit_rate=1.0, abs_err=0.3)]
        path = self.seed_runs(tmp_path, records)
        rc = main(["aggregate", path, "--outliers"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run 4:" in out
        assert "true graph:" not in out


class TestPlot:
    def test_all_kinds_write_svg(self, tmp_path, capsys):
        runs, agg = seed_plot_files(tmp_path)
        for kind, y, src in (
            ("scatter", "abs_err", runs),
            ("scatter", "rel_err", runs),
            ("scatter", "shd", runs),
            ("means", "abs_err", runs),
            ("means", "shd", agg),
            ("histogram", "count", agg),
            ("histogram", "count", runs),
        ):
            out = tmp_path / f"{kind}_{y}_{os.path.basename(src)}.svg"
            rc = main(
                [
                    "plot",
                    src,
                    "--kind",
                    kind,
                    "--y",
                    y,
                    "--output",
                    str(out),
                ]
            )
            assert rc == 0
            text = out.read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")
        capsys.readouterr()

    def test_plot_bytes_deterministic(self, tmp_path, capsys):
        runs, _ = seed_plot_files(tmp_path)
        outs = []
        for name in ("p1.svg", "p2.svg"):
            path = tmp_path / name
            assert (
                main(
                    [
                        "plot",
                        runs,
                        "--kind",
                        "scatter",
                        "--y",
                        "abs_err",
                        "--output",
                        str(path),
                    ]
                )
                == 0
            )
            outs.append(path.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_histogram_defaults_to_count(self, tmp_path, capsys):
        runs, _ = seed_plot_files(tmp_path)
        out = tmp_path / "h.svg"
        rc = main(
            ["plot", runs, "--kind", "histogram", "--output", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        assert out.exists()

    def test_scatter_on_agg_is_usage_error(self, tmp_path, capsys):
        _, agg = seed_plot_files(tmp_path)
        rc = main(
            [
                "plot",
                agg,
                "--kind",
                "scatter",
                "--y",
                "abs_err",
                "--output",
                str(tmp_path / "x.svg"),
            ]
        )
        assert rc == 2

    def test_bad_kind_y_combination_is_usage_error(self, tmp_path, capsys):
        runs, _ = seed_plot_files(tmp_path)
        rc = main(
            [
                "plot",
                runs,
                "--kind",
                "histogram",
                "--y",
                "abs_err",
                "--output",
                str(tmp_path / "x.svg"),
            ]
        )
        assert rc == 2

    def test_unrecognized_header_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        rc = main(
            [
                "plot",
                str(bad),
                "--kind",
                "scatter",
                "--y",
                "abs_err",
                "--output",
                str(tmp_path / "x.svg"),
            ]
        )
        assert rc == 1

    def test_bare_output_name_lands_in_out_dir(self, tmp_path, capsys):
        runs, _ = seed_plot_files(tmp_path)
        rc = main(
            [
                "plot",
                runs,
                "--kind",
                "histogram",
                "--output",
                "h.svg",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "h.svg").exists()


class TestDemoSprinkler:
    def test_correct_knowledge_report(self, capsys):
        rc = main(["demo-sprinkler"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit rate: 1.0 (2/2)" in out
        assert "wet -> slippery" in out

    def test_deterministic_across_invocations(self, capsys):
        assert main(["demo-sprinkler"]) == 0
        first = capsys.readouterr().out
        assert main(["demo-sprinkler"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_flipped_knowledge_fails_a_probe(self, capsys):
        rc = main(["demo-sprinkler", "--flip-knowledge"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "target sprinkler -> slippery: 0.0 (trivial-zero)" in out
        assert "[FAIL] sprinkler -> wet" in out
        assert "hit rate: 0.5 (1/2)" in out


class TestAnalyze:
    @pytest.fixture()
    def workdir(self, tmp_path):
        write_csv(sprinkler_data(m=4000, seed=1), str(tmp_path / "data.csv"))
        (tmp_path / "knowledge.txt").write_text(
            "require sprinkler -> wet\n"
            "require rain -> wet\n"
            "forbid sprinkler -> rain\n"
            "forbid season -> wet\n"
        )
        (tmp_path / "probes.txt").write_text(
            "probe sprinkler -> wet expect > 0\n"
            "probe wet -> slippery expect > 0\n"
        )
        return tmp_path

    def test_passing_probes_exit_zero(self, workdir, capsys):
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--knowledge",
                str(workdir / "knowledge.txt"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
                "--out-dir",
                str(workdir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit rate: 1.0 (2/2)" in out
        report = json.loads((workdir / "report.json").read_text())
        assert report["hit_rate"] == 1.0
        assert report["target"]["pair"] == ["sprinkler", "slippery"]

    def test_failing_probe_exits_three(self, workdir, capsys):
        (workdir / "strict.txt").write_text(
            "probe sprinkler -> wet expect 0.99 +/- 0.001\n"
        )
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--knowledge",
                str(workdir / "knowledge.txt"),
                "--probes",
                str(workdir / "strict.txt"),
                "--target",
                "sprinkler,slippery",
                "--out-dir",
                str(workdir),
            ]
        )
        assert rc == 3
        assert "[FAIL]" in capsys.readouterr().out
        # The report is still written for inspection.
        report = json.loads((workdir / "report.json").read_text())
        assert report["hit_rate"] == 0.0

    def test_unknown_probe_column_is_usage_error(self, workdir, capsys):
        (workdir / "bad.txt").write_text("probe sprinkler -> moist expect > 0\n")
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--probes",
                str(workdir / "bad.txt"),
                "--target",
                "sprinkler,slippery",
                "--out-dir",
                str(workdir),
            ]
        )
        assert rc == 2
        assert "moist" in capsys.readouterr().err

    def test_unknown_target_column_is_usage_error(self, workdir, capsys):
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slipperiness",
                "--out-dir",
                str(workdir),
            ]
        )
        assert rc == 2
        assert "slipperiness" in capsys.readouterr().err

    def test_malformed_target_is_usage_error(self, workdir, capsys):
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler",
            ]
        )
        assert rc == 2

    def test_missing_data_file_is_io_error(self, workdir, capsys):
        rc = main(
            [
                "analyze",
                str(workdir / "nope.csv"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
            ]
        )
        assert rc == 1

    def test_unknown_knowledge_column_is_usage_error(self, workdir, capsys):
        (workdir / "badk.txt").write_text("require sprinkler -> moat\n")
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--knowledge",
                str(workdir / "badk.txt"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
            ]
        )
        assert rc == 2
        assert "moat" in capsys.readouterr().err

    def test_padded_header_name_is_usage_error_before_the_search(
        self, workdir, capsys, monkeypatch
    ):
        # ' season' would be a node name the report cannot write.
        (workdir / "padded.csv").write_text(
            "sprinkler,wet,slippery, season\n0,0,1,1\n1,1,0,0\n"
        )

        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(pipeline, "ges", no_search)
        rc = main(
            [
                "analyze",
                str(workdir / "padded.csv"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
                "--out-dir",
                str(workdir),
            ]
        )
        assert rc == 2
        assert "' season'" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    def test_oversized_cell_is_data_error(self, workdir, capsys):
        # The csv module refuses a field beyond 131,072 characters.
        path = str(workdir / "huge.csv")
        with open(path, "w") as fh:
            fh.write("sprinkler,slippery\n0,1\n1," + "0" * 131_073 + "\n")
        rc = main(
            [
                "analyze",
                path,
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
            ]
        )
        assert rc == 1
        assert f"{path}:3: " in capsys.readouterr().err

    def test_nonpositive_penalty_is_usage_error(self, workdir, capsys):
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
                "--penalty",
                "0",
            ]
        )
        assert rc == 2
        assert "penalty" in capsys.readouterr().err

    def test_infinite_penalty_is_usage_error(self, workdir, capsys):
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
                "--penalty",
                "inf",
                "--out-dir",
                str(workdir),
            ]
        )
        assert rc == 2
        assert "penalty" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    def test_byte_order_mark_gives_the_same_report(self, workdir, capsys):
        text = (workdir / "data.csv").read_text(encoding="utf-8")
        (workdir / "bom.csv").write_text("\ufeff" + text, encoding="utf-8")
        reports = []
        for name in ("data.csv", "bom.csv"):
            out = workdir / name.replace(".csv", "")
            rc = main(
                [
                    "analyze",
                    str(workdir / name),
                    "--knowledge",
                    str(workdir / "knowledge.txt"),
                    "--probes",
                    str(workdir / "probes.txt"),
                    "--target",
                    "season,slippery",
                    "--out-dir",
                    str(out),
                ]
            )
            assert rc in (0, 3)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_non_binary_cell_is_data_error_before_the_search(
        self, workdir, capsys, monkeypatch
    ):
        path = str(workdir / "yes.csv")
        with open(path, "w") as fh:
            fh.write("sprinkler,wet,slippery\n0,0,1\n1,yes,1\n")

        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(pipeline, "ges", no_search)
        rc = main(
            [
                "analyze",
                path,
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,slippery",
                "--out-dir",
                str(workdir),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path}: cell at row 1, column 'wet' is 'yes'" in err
        assert not (workdir / "report.json").exists()

    def test_self_target_is_usage_error(self, workdir, capsys):
        rc = main(
            [
                "analyze",
                str(workdir / "data.csv"),
                "--probes",
                str(workdir / "probes.txt"),
                "--target",
                "sprinkler,sprinkler",
            ]
        )
        assert rc == 2
        assert "distinct" in capsys.readouterr().err
