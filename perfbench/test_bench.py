"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They guard what the benchmark relies on: tracing does not perturb study
outputs, work counts repeat exactly, the output checks catch a wrong
result, times are scaled by the reference runs around them, and the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run  # noqa: E402  (perfbench/ is on sys.path under pytest)

sys.path.insert(0, run.SRC)

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from causalprobe import sim  # noqa: E402

TEST_DIR = os.path.join(run.OUT, "tests")


def _workdir(name: str) -> str:
    path = os.path.join(TEST_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _study_pass(wl, outdir, ops, tracer=None) -> run.Pass:
    p = run.Pass(outdir)
    for i in range(ops):
        if tracer is None:
            run.run_op(wl, p, i)
        else:
            tracer.op = i
            with tracer:
                run.run_op(wl, p, i)
    if tracer is None:
        run.run_finish(wl, p)
    else:
        with tracer:
            run.run_finish(wl, p)
    assert not p.failed_ops and not p.output_errors
    return p


def _read(paths):
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def test_untraced_traced_and_two_workers_write_the_same_bytes():
    for name, ops in (("study-bigdata", 4), ("study-oracle", 2)):
        work = _workdir(name)
        wl = bench_workloads.make(name)
        wl.prepare(3, work)
        plain = _study_pass(wl, os.path.join(work, "plain"), ops)
        traced = _study_pass(wl, os.path.join(work, "traced"), ops,
                             bench_trace.Tracer())
        params = sim.SimParams(master_seed=3, n_runs=ops, **wl.params_kw)
        records = sim.run_study(params, threads=2)
        pooled = os.path.join(work, "pooled")
        os.makedirs(pooled)
        sim.write_runs_csv(os.path.join(pooled, "runs.csv"), records)
        sim.write_runs_jsonl(os.path.join(pooled, "runs.jsonl"), records)
        want = _read(wl.outputs(plain))
        assert _read(wl.outputs(traced)) == want
        assert _read([os.path.join(pooled, f)
                      for f in ("runs.csv", "runs.jsonl")]) == want


def test_work_counts_repeat_across_traced_runs():
    wl = bench_workloads.make("study-bigdata")
    work = _workdir("counts")
    wl.prepare(5, work)
    seen = []
    for k in range(2):
        tracer = bench_trace.Tracer()
        _study_pass(wl, os.path.join(work, str(k)), 3, tracer)
        counts = bench_trace.work_counts(tracer.spans)
        calls = {name: row["calls"] for name, row in
                 bench_trace.layer_table(tracer.spans).items()}
        seen.append((counts, calls))
    assert seen[0] == seen[1]
    counts, calls = seen[0]
    assert calls["sim.simulate_run"] == 3
    assert counts["bayesnet.sample.cells"] == 3 * 7 * 200_000
    assert counts["bayesnet.true_ate.cells"] == 2 * 2**7 * calls[
        "bayesnet.true_ate"]


def test_checks_accept_the_reference_and_reject_a_wrong_result():
    wl = bench_workloads.make("study-bigdata")
    work = _workdir("reference")
    wl.prepare(bench_workloads.PINNED_SEED, work)
    wl.ref = bench_workloads.load_reference(wl.name, wl.params.master_seed)
    p = run.Pass(os.path.join(work, "out"))
    run.run_op(wl, p, 0)
    assert not p.failed_ops
    rec = p.results[0]
    off = dataclasses.replace(rec, est_ate=rec.est_ate + 1e-8)
    assert any("est_ate" in e for e in wl.check_op(p, 0, off))
    assert wl.check_op(p, 0, dataclasses.replace(rec, hit_rate=0.0))


def test_analyze_reference_holds_for_the_pinned_seed():
    wl = bench_workloads.make("analyze-csv")
    work = _workdir("analyze")
    wl.prepare(bench_workloads.PINNED_SEED, work)
    wl.ref = bench_workloads.load_reference(wl.name, bench_workloads.PINNED_SEED)
    p = run.Pass(os.path.join(work, "out"))
    run.run_op(wl, p, 0)
    run.run_op(wl, p, 1)
    assert not p.failed_ops


def test_times_are_scaled_by_the_reference_runs_around_them():
    cal = run.Calibrated("columns")
    cal.reference_s = [0.1, 0.1, 0.2, 0.05, 0.04]
    # Section 1 lies between reference runs 1 and 2; the nearest four are
    # runs 0-3. Section 3, the last, has only three around it.
    assert cal.speed(1) == cal.ref.nominal_s / 0.1
    assert cal.speed(3) == cal.ref.nominal_s / 0.05
    p = run.Pass(_workdir("scaled"))
    p.latencies, p.speed = [1.0, 2.0], [0.5, 2.0]
    p.finish_s, p.finish_speed = 0.4, 0.5
    assert p.scaled_latencies() == [0.5 + 0.1, 4.0 + 0.1]


def test_refuses_to_run_without_the_program_sources():
    bare = _workdir("bare")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_map_names_every_per_layer_metric_once():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "layer_map.json"), encoding="utf-8") as fh:
        mapped = [n for row in json.load(fh)["layers"] for n in row["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
