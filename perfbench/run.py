"""causalprobe benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``. Workloads are defined in ``bench_workloads.py``.

``--trace 0`` measures end to end with tracing off: ops run back to back,
in this one process, until their times add up to ``--seconds``; between
ops, fresh interpreters time ``import causalprobe`` (``setup_s``), spread
evenly over the run. A fixed reference work runs between any two of these
timed sections, and each section's time is scaled to a host of nominal
speed by the reference times around it (``calibrate.py``), because the
shared host's own speed drifts by tens of percent over minutes. The
wall-clock figures are printed in brackets beside the scaled ones.

``--trace 1`` runs a fixed number of ops twice on the same inputs,
untraced and then traced, checks that both passes wrote the same bytes, and
reports the per-layer metrics of the traced pass and the tracing overhead
(traced minus untraced wall-clock time). The op count of a traced run is
fixed so that its counts repeat.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
those ``BENCHMARK.json`` lists under ``end_to_end`` (``--trace 0``) or
``per_layer`` (``--trace 1``).
"""

from __future__ import annotations

import os

# A 2-core machine shared with other jobs: one BLAS thread keeps the
# least-squares calls from measuring the scheduler. Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from calibrate import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 10

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import causalprobe; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import causalprobe in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
        capture_output=True, text=True)
    return float(proc.stdout)


class Pass:
    """Results, latencies and problems of one pass over a workload's ops."""

    def __init__(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        self.outdir = outdir
        self.results: list = []
        self.first_output = None
        self.latencies: list[float] = []
        self.finish_s = 0.0
        self.failed_ops: dict[int, list[str]] = {}
        self.output_errors: list[str] = []

        # Host-speed factors (nominal / measured reference time) of each op
        # and of the writing of the outputs; a --trace 0 run sets them.
        self.speed: list[float] = []
        self.finish_speed = 1.0

    @property
    def total_s(self) -> float:
        return sum(self.latencies) + self.finish_s

    def op_latencies(self) -> list[float]:
        """Each op's time plus its share of writing the outputs."""
        share = self.finish_s / len(self.latencies)
        return [t + share for t in self.latencies]

    def scaled_latencies(self) -> list[float]:
        """``op_latencies`` scaled to a host of nominal speed."""
        share = self.finish_s * self.finish_speed / len(self.latencies)
        return [t * f + share for t, f in zip(self.latencies, self.speed)]


def run_op(wl, p: Pass, i: int) -> None:
    """Run and time op ``i``, then check its result outside the timing."""
    t0 = perf_counter()
    try:
        result = wl.op(p, i)
    except Exception:
        p.latencies.append(perf_counter() - t0)
        p.results.append(None)
        p.failed_ops[i] = [traceback.format_exc()]
        return
    p.latencies.append(perf_counter() - t0)
    p.results.append(result)
    problems = wl.check_op(p, i, result)
    if problems:
        p.failed_ops[i] = problems


def run_finish(wl, p: Pass) -> None:
    """Write the pass's outputs, timed, and check them."""
    t0 = perf_counter()
    try:
        wl.finish(p)
    except Exception:
        p.output_errors.append(traceback.format_exc())
    p.finish_s = perf_counter() - t0
    if not p.output_errors:
        p.output_errors = wl.check_outputs(p)


def report_problems(name: str, p: Pass) -> None:
    for i, msgs in sorted(p.failed_ops.items()):
        for msg in msgs:
            print(f"{name}: op {i}: {msg}", file=sys.stderr)
    for msg in p.output_errors:
        print(f"{name}: outputs: {msg}", file=sys.stderr)


def percentile_line(lat: list[float]) -> str | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(lat) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(lat, n=100)[q - 1]
            return f"op_p{q}_s      {cut:.6f} s"
    return None


def prepare(wl, seed: int, workdir: str) -> None:
    """Make the inputs, load the reference outputs and warm up."""
    from bench_workloads import load_reference

    wl.prepare(seed, workdir)
    wl.ref = load_reference(wl.name, seed)
    wl.warm_up()


class Calibrated:
    """A reference work, run before and after every timed section.

    A section's speed factor is the reference's nominal time over the
    median of the four reference times nearest to it, two before and two
    after, so that one reference run caught in a brief stall does not skew
    it.
    """

    def __init__(self, kind: str):
        self.ref = Reference(kind)
        self.reference_s: list[float] = [self.ref.run()]

    def after_section(self) -> int:
        """Run the reference work; return the index of the section before."""
        self.reference_s.append(self.ref.run())
        return len(self.reference_s) - 2

    def speed(self, section: int) -> float:
        near = self.reference_s[max(0, section - 1):section + 3]
        return self.ref.nominal_s / statistics.median(near)


def end_to_end(wl, seed: int, seconds: float, workdir: str):
    # The first import compiles the bytecode cache; users pay that once.
    import_seconds()
    prepare(wl, seed, workdir)
    cal = Calibrated(wl.reference)
    p = Pass(os.path.join(workdir, "out"))
    # Set-up is timed between ops, spread over the run, so that its median
    # does not hang on the machine's speed at one moment. The ops' clock
    # stops meanwhile: only op time counts towards ``seconds``.
    imports: list[float] = []
    import_sections: list[int] = []
    op_sections: list[int] = []
    i = 0
    while i == 0 or sum(p.latencies) < seconds:
        if sum(p.latencies) >= len(imports) * seconds / SETUP_REPEATS:
            imports.append(import_seconds())
            import_sections.append(cal.after_section())
        run_op(wl, p, i)
        op_sections.append(cal.after_section())
        i += 1
    while len(imports) < SETUP_REPEATS:
        imports.append(import_seconds())
        import_sections.append(cal.after_section())
    run_finish(wl, p)
    p.finish_speed = cal.speed(cal.after_section())
    p.speed = [cal.speed(j) for j in op_sections]
    imports_scaled = [t * cal.speed(j)
                      for t, j in zip(imports, import_sections)]
    report_problems(wl.name, p)
    lat = p.scaled_latencies()
    attempted = len(lat)
    failed = len(p.failed_ops)
    metrics = {
        "setup_s": statistics.median(imports_scaled),
        "ops_per_s": attempted / sum(lat),
        "op_p50_s": statistics.median(lat),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = p.op_latencies()
    print(f"{wl.name} seed={seed}: {attempted} ops in {p.total_s:.3f} s, "
          f"tracing off; times scaled to a host of nominal speed by the "
          f"{wl.reference!r} reference, "
          f"wall clock in brackets (host speed factor: median "
          f"{statistics.median(p.speed):.3f}, range {min(p.speed):.3f}"
          f"-{max(p.speed):.3f})")
    print(f"  setup_s      {metrics['setup_s']:.6f} s "
          f"[{statistics.median(imports):.6f} s] "
          f"(median of {SETUP_REPEATS} imports)")
    print(f"  ops_per_s    {metrics['ops_per_s']:.6f} 1/s "
          f"[{attempted / p.total_s:.6f} 1/s]")
    print(f"  op_p50_s     {metrics['op_p50_s']:.6f} s "
          f"[{statistics.median(wall):.6f} s] (n={attempted})")
    extra = percentile_line(lat)
    if extra:
        print(f"  {extra}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.3f} MB")
    print(f"  error_rate   {failed / attempted:.6f} ({failed}/{attempted})")
    correct = failed == 0 and not p.output_errors
    return correct, attempted, failed, metrics


def _same_bytes(paths_a: list[str], paths_b: list[str]) -> list[str]:
    errs = []
    for a, b in zip(paths_a, paths_b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                errs.append(f"{os.path.basename(a)} differs between the "
                            "untraced and the traced pass")
    return errs


def per_layer(wl, seed: int, workdir: str):
    from bench_trace import Tracer, layer_table, top_level_seconds, work_counts

    prepare(wl, seed, workdir)
    plain = Pass(os.path.join(workdir, "plain"))
    traced = Pass(os.path.join(workdir, "traced"))
    tracer = Tracer()
    # Ops alternate between the passes, so drift in the machine's speed
    # falls on both alike.
    for i in range(wl.trace_ops):
        tracer.op = i
        for p in (plain, traced) if i % 2 == 0 else (traced, plain):
            with tracer if p is traced else contextlib.nullcontext():
                run_op(wl, p, i)
    tracer.op = None
    run_finish(wl, plain)
    with tracer:
        run_finish(wl, traced)
    report_problems(wl.name + " (untraced)", plain)
    report_problems(wl.name + " (traced)", traced)
    mismatch = _same_bytes(wl.outputs(plain), wl.outputs(traced))
    for msg in mismatch:
        print(f"{wl.name}: {msg}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{wl.name}-seed{seed}.jsonl"))

    table = layer_table(tracer.spans)
    values = dict(work_counts(tracer.spans))
    for span, row in table.items():
        for key, v in row.items():
            values[f"{span}.{key}"] = v
    values["trace.overhead_s"] = traced.total_s - plain.total_s
    values["trace.coverage"] = top_level_seconds(tracer.spans) / traced.total_s

    print(f"{wl.name} seed={seed}: {wl.trace_ops} ops, untraced "
          f"{plain.total_s:.3f} s, traced {traced.total_s:.3f} s")
    print(f"  top-level spans cover {values['trace.coverage']:.4f} "
          "of traced op time")
    print("  layer                              calls        s   self_s  "
          "self share")
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span:32s} {row['calls']:7d} {row['s']:8.3f} "
              f"{row['self_s']:8.3f}  {row['self_s'] / traced.total_s:.4f}")
    print("  cells and bytes are computed from array and file sizes")
    attempted = 2 * wl.trace_ops
    failed = len(plain.failed_ops) + len(traced.failed_ops)
    correct = (failed == 0 and not plain.output_errors
               and not traced.output_errors and not mismatch)
    return correct, attempted, failed, values


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    from bench_workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "causalprobe", "__init__.py")):
        print(f"error: no causalprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_workloads

    if args.seed is None:
        args.seed = bench_workloads.PINNED_SEED
    if args.workload == "all":
        return run_all(args)
    wl = bench_workloads.make(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    workdir = os.path.join(OUT, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            correct, attempted, failed, values = per_layer(wl, args.seed,
                                                           workdir)
            wanted = bench["per_layer"]
        else:
            correct, attempted, failed, values = end_to_end(
                wl, args.seed, args.seconds, workdir)
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[-1] in ("calls", "s", "self_s"):
            value = 0  # the workload never calls this layer
        else:
            raise KeyError(f"metric {name} is not measured")
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
