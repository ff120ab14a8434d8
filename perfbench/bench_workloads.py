"""The benchmark's workloads: their inputs, one op each, and output checks.

``study-oracle`` and ``study-bigdata`` run a simulation study one run (op)
at a time through ``causalprobe.sim.simulate_run`` and then write
``runs.csv``/``runs.jsonl``. ``analyze-csv`` calls ``causalprobe analyze``
in-process through ``causalprobe.cli.main`` on a generated sprinkler CSV.

Every function of the program is looked up on its module at call time, so
the tracer's wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_SEED = 0

TRUE_ATE_TOL = 1e-12
EST_ATE_TOL = 1e-9
PATHLESS_TOL = 1e-12


def load_reference(name: str, seed: int):
    """Stored outputs for the pinned seed; None for any other seed."""
    if seed != PINNED_SEED:
        return None
    with open(os.path.join(HERE, "reference", f"{name}.json"),
              encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["seed"] != seed:
        raise ValueError(f"reference/{name}.json holds seed {ref['seed']}")
    return ref


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _reachable(graph_text: str) -> dict[str, set[str]]:
    """Descendants of every node of a graph in the `nodes:` text format."""
    lines = [ln for ln in graph_text.splitlines() if ln.strip()]
    nodes = [x.strip() for x in lines[0][len("nodes:"):].split(",")]
    children: dict[str, list[str]] = {v: [] for v in nodes}
    for ln in lines[1:]:
        a, b = (x.strip() for x in ln.split("->"))
        children[a].append(b)
    out = {}
    for v in nodes:
        seen: set[str] = set()
        todo = list(children[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(children[w])
        out[v] = seen
    return out


class Study:
    """A simulation study; one op is one run."""

    def __init__(self, name: str, trace_ops: int, reference: str, **params):
        self.name = name
        self.trace_ops = trace_ops
        self.reference = reference  # see calibrate.py
        self.params_kw = params

    def prepare(self, seed: int, workdir: str) -> None:
        from causalprobe import sim

        self.sim = sim
        self.params = sim.SimParams(master_seed=seed, **self.params_kw)
        self.warm_params = sim.SimParams(master_seed=seed, n=5, m=200)
        self.ref = None

    def warm_up(self) -> None:
        self.sim.simulate_run(self.warm_params, 0)

    def op(self, p, i: int):
        return self.sim.simulate_run(self.params, i)

    def finish(self, p) -> None:
        records = [r for r in p.results if r is not None]
        csv_path, jsonl_path = self.outputs(p)
        self.sim.write_runs_csv(csv_path, records)
        self.sim.write_runs_jsonl(jsonl_path, records)

    def outputs(self, p) -> list[str]:
        return [os.path.join(p.outdir, f) for f in ("runs.csv", "runs.jsonl")]

    def check_op(self, p, i: int, rec) -> list[str]:
        """Why run ``i`` is wrong; empty when it is right."""
        errs = []
        if rec.run_index != i:
            errs.append(f"run_index {rec.run_index} != {i}")
        if rec.failed:
            errs.append(f"run failed: {rec.error}")
            return errs
        if rec.n_probes != len(rec.probes) or not rec.probes:
            errs.append("n_probes does not match the probe detail")
            return errs
        eps = self.params.eps_probe
        for p in rec.probes:
            if p.passed != (abs(p.estimate - p.truth) <= eps):
                errs.append(f"probe {p.treatment}->{p.outcome} verdict")
        want = sum(p.passed for p in rec.probes) / len(rec.probes)
        if rec.hit_rate != want:
            errs.append(f"hit_rate {rec.hit_rate!r} != {want!r} from probes")
        if rec.abs_err != abs(rec.est_ate - rec.true_ate):
            errs.append("abs_err != |est - true|")
        reach = _reachable(rec.true_graph)
        for p in rec.probes:
            if p.outcome not in reach[p.treatment] and abs(p.truth) > PATHLESS_TOL:
                errs.append(f"pathless {p.treatment}->{p.outcome} truth "
                            f"{p.truth!r}")
        if self.ref is not None and i < len(self.ref["runs"]):
            r = self.ref["runs"][i]
            if (rec.target_treatment, rec.target_outcome) != tuple(r["target"]):
                errs.append("target pair differs from the reference")
            if not _close(rec.true_ate, r["true_ate"], TRUE_ATE_TOL):
                errs.append(f"true_ate {rec.true_ate!r} vs {r['true_ate']!r}")
            if not _close(rec.est_ate, r["est_ate"], EST_ATE_TOL):
                errs.append(f"est_ate {rec.est_ate!r} vs {r['est_ate']!r}")
            for key in ("discovered_graph", "shd", "hit_rate", "failed"):
                if getattr(rec, key) != r[key]:
                    errs.append(f"{key} differs from the reference")
        return errs

    def check_outputs(self, p) -> list[str]:
        """The written files hold one row/line per run, matching the runs."""
        errs = []
        records = [r for r in p.results if r is not None]
        csv_path, jsonl_path = self.outputs(p)
        with open(csv_path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != len(records) + 1:
            errs.append(f"runs.csv has {len(rows) - 1} rows, "
                        f"{len(records)} runs")
        with open(jsonl_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != len(records):
            errs.append(f"runs.jsonl has {len(lines)} lines, "
                        f"{len(records)} runs")
        for line, rec in zip(lines, records):
            d = json.loads(line)
            for key in ("run_index", "true_ate", "est_ate", "hit_rate",
                        "discovered_graph"):
                if d[key] != getattr(rec, key):
                    errs.append(f"runs.jsonl run {rec.run_index}: {key}")
        return errs

    def reference_runs(self, count: int) -> dict:
        """The stored-reference form of the first ``count`` runs."""
        runs = []
        for i in range(count):
            rec = self.sim.simulate_run(self.params, i)
            runs.append({
                "target": [rec.target_treatment, rec.target_outcome],
                "true_ate": rec.true_ate,
                "est_ate": rec.est_ate,
                "discovered_graph": rec.discovered_graph,
                "shd": rec.shd,
                "hit_rate": rec.hit_rate,
                "failed": rec.failed,
            })
        return {"seed": self.params.master_seed, "params": self.params_kw,
                "runs": runs}


# The sprinkler network of the README: (node, parents, P(node=1 | parents)),
# parents' states read as a binary number, first parent most significant.
SPRINKLER = (
    ("season", (), (0.5,)),
    ("sprinkler", ("season",), (0.15, 0.7)),
    ("rain", ("season",), (0.75, 0.25)),
    ("wet", ("sprinkler", "rain"), (0.02, 0.8, 0.85, 0.99)),
    ("slippery", ("wet",), (0.05, 0.9)),
)

# The README's knowledge file, and the probes of its probe-file example that
# hold for the sprinkler network. The other two contradict its exact
# effects (season -> wet is about 0.03; rain -> sprinkler has no path).
KNOWLEDGE = "require sprinkler -> wet\nforbid  season -> wet\n"
PROBES = (
    "probe sprinkler -> wet expect > 0.0\n"
    "probe wet -> slippery expect 0.85 +/- 0.1\n"
    "probe season -> rain expect nonzero 0.05\n"
)
TARGET = "sprinkler,slippery"


def write_sprinkler_csv(path: str, rows: int, seed: int) -> None:
    """A 0/1 CSV sampled from SPRINKLER; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    for node, parents, table in SPRINKLER:
        idx = np.zeros(rows, dtype=np.int64)
        for p in parents:
            idx = idx * 2 + cols[p]
        cols[node] = (rng.random(rows) < np.asarray(table)[idx]).astype(np.uint8)
    width = 2 * len(SPRINKLER)
    text = np.full((rows, width), ord(","), dtype=np.uint8)
    for j, (node, _, _) in enumerate(SPRINKLER):
        text[:, 2 * j] = cols[node] + ord("0")
    text[:, -1] = ord("\n")
    header = ",".join(node for node, _, _ in SPRINKLER) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(text.tobytes())


class Analyze:
    """`causalprobe analyze` on a sprinkler CSV; one op is one call."""

    name = "analyze-csv"
    trace_ops = 8
    reference = "rows"  # see calibrate.py
    rows = 200_000

    def prepare(self, seed: int, workdir: str) -> None:
        from causalprobe import cli

        self.cli = cli
        self.ref = None
        self.csv = os.path.join(workdir, "data.csv")
        self.warm_csv = os.path.join(workdir, "warm.csv")
        write_sprinkler_csv(self.csv, self.rows, seed)
        write_sprinkler_csv(self.warm_csv, 2_000, seed)
        self.knowledge = os.path.join(workdir, "knowledge.txt")
        self.probes = os.path.join(workdir, "probes.txt")
        with open(self.knowledge, "w", encoding="utf-8") as fh:
            fh.write(KNOWLEDGE)
        with open(self.probes, "w", encoding="utf-8") as fh:
            fh.write(PROBES)
        self.workdir = workdir

    def _main(self, data_csv: str, outdir: str) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.cli.main([
                "analyze", data_csv, "--knowledge", self.knowledge,
                "--probes", self.probes, "--target", TARGET,
                "--out-dir", outdir,
            ])
        self.last_output = out.getvalue()
        return code

    def warm_up(self) -> None:
        self._main(self.warm_csv, self.workdir)

    def op(self, p, i: int):
        return self._main(self.csv, p.outdir)

    def finish(self, p) -> None:
        pass

    def outputs(self, p) -> list[str]:
        return [os.path.join(p.outdir, "report.json")]

    def check_op(self, p, i: int, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {self.last_output.strip()}"]
        with open(self.outputs(p)[0], encoding="utf-8") as fh:
            text = fh.read()
        if p.first_output is None:
            p.first_output = text
        elif text != p.first_output:
            return ["report.json differs between calls on the same input"]
        report = json.loads(text)
        errs = []
        if report["hit_rate"] != 1.0 or not all(
            probe["passed"] for probe in report["probes"]
        ):
            errs.append(f"hit_rate {report['hit_rate']!r}, expected 1.0")
        if self.ref is not None:
            want = self.ref["report"]
            if report["discovered_graph"] != want["discovered_graph"]:
                errs.append("discovered graph differs from the reference")
            got = [report["target"]["estimate"]] + [
                probe["estimate"] for probe in report["probes"]]
            ref = [want["target"]["estimate"]] + [
                probe["estimate"] for probe in want["probes"]]
            if len(got) != len(ref) or not all(
                _close(a, b, EST_ATE_TOL) for a, b in zip(got, ref)
            ):
                errs.append("estimates differ from the reference")
            if report["hit_rate"] != want["hit_rate"]:
                errs.append("hit_rate differs from the reference")
        return errs

    def check_outputs(self, p) -> list[str]:
        return []

    def reference_runs(self, count: int) -> dict:
        if self._main(self.csv, self.workdir) != 0:
            raise RuntimeError(self.last_output)
        with open(os.path.join(self.workdir, "report.json"),
                  encoding="utf-8") as fh:
            return {"seed": PINNED_SEED, "rows": self.rows,
                    "report": json.load(fh)}


def make(name: str):
    if name == "study-oracle":
        return Study(name, trace_ops=5, reference="tables", n=16, p_edge=0.12,
                     m=2000)
    if name == "study-bigdata":
        return Study(name, trace_ops=40, reference="columns", n=7,
                     p_edge=0.1, m=200_000)
    if name == "analyze-csv":
        return Analyze()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("study-oracle", "study-bigdata", "analyze-csv")
