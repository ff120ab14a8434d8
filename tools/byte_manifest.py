"""Print one sha256 digest per output of a fixed list of causalprobe commands.

Usage: python tools/byte_manifest.py > manifest.txt

The commands run the ``causalprobe`` command line from this checkout's
``src`` in one temporary directory: five simulation studies, each with
``--threads 1`` and ``--threads 2``; ``aggregate``, ``aggregate --outliers``
and the three ``plot`` kinds on the default study; ``analyze`` on the
sprinkler data with the probe and knowledge files from the README, once on
the file ``write_csv`` writes and once (``analyze-crlf``) on the same data
with CRLF line endings and a quoted header, which ``read_csv`` parses with
``csv.reader`` instead of its plain-form pass; and ``demo-sprinkler`` with
and without ``--flip-knowledge``. One more command (``ges-patterns``)
prints the pattern ``ges`` returns on each of 400 seeded networks of 2 to 8
nodes with required and forbidden knowledge; on every fourth network one
column duplicates another and one is constant, so that moves tie exactly.
The last (``orient-dags``) prints, on the same networks, the edges of the
DAG ``orient_to_dag`` commits that pattern to, and the pattern
``dag_to_cpdag`` gives the true DAG.
Each output file and each command's stdout gets one ``<sha256>  <name>``
line; a stdout digest also covers the exit code.

Run it at two commits and diff the two listings: an empty diff means the
change kept every output byte-identical. No digest is pinned here, because
BLAS builds move the last bits of least-squares estimates between hosts.

Exits 1 when a ``--threads 2`` study wrote different bytes from its
``--threads 1`` twin or ``analyze-crlf`` wrote a different ``report.json``
from ``analyze``, and 2 when a command fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

STUDIES = {
    "defaults": [],
    "n16": ["--n", "16", "--p-edge", "0.12", "--m", "2000", "--runs", "5"],
    # Run 1 exhausts the rejection sampler: a generation failure.
    "n25-seed1": ["--n", "25", "--p-edge", "0.1", "--runs", "3", "--seed", "1"],
    # No edges: every run is a degenerate network.
    "n2-empty": ["--n", "2", "--p-edge", "0", "--runs", "2"],
    "n10-hint": [
        "--n", "10", "--p-edge", "0.25", "--p-hint", "0.5", "--m", "500",
        "--runs", "40",
    ],
}

README_PROBES = """\
probe sprinkler -> wet expect > 0.0
probe wet -> slippery expect 0.85 +/- 0.1
probe season -> wet expect in [0.0, 0.1]
probe season -> rain expect < 0.0
probe season -> rain expect nonzero 0.05
"""

README_KNOWLEDGE = """\
require sprinkler -> wet
forbid  season -> wet
"""

MAKE_DATA = (
    "from causalprobe import sprinkler_data, write_csv; "
    "write_csv(sprinkler_data(m=10000, seed=0), 'data.csv')"
)
# The search cases of ``ges-patterns`` and ``orient-dags``: each network's
# seed, true DAG ``g`` and the pattern ``found`` are left to the line that
# follows the loop body.
SEARCH_NETWORKS = """\
import numpy as np
from causalprobe.bayesnet import random_cpds, sample
from causalprobe.dataset import BinaryDataset
from causalprobe.discovery import (
    Knowledge, dag_to_cpdag, ges, orient_to_dag, pick_hint_edges,
)
from causalprobe.graph import random_dag
for seed in range(400):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 7
    g = random_dag(n, 0.3, rng)
    values = sample(random_cpds(g, rng), 400, rng).values.copy()
    hints = pick_hint_edges(g, (0.0, 0.3, 0.6, 1.0)[seed // 4 % 4], rng)
    open_pairs = [
        (g.labels[a], g.labels[b]) for a in range(n) for b in range(n)
        if a != b and (a, b) not in g.edges and (b, a) not in g.edges
    ]
    picks = sorted(rng.permutation(len(open_pairs))[: len(open_pairs) // 3])
    # Required edges forbidden the other way, and some open pairs.
    forbidden = [(b, a) for a, b in sorted(hints.required)]
    forbidden += [open_pairs[i] for i in picks]
    if seed % 4 == 3:
        values[:, n - 1] = values[:, 0]
        if n > 2:
            values[:, 1] = 0
    data = BinaryDataset(g.labels, values)
    found = ges(data, Knowledge(hints.required, forbidden))
"""
GES_PATTERNS = SEARCH_NETWORKS + "    print(seed, found)\n"
ORIENT_DAGS = (
    SEARCH_NETWORKS
    + "    print(seed, sorted(orient_to_dag(found).edges), dag_to_cpdag(g))\n"
)
RUN_CLI = "import sys; from causalprobe.cli import main; sys.exit(main(sys.argv[1:]))"


def _python(cwd: Path, code: str, *args: str) -> bytes:
    """Run ``code`` against this checkout's package; stdout plus exit code."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True
    )
    # analyze exits 3 when a probe fails, which is an output, not a failure.
    if proc.returncode not in (0, 3):
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        print(f"error: {list(args)} in {cwd.name} exited {proc.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return proc.stdout + f"exit {proc.returncode}\n".encode()


def _step(root: Path, name: str, code: str, *args: str) -> dict[str, bytes]:
    """Run one command in its own directory; its stdout and every file it
    wrote there, by name."""
    cwd = root / name
    cwd.mkdir()
    out = {f"{name}/stdout": _python(cwd, code, *args)}
    for path in sorted(cwd.iterdir()):
        out[f"{name}/{path.name}"] = path.read_bytes()
    return out


def _analyze(cwd: Path, data: bytes | None) -> dict[str, bytes]:
    """Run the README's ``analyze`` in ``cwd`` on ``data``, or on freshly
    written sprinkler data when ``data`` is None."""
    cwd.mkdir()
    if data is None:
        _python(cwd, MAKE_DATA)
    else:
        (cwd / "data.csv").write_bytes(data)
    (cwd / "probes.txt").write_text(README_PROBES)
    (cwd / "knowledge.txt").write_text(README_KNOWLEDGE)
    out = {
        f"{cwd.name}/stdout": _python(
            cwd, RUN_CLI, "analyze", "data.csv", "--knowledge", "knowledge.txt",
            "--probes", "probes.txt", "--target", "sprinkler,slippery", "--out-dir", ".",
        )
    }
    for name in ("data.csv", "report.json"):
        out[f"{cwd.name}/{name}"] = (cwd / name).read_bytes()
    return out


def manifest(root: Path) -> tuple[dict[str, bytes], list[str]]:
    """Every output by name, and a message for each pair of outputs that
    should agree and does not."""
    outputs: dict[str, bytes] = {}
    mismatched = []
    for study, flags in STUDIES.items():
        twins = []
        for threads in ("1", "2"):
            got = _step(
                root, f"simulate-{study}-t{threads}", RUN_CLI,
                "simulate", *flags, "--threads", threads, "--out-dir", ".",
            )
            twins.append([data for _, data in sorted(got.items())])
            outputs.update(got)
        if twins[0] != twins[1]:
            mismatched.append(f"study {study!r} differs between --threads 1 and 2")
    runs = "../simulate-defaults-t1/runs.csv"
    outputs.update(_step(root, "aggregate", RUN_CLI, "aggregate", runs, "--out-dir", "."))
    outputs.update(_step(root, "outliers", RUN_CLI, "aggregate", runs, "--outliers"))
    agg = "../aggregate/agg.csv"
    for kind, table, y in (
        ("scatter", runs, "abs_err"), ("means", agg, "shd"), ("histogram", runs, "count")
    ):
        outputs.update(
            _step(
                root, f"plot-{kind}", RUN_CLI, "plot", table, "--kind", kind,
                "--y", y, "--output", "plot.svg", "--out-dir", ".",
            )
        )
    outputs.update(_analyze(root / "analyze", None))
    header, body = outputs["analyze/data.csv"].split(b"\n", 1)
    quoted = b",".join(b'"' + name + b'"' for name in header.split(b","))
    crlf = (quoted + b"\n" + body).replace(b"\n", b"\r\n")
    outputs.update(_analyze(root / "analyze-crlf", crlf))
    if outputs["analyze-crlf/report.json"] != outputs["analyze/report.json"]:
        mismatched.append("analyze-crlf wrote a different report.json from analyze")
    outputs.update(_step(root, "demo", RUN_CLI, "demo-sprinkler"))
    outputs.update(_step(root, "demo-flipped", RUN_CLI, "demo-sprinkler", "--flip-knowledge"))
    outputs.update(_step(root, "ges-patterns", GES_PATTERNS))
    outputs.update(_step(root, "orient-dags", ORIENT_DAGS))
    return outputs, mismatched


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="byte-manifest-") as tmp:
        outputs, mismatched = manifest(Path(tmp))
    for name, data in outputs.items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    for message in mismatched:
        print(f"error: {message}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
