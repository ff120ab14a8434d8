"""Regenerate the stored reference outputs for the pinned seed.

    python3 perfbench/make_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json``. Run it only when a change
to the program is meant to change these outputs beyond the check's
tolerances, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_workloads  # noqa: E402

# Runs stored per study: more than a 30-second run makes today, so a
# faster program is still checked against the reference.
REFERENCE_RUNS = {"study-oracle": 48, "study-bigdata": 400, "analyze-csv": 1}


def main(names) -> None:
    for name in names or bench_workloads.WORKLOADS:
        wl = bench_workloads.make(name)
        workdir = os.path.join(os.path.dirname(HERE), ".perfbench_out",
                               f"reference-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            wl.prepare(bench_workloads.PINNED_SEED, workdir)
            ref = wl.reference_runs(REFERENCE_RUNS[name])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
