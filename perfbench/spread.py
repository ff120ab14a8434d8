"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--trace 0|1]
                                [--write perfbench/baseline.json]
                                [--log runs.log]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
Runs are sequential; each is one invocation of the benchmark command.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None,
                        help="also write the summary to this JSON file")
    parser.add_argument("--log", default=None,
                        help="also append every run's full output to this file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}

    summary = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]),
                    "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            if args.log:
                with open(args.log, "a", encoding="utf-8") as fh:
                    fh.write(proc.stdout)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: not correct", file=sys.stderr)
                return 1
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                flush=True)
        summary[name] = {}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            summary[name][key] = {"median": med, "q1": q1, "q3": q3,
                                  "iqr_share": share, "runs": len(vals)}
            bound = bounds.get(key)
            flag = "" if bound is None else f" bound {bound} ({share / bound:.2f} of it)"
            print(f"  {name} {key}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                  f" iqr/median {share:.4f}{flag}", flush=True)
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
