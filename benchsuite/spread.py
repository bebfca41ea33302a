#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (benchsuite/README.md).

    python3 benchsuite/spread.py [--runs 10] [--first-seed 1]
                                 [--workloads a,b] [--out runs.json]

Runs run.py --trace 0 once per seed on each workload and prints, per
workload and metric, the median, the quartile spread (Q3 - Q1) / median
as statistics.quantiles(values, n=4) gives the quartiles, and that spread
as a share of the metric's bound in BENCHMARK.json. The benchmark aims to
keep every spread below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="also write every run's metrics here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    failed = False
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                doc = json.loads(lines[-2]) if len(lines) > 1 else {}
                failed_checks = [c for c in doc.get("checks", [])
                                 if not c["ok"]]
                print(f"{workload} seed {seed}: run failed {failed_checks}",
                      file=sys.stderr)
                failed = True
                continue
            runs[workload].append(
                {k: v["value"] for k, v in result["metrics"].items()})

    print(f"{'workload':16} {'metric':20} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'of bound':>8}")
    for workload, values in runs.items():
        if len(values) < 2:
            continue
        for metric, bound in bounds.items():
            series = [v[metric] for v in values]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            print(f"{workload:16} {metric:20} {median:12.6g} {spread:8.2%} "
                  f"{bound:6.2f} {spread / bound:8.0%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
