#!/usr/bin/env python3
"""Entry point of the repository benchmark (benchsuite/README.md).

    python3 benchsuite/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench_suite from the checkout's sources into .bench_build/ (only the
first run compiles), runs the workload in a fresh child process, and prints
the child's JSON document followed by one summary line,
{"correct", "attempted", "failed", "metrics"}, as the last line of stdout.
The metrics are the end-to-end ones of BENCHMARK.json with --trace 0 and
the per-layer ones with --trace 1.

--workload all runs every workload, each in its own child, and prints one
JSON document for the whole set instead.

Exits 0 when every check passed, 1 otherwise (no summary line when the
build or the run itself failed).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["tao-remote", "dflt-remote", "dflt-embedded", "htap-analytics"]


def child_timeout(seconds):
    """A run measures --seconds plus ~10 s of set-ups and checks; a child
    that takes three times that is stuck and is killed (at most 170 s)."""
    return min(170.0, 3 * (seconds + 10))


def build():
    """Configures (once) and builds bench_suite; returns its path."""
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "bench_suite",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "bench_suite")


def run_child(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its document."""
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds}", f"--trace={trace}", f"--work-dir={work_dir}"],
        stdout=subprocess.PIPE, text=True, timeout=child_timeout(seconds))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: bench_suite exited {proc.returncode}")
    doc = json.loads(lines[-1])
    doc["correct"] = doc["correct"] and proc.returncode == 0
    return doc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        binary = build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        docs = [run_child(binary, name, args.seed, args.seconds, args.trace)
                for name in names]
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1

    if args.workload == "all":
        print(json.dumps({"suite": "livegraph-bench",
                          "machine": docs[0]["machine"], "seed": args.seed,
                          "seconds": args.seconds, "trace": bool(args.trace),
                          "workloads": {d["workload"]: d for d in docs}}))
        return 0 if all(d["correct"] for d in docs) else 1

    doc = docs[0]
    metrics = doc["per_layer"] if args.trace else doc["end_to_end"]
    expected = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in expected if m["name"] not in metrics]
    if missing:
        print(f"run.py: metrics missing from the run: {missing}",
              file=sys.stderr)
    correct = doc["correct"] and not missing
    print(json.dumps(doc))
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
