#!/usr/bin/env python3
"""Builds the hignn benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the hignn library from src/ plus the perfbench binary) into
.bench_build/perfbench; later runs rebuild only what changed. Before each
measurement the benchmark's self-test runs. perfbench's stdout is passed
through, and its last line, the JSON result, is printed only after its
metric names have been checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("train_pipeline", "score_stream", "topk_stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails the run on error."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout)
    if result.returncode != 0:
        fail("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hignn sources at %s/src; run from a repository checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
               "perfbench", "perfbench_selftest"], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    build()
    run_quiet([os.path.join(BUILD_DIR, "perfbench_selftest")], 60)
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %ds" % (args.workload, RUN_TIMEOUT_S))
    lines = result.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body))
    sys.stdout.flush()
    if result.returncode not in (0, 1):
        fail("perfbench exited with %d" % result.returncode)
    try:
        metrics = json.loads(last)["metrics"]
    except (ValueError, KeyError, TypeError):
        fail("perfbench printed no JSON result line")
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != expected_metrics(args.trace == 1):
        fail("reported metrics differ from BENCHMARK.json's %s list" %
             ("per_layer" if args.trace else "end_to_end"))
    print(last)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
