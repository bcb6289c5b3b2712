#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

    python3 bench_e2e/run.py --workload paper_default --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build (CMake, Release) goes to
.bench_build/bench_e2e, durable workloads write their WAL/checkpoint streams
under .bench_build/scratch, and --trace 1 writes the span file to
.bench_build/trace-<workload>-<seed>.json. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "bench_e2e")
# A run ends well inside these; a hung build or run is killed, not waited on.
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_e2e: no src/ next to bench_e2e/; "
                 "run from the root of a full checkout")
    steps = [["cmake", "--build", BUILD, "--target", "bench_e2e",
              "-j", str(len(os.sched_getaffinity(0)))]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [
        os.path.join(BUILD, "bench_e2e"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--scratch_dir={os.path.join(OUT, 'scratch')}",
    ]
    if args.trace:
        trace_out = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        command += ["--traced", f"--trace_out={trace_out}"]
    sys.stdout.flush()
    return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
