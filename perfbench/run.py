#!/usr/bin/env python3
"""Builds and runs the served-loop benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic-session --seed 1 \
        --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

The engine is compiled from the checkout's src/ tree into the directory
named by CARGO_TARGET_DIR (default .bench_build); work files (the WAL, trace
files) go to .bench_out. The last line of stdout is the run's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: engine sources (src/) not found next to perfbench/")
        sys.exit(2)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log("error: build step failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["analytic-session", "join-export"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own unit checks")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("served_bench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", ".bench_out"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: run exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(3)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
