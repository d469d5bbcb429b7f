#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload corpus_replay --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (CMake, into .bench_build/perfbench at the
checkout root; the first build compiles the simulator layers), then runs
one workload and relays its output. The last stdout line is the result
object. Build output goes to stderr. Exits non-zero, printing no result,
when the build fails; see perfbench/README.md for the workloads and
metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("corpus_replay", "fault_campaign", "long_horizon")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def step(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    # Configuring every time is cheap once configured, and recovers from
    # a configure step that failed half way.
    if not step(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in 1..120")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", os.path.join(BUILD, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
