#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (and the simulator sources it compiles) into
.bench_build/ at the repository root, runs one workload and passes the
benchmark's output through: the last line of stdout is the JSON result.
A traced run also writes its spans to .bench_out/. Build output goes to
stderr. Exits non-zero without a result line when the build fails, and
with the benchmark's own code otherwise (1 when an output check failed).
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-matrix", "long-closed", "serving")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "qei_perfbench")
# The benchmark stops itself after --seconds plus at most one pass;
# this only guards against a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure, then bring the benchmark binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
              BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "qei_perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--queries", type=int, default=0,
                        help="override every World's query count (tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.queries:
        cmd += ["--queries", str(args.queries)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 4
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
