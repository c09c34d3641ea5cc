#!/usr/bin/env python3
"""Builds and runs the Feisu session benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the engine
from src/) into .bench_build/perfbench; later runs only re-check that build.
Traced runs write their spans as Chrome trace-event JSON into .bench_out/.
Everything the program prints goes to stdout: a context line, then, last,
the result object {"correct", "attempted", "failed", "metrics"}. A failed
build or run exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "feisu_perfbench")
# A run must end within 180 s; the program itself stops well before this.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def git_sha():
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(OUT_DIR, ROOT),
           "--git-sha", git_sha()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        err = timeout.stderr or b""
        sys.stderr.write(err.decode() if isinstance(err, bytes) else err)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        sys.exit("perfbench: run failed with code %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
