#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench.cc).

Run from the repository root:

    python3 perfbench/run.py --workload read_heavy --seed 1 --seconds 10 --trace 0

Workloads: read_heavy, write_heavy, range_scan, cold_read. The binary is
built with CMake into .bench_build/perfbench on first use. Results with
host facts and sample counts, and the Chrome trace of a --trace 1 run, land
in .bench_build/results; WAL, snapshot and segment files live in a
per-run directory under .bench_build/scratch that is removed on exit. The
last line of stdout is the run's JSON summary.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "shard", "sharded_alex.h")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "2"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    scratch = os.path.join(BUILD_ROOT, "scratch",
                           f"{args.workload}-{os.getpid()}")
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", results, "--scratch", scratch,
               "--git-sha", git_sha()]
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 3
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
