#!/usr/bin/env python3
"""Build parc_bench from source, then run it with the given arguments.

Usage (from the repository root):

    python3 benchmark/run.py --workload serve-hot --seed 1 --trace 0

The build directory is .bench_build at the repository root. The first call
configures and builds the parc library and the benchmark (RelWithDebInfo);
later calls only check that the build is up to date. Build output goes to
standard error, so the benchmark's JSON lines stay the last lines of
standard output. Every argument is passed through to parc_bench (see
benchmark/main.cpp). A failed build exits non-zero without running.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build() -> int:
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "parc_bench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print("run.py: build timed out", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return 1
    return 0


def main() -> int:
    if build() != 0:
        return 1
    try:
        done = subprocess.run([str(BUILD / "parc_bench"), *sys.argv[1:]],
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: parc_bench timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
