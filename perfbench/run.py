#!/usr/bin/env python3
"""Builds the benchmark from the sources of this checkout and runs one workload.

    python3 perfbench/run.py --workload tpcc|olap|htap --seed N --seconds S --trace 0|1

The build goes to .bench_build/ at the checkout root (Release, only the
libraries the benchmark links). Build output goes to stderr, so the last line
on stdout is the benchmark's JSON result. The exit code is the benchmark's:
non-zero when the build fails, an answer is wrong or the run times out.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; stop the benchmark a little before that.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    try:
        # stdout passes straight through: the benchmark's last line is the
        # result the caller parses.
        return subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
