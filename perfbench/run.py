#!/usr/bin/env python3
"""Builds and runs the Gist diagnosis benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr, so the benchmark's own
standard output, whose last line is the JSON result, passes through
unchanged. Exits non-zero without a result if the sources are missing, the
build fails, or the benchmark fails or reports incorrect outputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gist_perfbench")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Gist sources under src/ next to perfbench/")
    env = dict(os.environ)
    # Keep the compiler's temporary files inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS, "--target", "gist_perfbench"])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if done.returncode != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        # Show what the benchmark printed, but never its result line.
        body = lines[:-1] if result is not None else lines
        sys.stderr.write("\n".join(body) + "\n")
        fail(f"benchmark failed (exit code {done.returncode})")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()

if __name__ == "__main__":
    main()
