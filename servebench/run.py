#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload read_hot --seed 1 --seconds 20 \
        --trace 0

The first run configures and compiles the library from ./src together with
the benchmark into .bench_build/servebench (or $CARGO_TARGET_DIR/servebench);
later runs only re-check the build. The benchmark's output is passed through:
its last line is the JSON result. Exits nonzero if the build fails, the run
fails or a wrong answer is seen.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    if not os.path.isdir(os.path.join(bench_dir, "..", "src")):
        print("servebench: no library sources next to the benchmark",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["read_hot", "read_cold", "write_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "servebench"))
    if not build(bench_dir, build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", os.path.join(build_dir, "out")]
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("servebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
