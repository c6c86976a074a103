#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):
  python3 e2ebench/run.py --workload serve_hot|adhoc_rw|paper_figures \\
      --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and is incremental; build output goes to stderr. The benchmark's last line
of standard output is its JSON result. The traced run (--trace 1) also
writes a Chrome trace to <build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("e2ebench: robustqo sources (../src) not found")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "e2ebench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"e2ebench: build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
