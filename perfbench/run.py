#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (perfbench/src) from source.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload <uniform_batch|uniform_stream> \
      --seed <n> --seconds <s> --trace <0|1> [--smoke]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build),
relative to the current directory; the benchmark's seeded audit log and
span dump are written there too. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; any build or run
failure exits non-zero without printing one.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("uniform_batch", "uniform_stream")


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "nse_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "nse_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round: every check, seconds")
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", build_dir]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
