#!/usr/bin/env python3
"""Builds fleet_bench from the source tree and runs one workload.

Run from the root of the repository:

    python3 fleetbench/run.py --workload dense --seed 42 --seconds 15 --trace 0
    python3 fleetbench/run.py --self-test

The build goes to .bench_build/fleetbench (Release, the library compiled
from src/ with the benchmark's own CMakeLists.txt). Build output goes to
stderr; stdout is fleet_bench's, whose last line is the JSON result. With
--trace 1 the spans are written to .bench_build/fleetbench/spans/. The exit
code is fleet_bench's, or 1 if the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")


def build() -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "fleet_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("fleetbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="42")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")

    if not build():
        return 1
    command = [os.path.join(BUILD, "fleet_bench")]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", args.seed,
                    "--seconds", args.seconds, "--trace", args.trace]
        if args.trace != "0":
            spans = os.path.join(BUILD, "spans")
            os.makedirs(spans, exist_ok=True)
            command += ["--spans", os.path.join(
                spans, "%s-seed%s.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
