#!/usr/bin/env python3
"""Builds and runs the BioNav serving benchmark.

    python3 navbench/run.py --workload zipf_explore --seed 1 --trace 0
    python3 navbench/run.py --all --seed 1      # every workload, both modes
    python3 navbench/run.py --test              # the benchmark's unit tests

Run from the root of a checkout. The benchmark (navbench/main.cc) is built
from this checkout's sources into .bench_build (or $CARGO_TARGET_DIR) with
CMake, Release. Its output goes to stdout; the last line of a run is the
JSON result. Build output goes to stderr. Exits non-zero without a result
when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["zipf_explore", "cold_tail", "idle_resume"]


def build(build_dir, targets):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    # Write a fresh build's objects back now, not during the measurement.
    os.sync()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not (args.workload or args.all or args.test):
        parser.error("one of --workload, --all or --test is required")

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir, ["navbench_tests"] if args.test else ["navbench"])
    except (subprocess.CalledProcessError, OSError) as err:
        print("navbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.test:
        return subprocess.run(
            [os.path.join(build_dir, "navbench_tests")]).returncode

    binary = os.path.join(build_dir, "navbench")
    out_dir = os.path.join(root, ".bench_out")
    runs = ([(w, t) for t in ("0", "1") for w in WORKLOADS] if args.all
            else [(args.workload, args.trace)])
    for workload, trace in runs:
        code = subprocess.run(
            [binary, "--workload", workload, "--seed", args.seed,
             "--seconds", args.seconds, "--trace", trace,
             "--out", out_dir]).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
