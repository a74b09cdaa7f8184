#!/usr/bin/env python3
"""Builds and runs the Mul-T host-time benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload apps-p12 --seed 1 --seconds 20 --trace 0

The first run configures and builds a Release copy of the library and the
benchmark harness in .bench_build/ (build output goes to stderr); later
runs only check that the build is current. The harness's standard output
is passed through, so its last line is the run's JSON result. A traced
run (--trace 1) also writes its spans to .bench_build/spans/.

Exits non-zero without a result when the sources are missing, the build
fails, or the harness fails or runs too long.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HARNESS_TIMEOUT_S = 170


def build(root):
    source = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = os.getcwd()
    harness = build(root)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(root, BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S)
    if proc.returncode:
        sys.exit("perfbench: harness exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
