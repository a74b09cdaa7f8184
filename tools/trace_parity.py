#!/usr/bin/env python3
"""Checks that tracing moves no cycle and no counter in any bench.

Runs every bench binary in <build-dir>/bench twice with MULT_METRICS=1:
once dormant and once with MULT_TRACE=1. A dormant run parks idle
processors and charges their empty steal sweeps in closed form; a traced
run keeps the per-sweep loop, because the tracer observes every probe.
Tracing costs no virtual time, so the traced run is the oracle: each
';; run-json:' record must be byte-identical between the two runs once
any "commit" field is dropped.

Typical use:

    tools/trace_parity.py --build-dir build
"""

import argparse
import glob
import os
import re
import subprocess
import sys

from collect_metrics import RUN_JSON_LINE

COMMIT_FIELD = re.compile(r'"commit":"[^"]*",?')


def records(exe, traced):
    env = dict(os.environ, MULT_METRICS="1")
    env.pop("MULT_TRACE", None)
    if traced:
        env["MULT_TRACE"] = "1"
    proc = subprocess.run([exe], env=env, capture_output=True, text=True,
                          check=True)
    return [COMMIT_FIELD.sub("", line)
            for line in proc.stdout.splitlines() if RUN_JSON_LINE.match(line)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    args = ap.parse_args()

    exes = sorted(glob.glob(os.path.join(args.build_dir, "bench", "bench_*")))
    if not exes:
        sys.exit(f"no bench binaries under {args.build_dir}/bench")
    failed = 0
    for exe in exes:
        name = os.path.basename(exe)
        dormant, traced = records(exe, False), records(exe, True)
        if dormant == traced:
            print(f"OK   {name}: {len(dormant)} run-json records")
            continue
        failed += 1
        print(f"FAIL {name}: {len(dormant)} dormant vs {len(traced)} traced "
              f"records")
        for d, t in zip(dormant, traced):
            if d != t:
                print(f"  dormant: {d}\n  traced:  {t}")
                break
    if failed:
        sys.exit(f"{failed} bench(es) differ between dormant and traced runs")


if __name__ == "__main__":
    main()
