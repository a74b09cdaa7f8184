#!/usr/bin/env python3
"""CI driver for the determinacy-race detector (MULT_RACE=1).

Bench sweep: every paper-table bench run must be race-free under the
online detector (the "races" section of its ';; run-json:' record), AND
every golden key -- cycle counts and latency histograms alike -- must be
bit-identical to tools/golden_metrics.json. Trace recording costs zero
virtual time, so arming the detector must not move a single cycle; any
drift here means the detector (or its tracer hooks) leaked cost into the
simulation.

The racy/clean program suite (tests/race/*.lisp at 1, 4 and 16
processors) is a tier-1 ctest case, Programs/RaceDetectSuiteTest.*
(label oracle), not part of this script.

Typical use:

    tools/race_check.py --build-dir build
"""

import argparse
import json
import os
import subprocess
import sys

from collect_metrics import BENCHES, merge_metrics, record_metrics, run_records

FAILURES = []


def flag(msg):
    print(f"race_check: FAIL: {msg}", file=sys.stderr)
    FAILURES.append(msg)


def run(cmd, env):
    try:
        return subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            timeout=900,
        )
    except subprocess.TimeoutExpired:
        flag(f"{' '.join(cmd)} timed out")
        return None


def check_benches(build_dir, golden_path):
    with open(golden_path) as f:
        golden = json.load(f)["cycles"]
    env = dict(os.environ)
    env["MULT_METRICS"] = "1"
    env["MULT_RACE"] = "1"
    seen = {}
    for bench in BENCHES:
        exe = os.path.join(build_dir, "bench", bench)
        if not os.path.exists(exe):
            flag(f"bench binary missing: {exe}")
            continue
        proc = run([exe], env)
        if proc is None:
            continue
        if proc.returncode != 0:
            flag(f"{bench} exited {proc.returncode}")
            continue
        records = run_records(proc.stdout)
        for rec in records:
            merge_metrics(seen, record_metrics(rec, (), bench), bench)
            races = rec.get("races")
            if races is None:
                flag(f"{bench}: run '{rec['tag']}' has no races section; "
                     "is the detector on?")
            elif races["races"]:
                flag(f"{bench}: detector reports {races['races']} races in "
                     f"'{rec['tag']}' -- benches must be race-free")
        if not records:
            flag(f"{bench}: no ';; run-json:' records")
        print(f"race_check: {bench}: {len(records)} runs checked")

    for key, want in sorted(golden.items()):
        if key not in seen:
            flag(f"golden key missing from bench output: {key}")
        elif seen[key] != want:
            flag(f"drift with detector armed: {key} golden={want!r} "
                 f"got={seen[key]!r} -- the detector must cost zero "
                 "virtual time")
    extra = set(seen) - set(golden)
    if extra:
        flag(f"bench output has keys absent from golden file: "
             f"{', '.join(sorted(extra))}")
    print(f"race_check: {len(seen)} golden keys checked against "
          f"{golden_path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--golden", default=None,
                    help="golden metrics file (default: tools/golden_metrics.json)")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    golden = args.golden or os.path.join(root, "tools", "golden_metrics.json")

    check_benches(args.build_dir, golden)

    if FAILURES:
        print(f"race_check: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("race_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
