#!/usr/bin/env python3
"""CI driver for the determinacy-race detector (MULT_RACE=1).

Two halves, both required for a green run:

  1. Bench sweep: every paper-table bench run must be race-free under the
     online detector (the "races" section of its ';; run-json:' record),
     AND every golden key -- cycle counts and latency histograms alike --
     must be bit-identical to tools/golden_metrics.json. Trace recording
     costs zero virtual time, so arming the detector must not move a
     single cycle; any drift here means the detector (or its tracer
     hooks) leaked cost into the simulation.

  2. Racy-program suite: each tests/race/racy_*.lisp must be flagged
     (>= 1 race, report naming BOTH accesses), and each
     tests/race/clean_*.lisp must be race-free, at every processor
     count in --procs (default 1, 4, 16). Races are logical
     (series-parallel) facts, so they must be detected even at 1 proc.

Typical use:

    tools/race_check.py --build-dir build
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

from collect_metrics import BENCHES, merge_metrics, record_metrics, run_records

# searched, not matched: REPL output lines carry a "mul-t> " prompt prefix
RACES_LINE = re.compile(r"\braces: (\d+)")
# One side of a race report: "write by task 3 (spawned at f+4) at cycle ..."
ACCESS_LINE = re.compile(r"\b(read|write)\s+by task \d+ \(.*\) at cycle \d+")

FAILURES = []


def flag(msg):
    print(f"race_check: FAIL: {msg}", file=sys.stderr)
    FAILURES.append(msg)


def run(cmd, env, stdin_text=None):
    try:
        return subprocess.run(
            cmd,
            input=stdin_text,
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


def check_program(repl, path, procs):
    """Run one tests/race/*.lisp through the REPL; return (races, report_ok)."""
    env = dict(os.environ)
    env["MULT_RACE"] = "1"
    with open(path) as f:
        text = f.read()
    # Threshold 1000000: the engine inlines when queue depth >= threshold,
    # so a huge threshold forces eager task spawning (real parallelism).
    proc = run([repl, str(procs), "1000000"], env,
               stdin_text=text + "\n:races\n:exit\n")
    if proc is None:
        return None, False
    if proc.returncode != 0:
        flag(f"{path} (procs={procs}): repl exited {proc.returncode}")
        return None, False
    if "error:" in proc.stdout:
        flag(f"{path} (procs={procs}): eval error:\n{proc.stdout}")
        return None, False
    races = None
    accesses = 0
    for line in proc.stdout.splitlines():
        m = RACES_LINE.search(line)
        if m:
            races = int(m.group(1))
        elif ACCESS_LINE.search(line):
            accesses += 1
    if races is None:
        flag(f"{path} (procs={procs}): no ';; races:' line in :races output")
        return None, False
    # A valid report names both racing accesses: two access lines per race.
    return races, accesses >= 2


def check_suite(build_dir, suite_dir, proc_counts):
    repl = os.path.join(build_dir, "examples", "repl")
    if not os.path.exists(repl):
        flag(f"repl binary missing: {repl}")
        return
    programs = sorted(glob.glob(os.path.join(suite_dir, "*.lisp")))
    if not programs:
        flag(f"no programs found in {suite_dir}")
        return
    for path in programs:
        name = os.path.basename(path)
        racy = name.startswith("racy_")
        if not racy and not name.startswith("clean_"):
            flag(f"{path}: suite files must be racy_*.lisp or clean_*.lisp")
            continue
        for procs in proc_counts:
            races, report_ok = check_program(repl, path, procs)
            if races is None:
                continue
            if racy:
                if races == 0:
                    flag(f"{name} (procs={procs}): racy program NOT flagged")
                elif not report_ok:
                    flag(f"{name} (procs={procs}): race report does not "
                         f"name both accesses")
                else:
                    print(f"race_check: {name} (procs={procs}): "
                          f"flagged ({races} races)")
            else:
                if races != 0:
                    flag(f"{name} (procs={procs}): control program "
                         f"falsely flagged ({races} races)")
                else:
                    print(f"race_check: {name} (procs={procs}): race-free")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--golden", default=None,
                    help="golden metrics file (default: tools/golden_metrics.json)")
    ap.add_argument("--suite-dir", default=None,
                    help="racy/clean program directory (default: tests/race)")
    ap.add_argument("--procs", default="1,4,16",
                    help="comma-separated processor counts for the suite")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    golden = args.golden or os.path.join(root, "tools", "golden_metrics.json")
    suite = args.suite_dir or os.path.join(root, "tests", "race")
    proc_counts = [int(p) for p in args.procs.split(",") if p]

    check_benches(args.build_dir, golden)
    check_suite(args.build_dir, suite, proc_counts)

    if FAILURES:
        print(f"race_check: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("race_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
