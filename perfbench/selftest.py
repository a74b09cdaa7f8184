#!/usr/bin/env python3
"""Self-tests of the host-time benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, on short runs of every workload:
  - every metric BENCHMARK.json declares is printed, with its unit;
  - every operation passes on the default seed (so every pin is met);
  - sim.vcycles, vm.instructions, sched.steal_attempts and
    obs.trace_events repeat exactly across two traced runs of one seed;
  - a second seed changes session-churn's inputs, not its operation count;
  - --record reproduces pins.inc and the mini-compiler reference;
  - the benchmark refuses an inherited MULT_* variable, and fails without
    a result when the library sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
DEFAULT_SEED = 1
REPEATING = ["sim.vcycles", "vm.instructions", "sched.steal_attempts",
             "obs.trace_events"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, env=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None, {}
    info = dict(l.split(": ", 1) for l in lines[:-1]
                if re.match(r"^[a-z-]+: ", l))
    return json.loads(lines[-1]), info


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for w in (x["name"] for x in spec["workloads"]):
        traced = []
        for trace in (0, 1, 1):
            res, _ = result(run(w, DEFAULT_SEED, trace))
            tag = "%s trace=%d" % (w, trace)
            check(res is not None, tag + ": run produced a result")
            if res is None:
                continue
            got = res["metrics"]
            want = {m["name"]: m["unit"] for m in declared[trace]}
            check(set(got) == set(want)
                  and all(got[k]["unit"] == u for k, u in want.items()),
                  tag + ": prints every declared metric with its unit")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] > 0,
                  tag + ": every operation passes (%d attempted, %d failed)"
                  % (res["attempted"], res["failed"]))
            if trace:
                traced.append(got)
        if len(traced) == 2:
            same = all(traced[0][k]["value"] == traced[1][k]["value"]
                       for k in REPEATING)
            check(same, w + ": " + ", ".join(REPEATING) + " repeat exactly")

    (r1, i1), (r2, i2) = (result(run("session-churn", s, 0))
                          for s in (DEFAULT_SEED, DEFAULT_SEED + 1))
    if r1 and r2:
        check(i1["inputs"] != i2["inputs"],
              "session-churn: a second seed changes the inputs")
        per_pass = [re.search(r"ops-per-pass=(\d+)", i["passes"]).group(1)
                    for i in (i1, i2)]
        check(per_pass[0] == per_pass[1],
              "session-churn: a second seed keeps the operation count")
        check(r2["correct"], "session-churn: every operation passes on "
              "a second seed")

    harness = os.path.join(ROOT, ".bench_build", "perfbench")
    recorded = []
    for w in (x["name"] for x in spec["workloads"]):
        out = subprocess.run([harness, "--workload", w, "--record"],
                             stdout=subprocess.PIPE, text=True).stdout
        recorded += out.splitlines()
    with open(os.path.join(HERE, "pins.inc")) as f:
        pins = f.read().splitlines()
    check([l for l in recorded if not l.lstrip().startswith("//")] == pins,
          "--record reproduces pins.inc")
    with open(os.path.join(HERE, "perfbench.cpp")) as f:
        ref = re.search(r'MiniCompilerRef\[\] = "([^"]*)"', f.read()).group(1)
    check(any(l.endswith("sequential reference: " + ref) for l in recorded),
          "mini-compiler reference equals its sequential elaboration")

    env = dict(os.environ, MULT_DISPATCH="switch")
    proc = run("boyer-seq", DEFAULT_SEED, 0, env=env)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "refuses to run with MULT_DISPATCH set")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("boyer-seq", DEFAULT_SEED, 0, cwd=bare)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "fails without a result when the library sources are missing")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
