#!/usr/bin/env python3
"""Virtual-time regression dashboard for the Mul-T bench suite.

The bench binaries print, when run with MULT_METRICS=1, one stable
machine-readable record per measured engine run, a single JSON object:

    ;; run-json: {"tag": ..., "core": {...}, "histo": {...}, ...}

Its "core" counters always appear ("elapsed-cycles" is tracked as the
"<tag>" key), and so do the virtual-time latency histograms (tracked as
"<tag>@<name>" keys, value = "n=... sum=... p50=... p90=... p99=...
max=..."). One section per optional layer appears only when the run
armed that layer:

  * "faults" (--faults SPEC) and "checkpoint" (--checkpoint N) counters
    become "<tag>#<name>" keys;
  * "tenant" (--tenant SPEC and/or --supervise POLICY) counters become
    "<tag>~<name>" keys and its own histograms "<tag>~histo:<name>"
    ("n=... sum=... p50=... p99=... max=...").

A layer section in a run that did not arm it is a hard failure: a stray
environment variable (or an engine bug) molested the measurement.

Every bench also prints one ";; host: <tag> ..." line of host wall-clock
phase times. Host time is machine-dependent noise: this script skips
those lines and *fails loudly* if a host key ever shows up in a golden
file or a collected map -- host time must never be golden-compared.

Virtual cycles are deterministic (the engine simulates its processors in
virtual time), so any drift between commits is a real semantic or
cost-model change, never host noise. The same holds under an armed fault
plan: fault counts and cycles are seed-deterministic. This script:

  * runs every bench in BENCHES (or the one bench binary named by
    --bench) and collects the tag -> cycles map,
  * writes it to <out-dir>/BENCH_<sha>.json for the current commit
    (not with --bench: one bench is not a commit's record),
  * optionally checks it against a golden file (--check, exit 1 on ANY
    drift -- virtual time has no tolerance band),
  * optionally rewrites the golden file (--update-golden),
  * renders the accumulated BENCH_*.json history as a markdown or CSV
    trend table (--render).

--check is the virtual-time oracle; tier-1 runs it as one ctest case per
bench binary (`ctest -L oracle`). Each bench's dormant keys must equal
its section of the golden file (a bench with none has no golden keys),
and a MULT_TRACE=1 MULT_RACE=1 run of the same bench, started alongside
the dormant one, must print the same run-json records once their "races"
sections, each with 0 races, are dropped: tracing and race detection cost
no virtual time.

Host timing has exactly one sanctioned home here: `--host` runs the
dispatch bench (bench_dispatch, which prints ";; host-dispatch: <workload>
ns-per-vcycle=<v>" lines) several times, takes the per-workload *median*
across runs (the in-process minimum is noise-robust within a run;
the cross-run median defends against a whole run landing on a busy host),
and records it in BENCH_host.json. A >25% regression against the previous
BENCH_host.json WARNS loudly but never gates: host speed is a tracked
number, not a promise. Host keys still must never reach golden files.

Typical uses:

    tools/collect_metrics.py --build-dir build
    tools/collect_metrics.py --build-dir build --check tools/golden_metrics.json
    tools/collect_metrics.py --build-dir build --bench bench_table4_apps \
        --check tools/golden_metrics.json
    tools/collect_metrics.py --build-dir build --update-golden tools/golden_metrics.json
    tools/collect_metrics.py --render markdown
    tools/collect_metrics.py --build-dir build --host
"""

import argparse
import itertools
import json
import os
import re
import signal
import subprocess
import sys

# Behave like a normal Unix filter when piped into `head`.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

BENCHES = [
    "bench_table1_future_ops",
    "bench_table2_boyer_seq",
    "bench_table3_boyer_par",
    "bench_table4_apps",
    "bench_inlining_threshold",
    "bench_touch_overhead",
    "bench_gc_parallel",
    "bench_dispatch",
    "bench_micro_ops",
]

RUN_JSON_LINE = re.compile(r"^;; run-json: (\{.*\})\s*$")
HOST_LINE = re.compile(r"^;; host: (\S+) ")
HOST_SETUP = re.compile(r" setup-ns=[0-9]+ ")
HOST_DISPATCH_LINE = re.compile(
    r"^;; host-dispatch: (\S+) ns-per-vcycle=([0-9.]+)\s*$")


def assert_no_host_keys(keys, where):
    """Host wall-clock data is noise; it must never be golden-compared."""
    leaked = [k for k in keys
              if k.split("@")[-1] == "host" or "host-" in k or "-ns" in k]
    if leaked:
        fail(f"host-time key(s) leaked into {where}: {', '.join(sorted(leaked))}"
             " -- ';; host:' lines are machine-dependent noise and must never"
             " be golden-compared")


def fail(msg):
    print(f"collect_metrics: {msg}", file=sys.stderr)
    sys.exit(1)


def current_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "worktree"


# The histogram summary strings keep the fields their golden and history
# keys have always had.
HISTO_FIELDS = ("n", "sum", "p50", "p90", "p99", "max")
TENANT_HISTO_FIELDS = ("n", "sum", "p50", "p99", "max")
# Layer section -> (key separator, flag that arms it).
LAYERS = {"faults": ("#", "--faults"), "checkpoint": ("#", "--checkpoint"),
          "tenant": ("~", "--tenant/--supervise")}


def run_records(text):
    """The ';; run-json:' records in a bench's stdout, in order."""
    return [json.loads(m.group(1))
            for m in map(RUN_JSON_LINE.match, text.splitlines()) if m]


def histo_summary(h, fields):
    return " ".join(f"{k}={h[k]}" for k in fields)


def record_metrics(rec, armed, where):
    """The dashboard keys of one run-json record. `armed` names the layer
    sections the caller armed; any other layer section fails loudly."""
    tag = rec["tag"]
    out = {tag: rec["core"]["elapsed-cycles"]}
    for name, h in rec["histo"].items():
        out[f"{tag}@{name}"] = histo_summary(h, HISTO_FIELDS)
    for layer, (sep, flag) in LAYERS.items():
        section = rec.get(layer)
        if section is None:
            continue
        if layer not in armed:
            fail(f"{where} printed a '{layer}' section for '{tag}' but no "
                 f"{flag} was given; the run is not measuring the "
                 "unmolested engine")
        for name, value in section.items():
            if name == "histo":
                for hname, h in value.items():
                    out[f"{tag}{sep}histo:{hname}"] = histo_summary(
                        h, TENANT_HISTO_FIELDS)
            else:
                out[f"{tag}{sep}{name}"] = value
    return out


def merge_metrics(into, new, where):
    """Adds `new` to `into`. Some benches legitimately re-run a
    configuration (table 2 re-measures two rows for the overhead summary);
    identical repeats are fine, conflicting ones mean the tag is
    ambiguous."""
    for key, value in new.items():
        if key in into and into[key] != value:
            fail(f"{where}: '{key}' reported twice with different values "
                 f"({into[key]!r} vs {value!r})")
        into[key] = value


def bench_env(faults=None, checkpoint=None, tenant=None, supervise=None):
    """The environment the benches run in, and the layers it arms.

    With faults set, every bench runs under that MULT_FAULTS plan; with
    checkpoint set, MULT_CHECKPOINT arms the checkpointed-recovery policy
    for the faulted runs (the recovery-cost sweep recipe in
    EXPERIMENTS.md); with tenant and/or supervise set, MULT_QUOTA /
    MULT_SUPERVISE arm the tenant fault-domain layer. Each armed layer's
    run-json section joins the map (see the module docstring).
    """
    env = dict(os.environ, MULT_METRICS="1")
    # Tracing changes nothing about virtual time, but keep runs minimal
    # and independent of the caller's environment. MULT_FAULTS *does*
    # change virtual time, so it is stripped unless --faults asks for it:
    # the default dashboard must measure the unmolested engine.
    # MULT_CHECKPOINT also changes virtual time (captures are charged),
    # so it is stripped unless --checkpoint asks for it.
    # MULT_QUOTA/MULT_SUPERVISE change virtual time once a quota trips
    # (stops, grace GCs), so they are stripped unless --tenant/--supervise
    # ask for them.
    # MULT_RACE is virtual-time-neutral too (--check's armed run relies
    # on that), but it slows the host and its "races" section is not this
    # dashboard's input, so strip it as well.
    for var in ("MULT_TRACE", "MULT_PROFILE", "MULT_TRACE_MODE",
                "MULT_TRACE_DIR", "MULT_FAULTS", "MULT_CHECKPOINT",
                "MULT_RACE", "MULT_QUOTA", "MULT_SUPERVISE"):
        env.pop(var, None)
    if faults:
        env["MULT_FAULTS"] = faults
    if checkpoint:
        env["MULT_CHECKPOINT"] = str(checkpoint)
    if tenant:
        env["MULT_QUOTA"] = tenant
    if supervise:
        env["MULT_SUPERVISE"] = supervise
    armed = {layer for layer, on in (("faults", faults),
                                     ("checkpoint", checkpoint),
                                     ("tenant", tenant or supervise)) if on}
    return env, armed


def start_bench(build_dir, bench, env, label=""):
    """Starts one bench binary; bench_records collects it."""
    exe = os.path.join(build_dir, "bench", bench)
    if not os.path.exists(exe):
        fail(f"bench binary not found: {exe} (build the repo first)")
    print(f"  running {bench}{label} ...", flush=True)
    return subprocess.Popen([exe], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def bench_records(proc, bench, need_records):
    """Waits for a bench started by start_bench; returns its run-json
    records.

    A bench that prints records must also print ';; host:' lines, each
    carrying setup-ns=; their values are noise and are dropped.
    """
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(stdout + stderr)
        fail(f"{bench} exited with status {proc.returncode}")
    records = run_records(stdout)
    if need_records and not records:
        fail(f"{bench} printed no ';; run-json:' records -- "
             "was it built without MULT_METRICS support?")
    host = [l for l in stdout.splitlines() if HOST_LINE.match(l)]
    if records and not host:
        fail(f"{bench} printed no ';; host:' line -- every bench must "
             "report its host wall-clock phases")
    if any(not HOST_SETUP.search(l) for l in host):
        fail(f"{bench} printed a ';; host:' line without setup-ns=")
    return records


def flat_record(rec):
    """A run-json record as {"section.key": value} (and its "tag")."""
    out = {"tag": rec.get("tag")} if rec else {}
    for name, section in rec.items():
        if isinstance(section, dict):
            out.update((f"{name}.{k}", v) for k, v in section.items())
    return out


def start_armed(build_dir, bench, env):
    """Starts the oracle's second run, with the tracer and the race
    detector armed. It is independent of the dormant run, so the two
    run side by side."""
    return start_bench(build_dir, bench,
                       dict(env, MULT_TRACE="1", MULT_RACE="1"),
                       " (MULT_TRACE=1 MULT_RACE=1)")


def check_armed(proc, bench, dormant):
    """Collects the run start_armed began: the bench's records must equal
    the dormant ones once the "races" section is dropped, and every
    "races" count must be 0. Returns the number of failures."""
    armed = bench_records(proc, bench, False)
    racy = [r["tag"] for r in armed if r.pop("races", {"races": -1})["races"]]
    for tag in racy:
        print(f"  RACES    {tag}: races reported, or no races section")
    for d, a in itertools.zip_longest(dormant, armed, fillvalue={}):
        fd, fa = flat_record(d), flat_record(a)
        changed = [f"{k}: {fd.get(k)} -> {fa.get(k)}"
                   for k in sorted(set(fd) | set(fa)) if fd.get(k) != fa.get(k)]
        if changed:
            print(f"  ARMED    {fd.get('tag', fa.get('tag'))}: "
                  + "; ".join(changed))
    failures = len(racy) + (armed != dormant)
    print(f"{'FAIL' if failures else 'OK'}: {bench}'s {len(armed)} "
          "MULT_TRACE=1 MULT_RACE=1 records against its dormant ones")
    return failures


def median(values):
    vs = sorted(values)
    n = len(vs)
    return vs[n // 2] if n % 2 else (vs[n // 2 - 1] + vs[n // 2]) / 2.0


def run_host_bench(build_dir, runs):
    """Run bench_dispatch `runs` times; median ns/virtual-cycle per workload.

    Returns {workload: ns}. A nonzero exit from the bench is a hard
    failure: the binary exits 1 when a workload's virtual cycles or result
    differ across repetitions, which is a determinism bug, not noise.
    """
    exe = os.path.join(build_dir, "bench", "bench_dispatch")
    if not os.path.exists(exe):
        fail(f"bench binary not found: {exe} (build the repo first)")
    samples = {}
    for i in range(runs):
        print(f"  host run {i + 1}/{runs} ...", flush=True)
        proc = subprocess.run([exe], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"bench_dispatch exited with status {proc.returncode} "
                 "(nondeterministic virtual time?)")
        found = 0
        for line in proc.stdout.splitlines():
            m = HOST_DISPATCH_LINE.match(line)
            if m:
                samples.setdefault(m.group(1), []).append(float(m.group(2)))
                found += 1
        if not found:
            fail("bench_dispatch printed no ';; host-dispatch:' lines")
    return {w: round(median(vs), 3) for w, vs in samples.items()}


def host_mode(args, commit):
    """Collect host dispatch timings into BENCH_host.json (never gates)."""
    data = run_host_bench(args.build_dir, args.host_runs)
    out_path = os.path.join(args.out_dir, "BENCH_host.json")
    prev = None
    try:
        with open(out_path) as f:
            prev = json.load(f).get("workloads")
    except (OSError, json.JSONDecodeError):
        pass

    print(f"  {'workload':<14} {'ns/vcycle':>9}")
    for workload in sorted(data):
        print(f"  {workload:<14} {data[workload]:>7.3f}ns")

    # Regression check: warn loudly, never gate. Host ns/virtual-cycle is
    # machine-dependent; a slower container must not block a PR, but a real
    # dispatch regression should be impossible to miss in the log.
    if prev:
        for workload in sorted(data):
            now = data[workload]
            was = prev.get(workload)
            if not (isinstance(was, (int, float)) and was > 0 and now):
                continue
            rel = (now - was) / was
            if rel > 0.25:
                print(f"WARNING: {workload} host time regressed "
                      f"{100 * rel:+.0f}% ({was:.3f} -> {now:.3f} "
                      "ns/vcycle) vs the previous BENCH_host.json -- "
                      "host noise or a real dispatch regression? "
                      "(warning only; host time never gates)")

    os.makedirs(args.out_dir, exist_ok=True)
    record = {"commit": commit, "runs": args.host_runs, "workloads": data}
    with open(out_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"  wrote {out_path}")


def load_golden(golden_path):
    """The golden file's sections: {bench: {key: value}}."""
    try:
        with open(golden_path) as f:
            golden = json.load(f)["benches"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        fail(f"cannot read golden file {golden_path}: {e}")
    for section in golden.values():
        assert_no_host_keys(section, f"the golden file {golden_path}")
    return golden


def check_against_golden(cycles, golden, golden_path):
    """Exact diff of one bench's keys against its golden section. Returns
    the number of drifts."""
    drifts = 0
    for tag in sorted(set(golden) | set(cycles)):
        want, got = golden.get(tag), cycles.get(tag)
        if want == got:
            continue
        drifts += 1
        if want is None:
            print(f"  NEW      {tag}: {got} (not in golden file)")
        elif got is None:
            print(f"  MISSING  {tag}: golden expects {want}")
        elif isinstance(want, str) or isinstance(got, str):
            # Histogram summary strings: name the fields that moved, not
            # just the whole line.
            wf = dict(p.split("=", 1) for p in str(want).split() if "=" in p)
            gf = dict(p.split("=", 1) for p in str(got).split() if "=" in p)
            changed = [f"{k}: {wf.get(k, '?')} -> {gf.get(k, '?')}"
                       for k in sorted(set(wf) | set(gf))
                       if wf.get(k) != gf.get(k)]
            detail = "; ".join(changed) if changed else f"{want!r} -> {got!r}"
            print(f"  DRIFT    {tag}: {detail}")
        else:
            delta = got - want
            print(f"  DRIFT    {tag}: {want} -> {got} ({delta:+d} cycles, "
                  f"{100.0 * delta / want:+.2f}%)")
    if drifts:
        print(f"FAIL: {drifts} virtual-time metric(s) drifted from "
              f"{golden_path}.")
        print("If the change is intentional, refresh with: "
              f"tools/collect_metrics.py --update-golden {golden_path}")
    else:
        print(f"OK: all {len(cycles)} virtual-time metrics match "
              f"{golden_path}.")
    return drifts


def load_history(out_dir):
    """All BENCH_*.json in out_dir, oldest first by recorded sequence."""
    entries = []
    if not os.path.isdir(out_dir):
        return entries
    for name in os.listdir(out_dir):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(out_dir, name)
        try:
            with open(path) as f:
                data = json.load(f)
            if "cycles" not in data:
                continue  # BENCH_host.json: host timing, not virtual time
            entries.append((data.get("sequence", 0), data))
        except (OSError, json.JSONDecodeError):
            print(f"  (skipping unreadable {path})", file=sys.stderr)
    entries.sort(key=lambda e: e[0])
    return [data for _, data in entries]


def render(history, fmt, out):
    if not history:
        fail("no BENCH_*.json files to render; run the collector first")
    tags = sorted({t for entry in history for t in entry["cycles"]})
    commits = [entry["commit"] for entry in history]
    if fmt == "csv":
        out.write("tag," + ",".join(commits) + "\n")
        for tag in tags:
            row = [str(entry["cycles"].get(tag, "")) for entry in history]
            out.write(tag + "," + ",".join(row) + "\n")
        return
    # Markdown: one row per tag, one column per commit, plus the delta of
    # the newest commit against the previous one.
    out.write("| benchmark | " + " | ".join(commits) + " | latest delta |\n")
    out.write("|---|" + "---|" * (len(commits) + 1) + "\n")
    for tag in tags:
        cells = []
        for entry in history:
            v = entry["cycles"].get(tag)
            cells.append(f"{v}" if v is not None else "--")
        delta = "--"
        if len(history) >= 2:
            prev = history[-2]["cycles"].get(tag)
            last = history[-1]["cycles"].get(tag)
            if isinstance(prev, int) and isinstance(last, int):
                d = last - prev
                delta = "0" if d == 0 else f"{d:+d} ({100.0 * d / prev:+.2f}%)"
            elif prev is not None and last is not None:
                delta = "same" if prev == last else "changed"
        out.write(f"| {tag} | " + " | ".join(cells) + f" | {delta} |\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory containing bench/ binaries")
    ap.add_argument("--out-dir", default="tools/metrics",
                    help="directory for per-commit BENCH_<sha>.json files")
    ap.add_argument("--commit", default=None,
                    help="commit label (default: git rev-parse --short HEAD)")
    ap.add_argument("--check", metavar="GOLDEN",
                    help="the oracle: diff each bench against its section "
                         "of a golden metrics file, then require a "
                         "MULT_TRACE=1 MULT_RACE=1 rerun to print the same "
                         "records with no races; exit 1 on any difference")
    ap.add_argument("--bench", metavar="NAME", default=None,
                    help="run only this bench binary (any bench_* under "
                         "<build-dir>/bench) and write no history record; "
                         "tier-1 runs --bench NAME --check GOLDEN per bench")
    ap.add_argument("--update-golden", metavar="GOLDEN",
                    help="rewrite the golden metrics file from this run")
    ap.add_argument("--render", choices=["markdown", "csv"], default=None,
                    help="render the BENCH_*.json history and exit "
                         "(does not run benches)")
    ap.add_argument("--faults", metavar="SPEC", default=None,
                    help="run every bench under this MULT_FAULTS plan and "
                         "collect the run-json 'faults' counters as "
                         "'<tag>#<name>' keys (do not --check fault runs "
                         "against the faultless golden file)")
    ap.add_argument("--checkpoint", metavar="N", type=int, default=None,
                    help="arm MULT_CHECKPOINT=N for the faulted runs so "
                         "kills recover from checkpoints; requires --faults "
                         "(checkpointing changes virtual time and must stay "
                         "off the golden dashboard)")
    ap.add_argument("--tenant", metavar="SPEC", default=None,
                    help="run every bench under this MULT_QUOTA spec and "
                         "collect the run-json 'tenant' counters as "
                         "'<tag>~<name>' keys (do not --check tenant runs "
                         "against the untenanted golden file)")
    ap.add_argument("--supervise", metavar="POLICY", default=None,
                    help="arm MULT_SUPERVISE=POLICY for the runs (implies "
                         "tenant counter collection; combinable with "
                         "--tenant)")
    ap.add_argument("--host", action="store_true",
                    help="run bench_dispatch and record median host "
                         "ns/virtual-cycle per workload in BENCH_host.json "
                         "(warns on >25%% regression, never gates; host keys "
                         "stay out of golden files)")
    ap.add_argument("--host-runs", metavar="N", type=int, default=5,
                    help="process runs to take the median over with --host "
                         "(default 5)")
    args = ap.parse_args()
    if args.host and (args.check or args.update_golden or args.faults
                      or args.tenant or args.supervise or args.render):
        fail("--host is exclusive: host timing must never mix with the "
             "golden virtual-time dashboard")
    if args.checkpoint and not args.faults:
        fail("--checkpoint requires --faults: checkpoint captures are "
             "charged in virtual time, so an unfaulted checkpointed run "
             "would drift from the golden file by design")

    if args.render:
        render(load_history(args.out_dir), args.render, sys.stdout)
        return

    commit = args.commit or current_commit()
    if args.host:
        host_mode(args, commit)
        return
    if args.faults and not args.commit:
        commit += "+faults"  # keep fault runs apart in the history
    if (args.tenant or args.supervise) and not args.commit:
        commit += "+tenant"  # keep tenant runs apart in the history
    print(f"collecting virtual-time metrics for {commit}")
    if args.faults:
        print(f"  fault plan: {args.faults}")
    if args.checkpoint:
        print(f"  checkpoint-every: {args.checkpoint}")
    if args.tenant:
        print(f"  tenant quota: {args.tenant}")
    if args.supervise:
        print(f"  supervise policy: {args.supervise}")
    env, armed = bench_env(args.faults, args.checkpoint, args.tenant,
                           args.supervise)
    golden = load_golden(args.check) if args.check else {}
    per_bench, cycles, failures = {}, {}, 0
    for bench in [args.bench] if args.bench else BENCHES:
        proc = start_bench(args.build_dir, bench, env)
        armed_proc = (start_armed(args.build_dir, bench, env)
                      if args.check else None)
        try:
            records = bench_records(proc, bench, bench in BENCHES)
        except BaseException:
            if armed_proc:
                armed_proc.kill()
                armed_proc.wait()
            raise
        metrics = per_bench[bench] = {}
        for rec in records:
            merge_metrics(metrics, record_metrics(rec, armed, bench), bench)
        merge_metrics(cycles, metrics, bench)
        if not args.check:
            continue
        if bench in BENCHES or bench in golden:
            failures += check_against_golden(
                metrics, golden.get(bench, {}), args.check)
        failures += check_armed(armed_proc, bench, records)
    assert_no_host_keys(cycles, "the collected metrics map")
    print(f"  {len(cycles)} metrics collected")

    if not args.bench:
        os.makedirs(args.out_dir, exist_ok=True)
        history = load_history(args.out_dir)
        sequence = max((e.get("sequence", 0) for e in history),
                       default=0) + 1
        record = {"commit": commit, "sequence": sequence, "cycles": cycles}
        out_path = os.path.join(args.out_dir, f"BENCH_{commit}.json")
        with open(out_path, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"  wrote {out_path}")

    if args.update_golden:
        sections = load_golden(args.update_golden) if args.bench else {}
        sections.update(per_bench)
        with open(args.update_golden, "w") as f:
            json.dump({"benches": sections}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"  wrote {args.update_golden}")

    if args.check:
        sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
