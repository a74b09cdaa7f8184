#!/usr/bin/env python3
"""Coverage-guided fault-plan search.

Mutates deterministic fault-plan specs (fault/FaultPlan.h grammar) and runs
each mutant against a small battery of parallel programs through the REPL
binary. A mutant *survives* when it lights up behaviour no earlier plan
reached — a new exception kind, a new recovery outcome, a processor dying,
a deadlock report, and so on. Surviving plans are appended to
tests/plans/surviving_plans.txt so the chaos suite (and future hands) can
replay them with MULT_FAULTS.

A crash of the host process is the jackpot: the offending plan and program
are written to tests/plans/crashing_plans.txt and the tool exits nonzero.

Usage:
  tools/chaos_search.py --build-dir build [--iterations 200] [--seed 1]
                        [--out tests/plans]

Stdlib only; the RNG is seeded, so a given (seed, iterations, binary)
triple reproduces the same search.
"""

import argparse
import os
import random
import re
import subprocess
import sys

PROGRAMS = [
    # Fine-grained future fan-out.
    "(begin (define (fib n) (if (< n 2) n (+ (touch (future (fib (- n 1))))"
    " (fib (- n 2))))) (fib 15))",
    # Parallel mergesort shape: coarse futures over list halves.
    "(begin"
    " (define (build n) (if (= n 0) '() (cons (remainder (* n 17) 101)"
    " (build (- n 1)))))"
    " (define (merge a b)"
    "   (cond ((null? a) b) ((null? b) a)"
    "         ((< (car a) (car b)) (cons (car a) (merge (cdr a) b)))"
    "         (else (cons (car b) (merge a (cdr b))))))"
    " (define (take l n) (if (= n 0) '() (cons (car l) (take (cdr l) (- n 1)))))"
    " (define (drop l n) (if (= n 0) l (drop (cdr l) (- n 1))))"
    " (define (msort l n)"
    "   (if (< n 2) l"
    "       (let ((h (quotient n 2)))"
    "         (let ((a (future (msort (take l h) h))))"
    "           (merge (msort (drop l h) (- n h)) (touch a))))))"
    " (length (msort (build 64) 64)))",
    # Semaphore contention (dining-philosophers shape, fixed fork order).
    "(begin"
    " (define f0 (make-semaphore 1)) (define f1 (make-semaphore 1))"
    " (define f2 (make-semaphore 1))"
    " (define (think n) (if (= n 0) 0 (+ 1 (think (- n 1)))))"
    " (define (dine lo hi m)"
    "   (if (= m 0) 0"
    "       (begin (semaphore-p lo) (semaphore-p hi) (think 25)"
    "              (semaphore-v hi) (semaphore-v lo) (+ 1 (dine lo hi (- m 1))))))"
    " (+ (touch (future (dine f0 f1 3)))"
    "    (+ (touch (future (dine f1 f2 3))) (touch (future (dine f0 f2 3))))))",
]

SEED_PLANS = [
    "alloc-fail-every=23; gc-at=2000",
    "steal-fail=0.4",
    "queue-cap=2; stall=1@500+3000",
    "spawn-error=2; touch-error=5",
    "proc-kill=1@4000",
    "seam-split-fail=1,3",
    # Byzantine: processor 1 corrupts a finishing resolve; every resolve
    # is cross-checked, so the lie is caught deterministically.
    "proc-lie=1@4000; cross-check=1",
    # GC-phase kill: the mark lands a few hundred cycles after a forced
    # collection begins, so the victim dies between its root scan and
    # copy phases and survivors inherit its copy work.
    "gc-at=3000; proc-kill=1@3200",
    # Tenant fault domains: clamp a group's heap quota to half its live
    # account mid-run (arms the quota layer if dormant) and push synthetic
    # launches through the admission gate.
    "quota-squeeze=1@3000",
    "admit-burst=6@2000",
    "quota-squeeze=1@2500; admit-burst=8@4000",
]


def clauses_of(plan):
    return [c.strip() for c in plan.split(";") if c.strip()]


def format_plan(clauses):
    return "; ".join(clauses)


class Mutator:
    """Grammar-aware plan mutations. Every operation keeps the spec
    parseable (the REPL would otherwise reject it and teach us nothing)."""

    def __init__(self, rng):
        self.rng = rng

    def gc_phase_kill(self):
        """A gc-at / proc-kill pair whose kill mark lands inside the
        collection's rendezvous window, exercising the mid-GC death
        protocol (victim scanned, survivors inherit its copy work)."""
        r = self.rng
        g = r.randint(1000, 20000)
        return "gc-at=%d; proc-kill=%d@%d" % (g, r.randint(0, 3),
                                              g + r.randint(150, 400))

    def fresh_clause(self):
        r = self.rng
        return r.choice([
            lambda: "alloc-fail=%d" % r.randint(1, 40),
            lambda: "alloc-fail-every=%d" % r.randint(5, 200),
            lambda: "gc-at=%d" % r.randint(1, 20000),
            lambda: "spawn-error=%d" % r.randint(1, 20),
            lambda: "touch-error=%d" % r.randint(1, 30),
            lambda: "steal-fail=%.2f" % r.uniform(0.05, 1.0),
            lambda: "steal-fail-at=%d" % r.randint(1, 50),
            lambda: "queue-cap=%d" % r.randint(1, 8),
            lambda: "stall=%d@%d+%d" % (r.randint(0, 3), r.randint(0, 8000),
                                        r.randint(1, 8000)),
            lambda: "adapt-clamp=%d@%d" % (r.randint(1, 12),
                                           r.choice([0, 2, 16])),
            lambda: "adapt-reset=%d" % r.randint(1, 12),
            lambda: "proc-kill=%d@%d" % (r.randint(0, 3),
                                         r.randint(100, 30000)),
            lambda: "proc-lie=%d@%d" % (r.randint(0, 3),
                                        r.randint(100, 30000)),
            lambda: "cross-check=%.2f" % r.uniform(0.0, 1.0),
            self.gc_phase_kill,
            lambda: "seam-split-fail=%s" % ",".join(
                str(r.randint(1, 30)) for _ in range(r.randint(1, 3))),
            lambda: "quota-squeeze=%d@%d" % (r.randint(1, 4),
                                             r.randint(500, 20000)),
            lambda: "admit-burst=%d@%d" % (r.randint(1, 12),
                                           r.randint(500, 20000)),
        ])()

    def perturb_number(self, clause):
        nums = list(re.finditer(r"\d+", clause))
        if not nums:
            return clause
        m = self.rng.choice(nums)
        old = int(m.group())
        new = max(0 if clause.startswith(("proc-kill", "proc-lie",
                                          "stall")) else 1,
                  int(old * self.rng.choice([0.5, 0.8, 1.25, 2, 3])) +
                  self.rng.randint(-2, 2))
        return clause[:m.start()] + str(new) + clause[m.end():]

    def mutate(self, plan):
        cs = clauses_of(plan)
        op = self.rng.random()
        if op < 0.35 or not cs:
            cs.append(self.fresh_clause())
        elif op < 0.55 and len(cs) > 1:
            cs.pop(self.rng.randrange(len(cs)))
        else:
            i = self.rng.randrange(len(cs))
            cs[i] = self.perturb_number(cs[i])
        # Dedup by clause key; the parser last-writer-wins some keys and
        # merges others, so keeping one of each keeps mutations meaningful.
        seen = {}
        for c in cs:
            seen[c.split("=", 1)[0]] = c
        return format_plan(seen.values())


def coverage_of(outcome_text, stats_text, procs_text):
    """Fingerprint what a run reached: outcome classes, fault kinds seen,
    recovery and degradation footprints, processor deaths."""
    keys = set()
    for marker in ("processor-lost", "injected-fault", "deadlock",
                   "heap exhausted", "cycle-budget-exhausted",
                   "wait cycle", "exception", "byzantine-detected",
                   "group-heap-quota", "group-cycle-budget",
                   "supervisor-gave-up", "group-shed", "admission-rejected"):
        if marker in outcome_text:
            keys.add("outcome:" + marker)
    if re.search(r"^mul-t> \d+", outcome_text, re.M):
        keys.add("outcome:value")
    m = re.search(r"robustness: (\d+) faults injected", stats_text)
    if m:
        keys.add("faults:" + ("some" if int(m.group(1)) else "none"))
    m = re.search(r"recovery: (\d+) procs killed, (\d+) tasks recovered,"
                  r" (\d+) orphaned", stats_text)
    if m:
        killed, recovered, orphaned = (int(g) for g in m.groups())
        keys.add("recovery:killed=%d" % min(killed, 3))
        keys.add("recovery:recovered=" + ("yes" if recovered else "no"))
        keys.add("recovery:orphaned=" + ("yes" if orphaned else "no"))
    m = re.search(r"checkpoints: (\d+) taken, \d+ capture cycles, (\d+)"
                  r" tasks restored", stats_text)
    if m:
        taken, restored = (int(g) for g in m.groups())
        keys.add("checkpoint:taken=" + ("yes" if taken else "no"))
        keys.add("checkpoint:restored=" + ("yes" if restored else "no"))
    m = re.search(r"byzantine: (\d+) lies told, (\d+) cross-checks,"
                  r" (\d+) detected", stats_text)
    if m:
        lies, checks, detected = (int(g) for g in m.groups())
        keys.add("byzantine:lies=" + ("yes" if lies else "no"))
        keys.add("byzantine:checks=" + ("yes" if checks else "no"))
        keys.add("byzantine:detected=" + ("yes" if detected else "no"))
    m = re.search(r"tenant: (\d+) quota stops, (\d+) budget stops,"
                  r" (\d+) grace collections, (\d+) shed", stats_text)
    if m:
        quota, budget, grace, shed = (int(g) for g in m.groups())
        keys.add("tenant:quota-stop=" + ("yes" if quota else "no"))
        keys.add("tenant:budget-stop=" + ("yes" if budget else "no"))
        keys.add("tenant:grace-gc=" + ("yes" if grace else "no"))
        keys.add("tenant:shed=" + ("yes" if shed else "no"))
    m = re.search(r"supervisor: (\d+) restarts, (\d+) gave up,"
                  r" (\d+) escalations", stats_text)
    if m:
        restarts, gaveup, escalated = (int(g) for g in m.groups())
        keys.add("supervisor:restart-taken=" + ("yes" if restarts else "no"))
        keys.add("supervisor:gave-up=" + ("yes" if gaveup else "no"))
        keys.add("supervisor:backoff-escalated="
                 + ("yes" if escalated else "no"))
    m = re.search(r"admission: (\d+) admitted, (\d+) queued, (\d+) rejected",
                  stats_text)
    if m:
        admitted, queued, rejected = (int(g) for g in m.groups())
        keys.add("admission:admitted=" + ("yes" if admitted else "no"))
        keys.add("admission:queued=" + ("yes" if queued else "no"))
        keys.add("admission:rejected=" + ("yes" if rejected else "no"))
    for marker in ("holds a semaphore", "performed I/O", "no spawn lineage",
                   "stack split by a seam steal"):
        if marker in outcome_text:
            keys.add("orphan:" + marker)
    keys.add("deadprocs:%d" % procs_text.count(" dead "))
    if "collections" in stats_text:
        m = re.search(r"gc: (\d+) collections", stats_text)
        if m:
            keys.add("gc:" + ("some" if int(m.group(1)) else "none"))
    return keys


def run_point(repl, program, plan, timeout=60):
    # Tenant clauses get a live admission gate (so admit-burst can queue
    # and reject, not just admit) and an armed supervisor (so its stats
    # lines render); plain plans keep the layer dormant.
    pre = ""
    if "quota-squeeze" in plan or "admit-burst" in plan:
        pre = ":quota live=2;queue=2\n:supervise restart:max=2,backoff=512\n"
    script = pre + ":faults %s\n%s\n:stats\n:procs\n:exit\n" % (plan, program)
    # Arm the checkpoint policy so kill plans exercise restore-from-
    # checkpoint (and its coverage keys) instead of only spawn-replay.
    env = dict(os.environ, MULT_CHECKPOINT="2000")
    try:
        p = subprocess.run([repl], input=script, capture_output=True,
                           text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    if p.returncode != 0:
        return None, "crash rc=%d" % p.returncode
    out = p.stdout
    # Split the transcript at the :stats command echo-free boundary: the
    # stats block starts at the dispatch table header.
    stats_at = out.find("per-processor virtual time")
    procs_at = out.find("proc  state")
    outcome = out[:stats_at if stats_at >= 0 else len(out)]
    stats = out[stats_at:procs_at if procs_at >= 0 else len(out)] \
        if stats_at >= 0 else ""
    procs = out[procs_at:] if procs_at >= 0 else ""
    return coverage_of(outcome, stats, procs), None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--iterations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="tests/plans")
    args = ap.parse_args()

    repl = os.path.join(args.build_dir, "examples", "repl")
    if not os.path.exists(repl):
        sys.exit("no REPL binary at %s (build first)" % repl)
    os.makedirs(args.out, exist_ok=True)

    rng = random.Random(args.seed)
    mut = Mutator(rng)
    corpus = list(SEED_PLANS)
    seen_coverage = set()
    survivors = []
    crashes = []

    # Baseline: the seed corpus establishes the already-reached set.
    for plan in corpus:
        for prog in PROGRAMS:
            cov, err = run_point(repl, prog, plan)
            if err:
                crashes.append((plan, prog, err))
            else:
                seen_coverage |= cov

    for i in range(args.iterations):
        parent = rng.choice(corpus)
        plan = mut.mutate(parent)
        new_keys = set()
        for prog in PROGRAMS:
            cov, err = run_point(repl, prog, plan)
            if err:
                crashes.append((plan, prog, err))
                continue
            new_keys |= cov - seen_coverage
        if new_keys:
            seen_coverage |= new_keys
            corpus.append(plan)
            survivors.append((plan, sorted(new_keys)))
            print("[%3d] SURVIVOR %-60s -> %s" %
                  (i, plan, ", ".join(sorted(new_keys))))
        if crashes:
            break

    if survivors:
        path = os.path.join(args.out, "surviving_plans.txt")
        with open(path, "a") as f:
            for plan, keys in survivors:
                f.write("MULT_FAULTS=\"%s\"  # %s\n" % (plan, " ".join(keys)))
        print("appended %d surviving plan(s) to %s" % (len(survivors), path))
    print("coverage: %d keys reached" % len(seen_coverage))

    if crashes:
        path = os.path.join(args.out, "crashing_plans.txt")
        with open(path, "a") as f:
            for plan, prog, err in crashes:
                f.write("%s  MULT_FAULTS=\"%s\"  program=%r\n"
                        % (err, plan, prog))
        sys.exit("HOST CRASH/TIMEOUT: %d point(s) recorded in %s"
                 % (len(crashes), path))


if __name__ == "__main__":
    main()
