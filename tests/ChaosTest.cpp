//===----------------------------------------------------------------------===//
///
/// \file
/// Chaos harness: sweep parallel programs across fault plans and seeds,
/// asserting the engine's robustness invariants under every combination:
///
///  - determinism: the same seed and plan reproduce the same run
///    bit-for-bit (same outcome, same cycle counts, same fault count);
///  - accounting: busy + idle + GC cycles tile every processor clock, and
///    recorded() + dropped() == emitted() for the tracer;
///  - observability: every injected fault is a FaultInjected trace event;
///  - degradation: injected errors land in the breakloop (resumable or
///    killable), and the engine stays usable afterwards — the host
///    process never crashes.
///
/// The seed matrix shifts with MULT_CHAOS_SEED_BASE (the CI chaos job
/// runs several bases); failing combinations are appended to
/// $MULT_CHAOS_ARTIFACT_DIR/failing_plans.txt so any failure can be
/// replayed from its spec string.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/FaultPlan.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>

using namespace mult;
using namespace mult::testutil;

namespace {

const char *const Programs[] = {
    // Fine-grained future fan-out (the paper's fib benchmark shape).
    R"lisp(
      (define (fib n)
        (if (< n 2) n
            (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))
      (fib 13)
    )lisp",
    // Allocation-heavy list building with one coarse future.
    R"lisp(
      (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
      (define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))
      (+ (touch (future (sum (build 300)))) (sum (build 300)))
    )lisp",
    // Dining philosophers on semaphore forks (examples/philosophers
    // parameterized small). Forks are acquired in a fixed global order so
    // the program itself cannot deadlock; a proc-kill can land while a
    // philosopher holds a fork, which recovery must refuse to replay
    // (orphan: holds a semaphore).
    R"lisp(
      (define f0 (make-semaphore 1))
      (define f1 (make-semaphore 1))
      (define f2 (make-semaphore 1))
      (define (think n) (if (= n 0) 0 (+ 1 (think (- n 1)))))
      (define (dine lo hi meals)
        (if (= meals 0) 0
            (begin
              (semaphore-p lo)
              (semaphore-p hi)
              (think 30)
              (semaphore-v hi)
              (semaphore-v lo)
              (+ 1 (dine lo hi (- meals 1))))))
      (+ (touch (future (dine f0 f1 4)))
         (+ (touch (future (dine f1 f2 4)))
            (touch (future (dine f0 f2 4)))))
    )lisp",
};

/// Fault plans; %SEED% is substituted per sweep point.
const char *const PlanTemplates[] = {
    "seed=%SEED%; alloc-fail-every=23; gc-at=2000",
    "seed=%SEED%; steal-fail=0.4",
    "seed=%SEED%; queue-cap=2; stall=1@500+3000",
    "seed=%SEED%; spawn-error=2; touch-error=5",
    // Perturb the adaptive inlining-threshold controller: clamp T to the
    // extremes and wipe pending votes mid-run. Window ordinals are
    // machine-lifetime, so low ones may land in the prelude — the spread
    // covers both prelude and user-code windows deterministically.
    "seed=%SEED%; adapt-clamp=2@0,6@16,12@2; adapt-reset=9; steal-fail=0.2",
    // Fail-stop a processor mid-run: survivors must adopt the dead
    // processor's backlog (lineage re-execution or a restartable
    // processor-lost stop) and every accounting invariant must hold for
    // the dead processor too.
    "seed=%SEED%; proc-kill=1@4000",
    "seed=%SEED%; proc-kill=2@1500,0@9000; steal-fail=0.2",
    "seed=%SEED%; proc-kill=3@2500; gc-at=2500; alloc-fail-every=31",
    // Lazy-future seam splits that fail, alone and under a kill (the
    // LazyFutures knob below switches on when the plan mentions seams).
    "seed=%SEED%; seam-split-fail=1,3,7",
    "seed=%SEED%; seam-split-fail=2,4; proc-kill=1@3000",
    // Tenant fault domains: clamp the running group's heap quota mid-run
    // (the group stops with group-heap-quota and is killed below), and
    // push synthetic launches through the admission gate.
    "seed=%SEED%; quota-squeeze=1@3000",
    "seed=%SEED%; quota-squeeze=1@2500; admit-burst=8@4000",
};

std::string planFor(const char *Template, uint64_t Seed) {
  std::string S(Template);
  size_t Pos = S.find("%SEED%");
  S.replace(Pos, 6, std::to_string(Seed));
  return S;
}

uint64_t seedBase() {
  if (const char *Env = std::getenv("MULT_CHAOS_SEED_BASE"))
    return std::strtoull(Env, nullptr, 10);
  return 1;
}

/// Runs one sweep point: eval the program, resume through injected-fault
/// breakloops, kill anything still stopped, and check every invariant.
/// Returns a transcript string that must be identical across reruns.
std::string runOnce(const char *Program, const std::string &Plan) {
  EngineConfig C = config(4);
  C.HeapWords = 1 << 16; // small enough that real collections interleave
  C.EnableTracing = true;
  // Run the adaptive threshold controller under chaos too: short windows
  // so plenty close per run, giving adapt-clamp/adapt-reset clauses (and
  // every other fault) a moving controller to perturb.
  C.AdaptiveInline = true;
  C.AdaptiveWindowCycles = 512;
  // Seam-split plans need seams to exist: run those points in the global
  // lazy-futures mode (deterministically derived from the plan text).
  C.LazyFutures = Plan.find("seam-split-fail") != std::string::npos;
  C.Faults = Plan;
  Engine E(C);

  std::string Transcript;
  EvalResult R = E.eval(Program);
  for (int Resumes = 0; Resumes < 5; ++Resumes) {
    Transcript += strFormat("kind=%d error=[%s] value=%s\n",
                            static_cast<int>(R.K), R.Error.c_str(),
                            R.ok() ? valueToString(R.Val).c_str() : "-");
    if (R.K != EvalResult::Kind::RuntimeError ||
        (R.Error.find("injected-fault") == std::string::npos &&
         R.Error.find("processor-lost") == std::string::npos))
      break;
    // Injected faults and processor-lost orphan stops are restartable:
    // resume must make progress.
    R = E.resumeGroup(R.StoppedGroup, Value::falseV());
  }

  // Invariant: group states are coherent. Every stopped group is on the
  // breakloop stack; nothing is in an impossible state.
  std::vector<GroupId> Stopped = E.stoppedGroups();
  for (const Group &G : E.allGroups()) {
    if (G.State == GroupState::Stopped && !G.Internal) {
      EXPECT_NE(std::find(Stopped.begin(), Stopped.end(), G.Id),
                Stopped.end())
          << "stopped group " << G.Id << " missing from the breakloop stack";
    }
  }
  // Kill whatever is still stopped; the engine must stay usable.
  for (GroupId Id : Stopped)
    E.killGroup(Id);
  EXPECT_EQ(evalFixnum(E, "(+ 40 2)"), 42)
      << "engine unusable after the chaos run";

  // Invariant: busy + idle + GC cycles tile every processor clock, and
  // the adaptive threshold stays in bounds even when faults clamp it.
  expectCyclesTile(E);
  for (unsigned I = 0; I < 4; ++I) {
    const Processor &P = E.machine().processor(I);
    EXPECT_GE(P.Adapt.T, E.machine().adaptiveConfig().MinT)
        << "adaptive T below MinT on processor " << I;
    EXPECT_LE(P.Adapt.T, E.machine().adaptiveConfig().MaxT)
        << "adaptive T above MaxT on processor " << I;
  }

  // Invariant: trace bookkeeping balances, and every injected fault was
  // recorded (the unbounded sink drops nothing).
  const Tracer &Tr = E.tracer();
  EXPECT_EQ(Tr.recorded() + Tr.dropped(), Tr.emitted());
  uint64_t FaultEvents = 0;
  for (const TraceEvent &Ev : Tr.events())
    if (Ev.Kind == TraceEventKind::FaultInjected)
      ++FaultEvents;
  EXPECT_EQ(FaultEvents, E.stats().FaultsInjected)
      << "every injected fault must be a FaultInjected trace event";

  // Invariant: steal probes partition into successes and failures.
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.Steals + S.StealsFailed, S.StealAttempts);

  // Invariant: recovery counters are coherent. No kill, no recovery
  // footprint; recovery cycles accrue only for re-spawned tasks; the
  // machine never loses its last processor.
  if (S.ProcsKilled == 0) {
    EXPECT_EQ(S.TasksRecovered, 0u);
    EXPECT_EQ(S.TasksOrphaned, 0u);
    EXPECT_EQ(S.RecoveryCycles, 0u);
  }
  if (S.RecoveryCycles > 0) {
    EXPECT_GT(S.TasksRecovered, 0u)
        << "recovery cycles without a recovered task";
  }
  unsigned DeadProcs = 0;
  for (unsigned I = 0; I < 4; ++I)
    DeadProcs += E.machine().processor(I).Dead;
  EXPECT_EQ(DeadProcs, S.ProcsKilled);
  EXPECT_LT(DeadProcs, 4u) << "the last live processor must survive";

  Transcript += strFormat(
      "elapsed=%llu faults=%llu steals=%llu/%llu collections=%llu "
      "heapstops=%llu\n",
      static_cast<unsigned long long>(S.ElapsedCycles),
      static_cast<unsigned long long>(S.FaultsInjected),
      static_cast<unsigned long long>(S.Steals),
      static_cast<unsigned long long>(S.StealAttempts),
      static_cast<unsigned long long>(E.gcStats().Collections),
      static_cast<unsigned long long>(S.HeapExhaustedStops));
  // The recovery transcript: a given plan and seed must kill, recover and
  // orphan identically (and charge the same re-execution bill) on replay.
  Transcript += strFormat(
      "killed=%llu recovered=%llu orphaned=%llu recoverycycles=%llu\n",
      static_cast<unsigned long long>(S.ProcsKilled),
      static_cast<unsigned long long>(S.TasksRecovered),
      static_cast<unsigned long long>(S.TasksOrphaned),
      static_cast<unsigned long long>(S.RecoveryCycles));
  // Controller state is part of the reproducibility contract: same seed
  // and plan must land every processor on the same threshold.
  Transcript += strFormat(
      "adaptwindows=%llu raises=%llu lowers=%llu",
      static_cast<unsigned long long>(S.AdaptWindows),
      static_cast<unsigned long long>(S.ThresholdRaises),
      static_cast<unsigned long long>(S.ThresholdLowers));
  for (unsigned I = 0; I < 4; ++I)
    Transcript += strFormat(" t%u=%u", I, E.machine().processor(I).Adapt.T);
  Transcript += "\n";
  return Transcript;
}

void noteFailure(size_t ProgIdx, const std::string &Plan) {
  const char *Dir = std::getenv("MULT_CHAOS_ARTIFACT_DIR");
  if (!Dir)
    return;
  std::ofstream Out(std::string(Dir) + "/failing_plans.txt",
                    std::ios::app);
  Out << "program=" << ProgIdx << " MULT_FAULTS=\"" << Plan << "\"\n";
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, SweepIsDeterministicAndInvariantPreserving) {
  uint64_t Seed = GetParam();
  for (size_t Pi = 0; Pi < std::size(Programs); ++Pi) {
    for (const char *Template : PlanTemplates) {
      std::string Plan = planFor(Template, Seed);
      SCOPED_TRACE("program " + std::to_string(Pi) + " plan `" + Plan + "`");
      std::string First = runOnce(Programs[Pi], Plan);
      std::string Second = runOnce(Programs[Pi], Plan);
      EXPECT_EQ(First, Second)
          << "same seed and plan must reproduce the same run exactly";
      if (::testing::Test::HasFailure()) {
        noteFailure(Pi, Plan);
        return; // one replayable failure beats a wall of them
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(seedBase(), seedBase() + 1,
                                           seedBase() + 2));

/// A pathological plan mixing everything at once: the engine must degrade
/// gracefully, not crash, even when faults overlap.
TEST(ChaosTest, KitchenSinkPlanNeverCrashesTheHost) {
  std::string Plan =
      "seed=99; alloc-fail-every=11; gc-at=100,1000,5000; steal-fail=0.8;"
      " queue-cap=1; spawn-error=1,3; touch-error=2,7;"
      " stall=0@50+500,2@1000+2000,3@1+1;"
      " adapt-clamp=1@16,4@0,8@16; adapt-reset=2,6;"
      " proc-kill=3@900,1@4000; seam-split-fail=1,2";
  for (const char *Program : Programs) {
    SCOPED_TRACE(Program);
    runOnce(Program, Plan);
  }
}

} // namespace
