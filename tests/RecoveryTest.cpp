//===----------------------------------------------------------------------===//
///
/// \file
/// Processor fail-stop injection and lineage-based task recovery: a
/// proc-kill clause crashes a virtual processor mid-run; the engine must
/// drain its queues onto survivors, re-execute every lost future from its
/// spawn lineage (charging the re-run to the Recovery bucket), and stop
/// the owning group with an inspectable processor-lost condition for
/// anything that cannot be replayed. See DESIGN.md "Processor fail-stop
/// and recovery".
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/FaultPlan.h"
#include "obs/Metrics.h"
#include "support/StrUtil.h"
#include "ui/Repl.h"

using namespace mult;
using namespace mult::testutil;

namespace {

EngineConfig killConfig(unsigned Procs, std::string Spec) {
  EngineConfig C = config(Procs);
  C.Faults = std::move(Spec);
  return C;
}

const char *const FibProgram = R"lisp(
  (begin
    (define (fib n)
      (if (< n 2) n
          (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))
    (fib 20))
)lisp";

/// Dining philosophers with per-fork use counters (%d = rounds). Heavy
/// semaphore traffic makes V-handoff wakes land on arbitrary processors,
/// which is what the post-mortem-wake pin below needs. Returns
/// 2 * rounds (fork 0's counter, bumped by its two neighbours).
const char *const PhilosophersTemplate = R"lisp(
  (begin
    (define n 5)
    (define rounds %d)
    (define forks (make-vector n 0))
    (define uses (make-vector n 0))
    (do ((i 0 (+ i 1))) ((= i n) #t)
      (vector-set! forks i (make-semaphore 1)))
    (define (dine who)
      (let ((li who) (ri (remainder (+ who 1) n)))
        (let ((fi (if (even? who) li ri))
              (si (if (even? who) ri li)))
          (let ((first (vector-ref forks fi))
                (second (vector-ref forks si)))
            (let loop ((r 0))
              (if (= r rounds)
                  'full
                  (begin
                    (semaphore-p first)
                    (semaphore-p second)
                    (vector-set! uses li (+ (vector-ref uses li) 1))
                    (vector-set! uses ri (+ (vector-ref uses ri) 1))
                    (semaphore-v second)
                    (semaphore-v first)
                    (loop (+ r 1)))))))))
    (define (spawn who)
      (if (= who n) '() (cons (future (dine who)) (spawn (+ who 1)))))
    (define (wait-all l)
      (if (null? l) 'done (begin (touch (car l)) (wait-all (cdr l)))))
    (wait-all (spawn 0))
    (vector-ref uses 0))
)lisp";

/// Asserts the cycle-tiling and steal-accounting invariants, dead
/// processors included (a dead board's clock is frozen, but what it
/// accrued must still tile).
void checkInvariants(Engine &E) {
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.Steals + S.StealsFailed, S.StealAttempts);
  expectCyclesTile(E);
}

TEST(RecoveryTest, KilledProcessorsTasksAreReExecuted) {
  Engine E(killConfig(4, "proc-kill=1@50000"));
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765)
      << "survivors must finish the computation";
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.ProcsKilled, 1u);
  EXPECT_TRUE(E.machine().processor(1).Dead);
  EXPECT_GE(S.TasksRecovered, 1u)
      << "the kill lands mid-fib; something must have been in flight";
  EXPECT_EQ(S.TasksOrphaned, 0u)
      << "pure fib holds no semaphores and does no I/O";
  EXPECT_GT(S.RecoveryCycles, 0u)
      << "re-executed work must be charged to the recovery bucket";
  checkInvariants(E);
}

TEST(RecoveryTest, DeadProcessorIsNeverStolenFromOrDispatchedTo) {
  EngineConfig C = killConfig(4, "proc-kill=2@30000");
  C.EnableTracing = true;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  ASSERT_TRUE(E.machine().processor(2).Dead);
  // Record order is the causal order (one host thread); per-processor
  // virtual clocks are skewed, so they cannot sequence events across
  // processors.
  const auto &Events = E.tracer().events();
  size_t KillIdx = Events.size();
  for (size_t I = 0; I < Events.size(); ++I)
    if (Events[I].Kind == TraceEventKind::ProcKilled)
      KillIdx = I;
  ASSERT_LT(KillIdx, Events.size());
  for (size_t I = KillIdx + 1; I < Events.size(); ++I) {
    const TraceEvent &Ev = Events[I];
    // After the kill, processor 2 schedules nothing: it is never stepped,
    // is skipped as a steal victim, and adopts no woken tasks. (GC
    // rendezvous events are exempt — the collector still advances every
    // clock, dead or not, so the cycle accounting tiles.)
    if (Ev.Kind == TraceEventKind::GcBegin ||
        Ev.Kind == TraceEventKind::GcEnd)
      continue;
    EXPECT_NE(Ev.Proc, 2u) << "dead processor active at clock " << Ev.Clock
                           << " (event kind "
                           << traceEventKindName(Ev.Kind) << ")";
    if (Ev.Kind == TraceEventKind::TaskResume ||
        Ev.Kind == TraceEventKind::TaskRecovered) {
      EXPECT_NE(Ev.B, 2u) << "task handed to a dead processor";
    }
  }
}

TEST(RecoveryTest, KillingTheRootTasksProcessorRecoversIt) {
  // Processor 0 hosts every evaluation's root task; killing it early in
  // the run forces the root itself through lineage recovery, and later
  // evaluations must launch on a survivor.
  Engine E(killConfig(2, "proc-kill=0@2000"));
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  EXPECT_TRUE(E.machine().processor(0).Dead);
  EXPECT_GE(E.stats().TasksRecovered, 1u);
  EXPECT_EQ(evalFixnum(E, "(+ 40 2)"), 42)
      << "fresh evaluations must launch on the survivor";
  checkInvariants(E);
}

TEST(RecoveryTest, DoubleKillLeavesOneWorkingSurvivor) {
  Engine E(killConfig(3, "proc-kill=1@20000,2@60000"));
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.ProcsKilled, 2u);
  EXPECT_TRUE(E.machine().processor(1).Dead);
  EXPECT_TRUE(E.machine().processor(2).Dead);
  EXPECT_FALSE(E.machine().processor(0).Dead);
  checkInvariants(E);
  EXPECT_EQ(evalFixnum(E, "(* 6 7)"), 42);
}

TEST(RecoveryTest, KillingTheLastLiveProcessorIsIgnored) {
  // An unrunnable machine helps nobody: the clause is consumed with no
  // effect, like unplugging the only board and plugging it back in.
  Engine E(killConfig(1, "proc-kill=0@1000"));
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  EXPECT_EQ(E.stats().ProcsKilled, 0u);
  EXPECT_FALSE(E.machine().processor(0).Dead);
  EXPECT_EQ(E.stats().FaultsInjected, 0u)
      << "a no-effect kill must not count as an injected fault";
}

TEST(RecoveryTest, BogusAndRepeatTargetsAreConsumedSilently) {
  // Processor 7 does not exist; the second kill of processor 1 finds it
  // already dead. Both clauses are consumed without effect.
  Engine E(killConfig(2, "proc-kill=7@1000,1@30000,1@40000"));
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  EXPECT_EQ(E.stats().ProcsKilled, 1u);
  checkInvariants(E);
}

TEST(RecoveryTest, KillDuringGcPressureKeepsAccounting) {
  // A forced collection and a kill at the same virtual-time mark: the
  // kill is polled at quantum granularity, so it lands before or after
  // the rendezvous, never inside it, and the clocks still tile.
  EngineConfig C = killConfig(4, "gc-at=30000; proc-kill=1@30000");
  C.HeapWords = 1 << 16; // real collections interleave too
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  EXPECT_EQ(E.stats().ProcsKilled, 1u);
  EXPECT_GT(E.gcStats().Collections, 0u);
  checkInvariants(E);
}

TEST(RecoveryTest, RecoveryDisabledOrphansEveryLostTask) {
  EngineConfig C = killConfig(4, "proc-kill=1@50000");
  C.Recovery = false;
  Engine E(C);
  EvalResult R = E.eval(FibProgram);
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("processor-lost"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("recovery disabled"), std::string::npos) << R.Error;
  EXPECT_EQ(E.stats().TasksRecovered, 0u);
  EXPECT_GE(E.stats().TasksOrphaned, 1u);
  // The stop is restartable: the simulator still holds the orphans'
  // state, so resume continues them on a survivor (deliberately breaking
  // the fail-stop fiction for the debugger's benefit).
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::falseV());
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.Val.asFixnum(), 6765);
  checkInvariants(E);
}

TEST(RecoveryTest, OrphanedGroupIsKillable) {
  EngineConfig C = killConfig(4, "proc-kill=1@50000");
  C.Recovery = false;
  Engine E(C);
  EvalResult R = E.eval(FibProgram);
  ASSERT_FALSE(R.ok());
  E.killGroup(R.StoppedGroup);
  EXPECT_EQ(evalFixnum(E, "(+ 40 2)"), 42)
      << "the engine must keep working after discarding the orphans";
}

TEST(RecoveryTest, RecoveryTranscriptIsDeterministic) {
  // Same plan, same program, two fresh engines: identical stats dump
  // (recovery line included) and an identical event trace.
  auto Run = [](std::string &StatsOut, std::vector<TraceEvent> &Events) {
    EngineConfig C = killConfig(4, "proc-kill=1@40000");
    C.EnableTracing = true;
    Engine E(C);
    EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
    StringOutStream OS(StatsOut);
    dumpMetrics(OS, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                                 E.tracer()));
    Events.assign(E.tracer().events().begin(), E.tracer().events().end());
  };
  std::string StatsA, StatsB;
  std::vector<TraceEvent> EvA, EvB;
  Run(StatsA, EvA);
  Run(StatsB, EvB);
  EXPECT_EQ(StatsA, StatsB);
  EXPECT_NE(StatsA.find("recovery: 1 procs killed"), std::string::npos)
      << StatsA;
  ASSERT_EQ(EvA.size(), EvB.size());
  for (size_t I = 0; I < EvA.size(); ++I) {
    EXPECT_TRUE(EvA[I].Kind == EvB[I].Kind && EvA[I].Proc == EvB[I].Proc &&
                EvA[I].Clock == EvB[I].Clock && EvA[I].A == EvB[I].A &&
                EvA[I].B == EvB[I].B && EvA[I].C == EvB[I].C)
        << "trace diverges at event " << I;
  }
}

TEST(RecoveryTest, RecoveryEventsNameTheLineage) {
  EngineConfig C = killConfig(4, "proc-kill=1@50000");
  C.EnableTracing = true;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  uint64_t Killed = 0, Recovered = 0;
  for (const TraceEvent &Ev : E.tracer().events()) {
    if (Ev.Kind == TraceEventKind::ProcKilled) {
      ++Killed;
      EXPECT_EQ(Ev.A, 1u) << "payload A is the dead processor";
    } else if (Ev.Kind == TraceEventKind::TaskRecovered) {
      ++Recovered;
      EXPECT_NE(Ev.B, 1u) << "payload B (new home) must be a survivor";
      EXPECT_EQ(Ev.C, 1u) << "payload C is the dead processor";
    }
  }
  EXPECT_EQ(Killed, 1u);
  EXPECT_EQ(Recovered, E.stats().TasksRecovered);
}

TEST(RecoveryTest, NoKillClauseMeansNoRecoveryFootprint) {
  // With other faults armed but no proc-kill, the recovery counters stay
  // zero and the stats dump omits the recovery line entirely (the
  // bit-identical-output guarantee for existing golden metrics).
  Engine E(killConfig(4, "steal-fail=0.3"));
  EXPECT_EQ(evalFixnum(E, FibProgram), 6765);
  EXPECT_EQ(E.stats().ProcsKilled, 0u);
  EXPECT_EQ(E.stats().RecoveryCycles, 0u);
  std::string Dump;
  StringOutStream OS(Dump);
  renderStats(OS, E.stats());
  EXPECT_EQ(Dump.find("recovery:"), std::string::npos) << Dump;
}

TEST(RecoveryTest, PostMortemWakeIsRedirectedNotOrphaned) {
  // Pin for a misclassification found with a chaos_search-style scan of
  // proc-kill cycles over a semaphore-heavy workload. The kill clause
  // marks proc 1 dead *from* cycle 8000, but the poll runs at quantum
  // granularity on the min-clock processor: another processor, already
  // past the mark mid-quantum, completes a semaphore V whose handoff
  // wakes a philosopher onto proc 1's suspended queue (Machine::homeFor
  // still saw it alive). That task arrives with SemaphoresHeld = 1 from
  // the handoff; classifying it as lost backlog used to orphan it as
  // semaphore-held and stop the group. It was never on the dead
  // processor before the mark — recovery must redirect it, intact, to a
  // survivor.
  EngineConfig C = killConfig(4, "proc-kill=1@8000");
  C.InlineThreshold = 1'000'000; // eager: every philosopher a real task
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, strFormat(PhilosophersTemplate, 300)), 600)
      << "the redirected philosopher must finish on a survivor";
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.ProcsKilled, 1u);
  EXPECT_EQ(S.WakesRedirected, 1u)
      << "exactly one post-mortem wake in this schedule";
  EXPECT_EQ(S.TasksOrphaned, 0u)
      << "a redirected wake must not be misclassified as a semaphore-held "
         "orphan";
  checkInvariants(E);
}

TEST(RecoveryTest, MultRecoveryEnvDisablesRecovery) {
  setenv("MULT_RECOVERY", "0", 1);
  Engine E(killConfig(4, "proc-kill=1@50000"));
  unsetenv("MULT_RECOVERY");
  EvalResult R = E.eval(FibProgram);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("recovery disabled"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// The REPL's :procs command.
//===----------------------------------------------------------------------===//

class RecoveryReplTest : public ::testing::Test {
protected:
  RecoveryReplTest() : E(killConfig(2, "proc-kill=1@50000")), Out(Buf),
                       R(E, Out) {}

  std::string line(std::string_view L) {
    Buf.clear();
    R.processLine(L);
    return Buf;
  }

  Engine E;
  std::string Buf;
  StringOutStream Out;
  Repl R;
};

TEST_F(RecoveryReplTest, ProcsCommandShowsLivenessAndRecovery) {
  EXPECT_EQ(line(":procs").find("dead"), std::string::npos)
      << "everything starts live";
  EXPECT_EQ(line(FibProgram), "6765\n");
  std::string S = line(":procs");
  EXPECT_NE(S.find("dead"), std::string::npos) << S;
  EXPECT_NE(S.find(";; recovery: 1 procs killed"), std::string::npos) << S;
  EXPECT_NE(line(":help").find(":procs"), std::string::npos);
}

} // namespace
