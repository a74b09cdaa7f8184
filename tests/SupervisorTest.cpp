//===----------------------------------------------------------------------===//
///
/// \file
/// Tenant fault domains: per-group heap/cycle quotas, the supervision
/// layer (restart/backoff/escalate policies over groups), and admission
/// control with load shedding. Everything here runs in virtual time, so
/// every schedule — including backoff schedules — must be bit-identical
/// across reruns and across processor counts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Supervisor.h"
#include "core/Tenancy.h"
#include "support/StrUtil.h"
#include "ui/Repl.h"

#include <numeric>

using namespace mult;
using namespace mult::testutil;

namespace {

/// A launch that builds an N-pair live list (about 3N words of heap).
std::string buildListSrc(int N) {
  return strFormat("(begin"
                   " (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
                   " (length (build %d)))",
                   N);
}

/// A launch that spins N iterations of cheap arithmetic, then returns
/// 'spun. Roughly a few dozen busy cycles per iteration.
std::string spinSrc(int N) {
  return strFormat("(let loop ((i 0)) (if (= i %d) 'spun (loop (+ i 1))))", N);
}

/// A launch that allocates N garbage pairs (nothing stays live).
std::string garbageSrc(int N) {
  return strFormat("(let loop ((i 0))"
                   " (if (= i %d) 'churned (begin (cons i i) (loop (+ i 1)))))",
                   N);
}

std::string joined(const std::vector<std::string> &Lines) {
  std::string S;
  for (const std::string &L : Lines) {
    S += L;
    S += '\n';
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Policy grammar.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, PolicyGrammarRoundTrips) {
  Supervisor::Policy P;
  std::string Err;
  ASSERT_TRUE(Supervisor::parsePolicy("one-shot", P, Err)) << Err;
  EXPECT_EQ(Supervisor::formatPolicy(P), "one-shot");
  ASSERT_TRUE(Supervisor::parsePolicy("escalate", P, Err)) << Err;
  EXPECT_EQ(Supervisor::formatPolicy(P), "escalate");
  ASSERT_TRUE(Supervisor::parsePolicy("restart", P, Err)) << Err;
  EXPECT_EQ(Supervisor::formatPolicy(P), "restart:max=3,backoff=4096");
  ASSERT_TRUE(Supervisor::parsePolicy("restart:max=7,backoff=128", P, Err))
      << Err;
  EXPECT_EQ(P.MaxRestarts, 7u);
  EXPECT_EQ(P.BackoffBase, 128u);
  EXPECT_EQ(Supervisor::formatPolicy(P), "restart:max=7,backoff=128");
}

TEST(SupervisorTest, PolicyGrammarRejectsBadSpecs) {
  Supervisor::Policy P;
  std::string Err;
  EXPECT_FALSE(Supervisor::parsePolicy("retry", P, Err));
  EXPECT_NE(Err.find("unknown policy"), std::string::npos) << Err;
  EXPECT_FALSE(Supervisor::parsePolicy("restart:max=nope", P, Err));
  EXPECT_FALSE(Supervisor::parsePolicy("restart:backoff=0", P, Err));
  EXPECT_FALSE(Supervisor::parsePolicy("restart:max=99999", P, Err));
}

//===----------------------------------------------------------------------===//
// Quotas and budgets on single evals.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, HeapQuotaStopsOnlyTheOffendingGroup) {
  EngineConfig C = config(2);
  C.GroupHeapQuotaWords = 256;
  Engine E(C);
  EvalResult R = E.eval(buildListSrc(500));
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("group-heap-quota"), std::string::npos) << R.Error;
  EXPECT_EQ(E.stats().QuotaStops, 1u);
  Group *G = E.findGroup(R.StoppedGroup);
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(G->State, GroupState::Stopped);
  E.killGroup(R.StoppedGroup);
  // Other groups keep evaluating; small allocations stay inside the quota.
  EXPECT_EQ(evalFixnum(E, "(+ 1 2)"), 3);
}

TEST(SupervisorTest, CycleBudgetStopsTheGroup) {
  EngineConfig C = config(2);
  C.GroupCycleBudget = 2000;
  Engine E(C);
  EvalResult R = E.eval(spinSrc(100000));
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("group-cycle-budget"), std::string::npos) << R.Error;
  EXPECT_EQ(E.stats().BudgetStops, 1u);
  E.killGroup(R.StoppedGroup);
}

TEST(SupervisorTest, QuotaStopResumesAfterRaisingTheQuota) {
  EngineConfig C = config(2);
  C.GroupHeapQuotaWords = 256;
  Engine E(C);
  EvalResult R = E.eval(buildListSrc(400));
  ASSERT_FALSE(R.ok());
  ASSERT_NE(R.Error.find("group-heap-quota"), std::string::npos) << R.Error;
  // The stop is restartable: lift the quota and resume — the group picks
  // up where it tripped and completes with the right answer.
  ASSERT_NE(E.findGroup(R.StoppedGroup), nullptr);
  E.tenancy()->envelope(R.StoppedGroup).HeapQuotaWords = 0;
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::falseV());
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.Val.asFixnum(), 400);
}

TEST(SupervisorTest, GraceCollectionAbsorbsGarbage) {
  // The account is live + allocated-since-GC; pure garbage churn must not
  // trip the quota — the first over-quota poll buys one grace collection
  // which exact-merges the account back down.
  EngineConfig C = config(2);
  C.GroupHeapQuotaWords = 2000;
  Engine E(C);
  EvalResult R = E.eval(garbageSrc(3000));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GE(E.stats().QuotaGraceGcs, 1u);
  EXPECT_EQ(E.stats().QuotaStops, 0u);
}

TEST(SupervisorTest, ArmedButUntrippedRunsAreCycleIdentical) {
  // Quota accounting must charge no virtual time: a run under generous
  // (never-tripping) quotas takes exactly as many cycles as a dormant run.
  std::string Src = buildListSrc(200);
  uint64_t Dormant, Armed;
  {
    Engine E(config(4));
    ASSERT_TRUE(E.eval(Src).ok());
    Dormant = E.stats().ElapsedCycles;
  }
  {
    EngineConfig C = config(4);
    C.GroupHeapQuotaWords = 100000000;
    C.GroupCycleBudget = 1000000000;
    Engine E(C);
    ASSERT_TRUE(E.eval(Src).ok());
    Armed = E.stats().ElapsedCycles;
  }
  EXPECT_EQ(Dormant, Armed);
}

TEST(SupervisorTest, QuotaAccountingSurvivesRealCollections) {
  // Many real collections under a small heap: the exact merge at each GC
  // must keep the account tracking live words, so garbage-heavy work
  // under a generous quota never trips.
  EngineConfig C = config(2);
  C.HeapWords = 1 << 16;
  C.GroupHeapQuotaWords = 1 << 15;
  Engine E(C);
  EvalResult R = E.eval(garbageSrc(20000));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(E.gcStats().Collections, 0u);
  EXPECT_EQ(E.stats().QuotaStops, 0u);
}

TEST(SupervisorTest, HeapExhaustionNamesTheLargestHolder) {
  // With the tenant layer armed, a global heap-exhausted condition is
  // attributed: the condition carries the group holding the most words.
  EngineConfig C = config(2);
  C.HeapWords = 1 << 14;
  C.GroupHeapQuotaWords = 100000000; // armed, never trips
  Engine E(C);
  EvalResult R = E.eval("(let loop ((l '())) (loop (cons 1 l)))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  // Either exhaustion path (scheduler stop or to-space overflow during
  // copying) must carry the attribution suffix.
  EXPECT_NE(R.Error.find("exhaust"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("largest holder: group"), std::string::npos)
      << R.Error;
}

TEST(SupervisorTest, DisarmingDropsTheHeapAccounts) {
  // A stopped group keeps a big list live through a global, and a
  // collection attributes it to that group. Once quotas are switched off,
  // a heap-exhausted condition must not name that group as the largest
  // holder: attribution belongs to the armed layer only.
  EngineConfig C = config(2);
  C.HeapWords = 1 << 14;
  Engine E(C);
  std::string Err;
  ASSERT_TRUE(E.configureQuota("heap=100000000", Err)) << Err;
  EvalResult Stop = E.eval(
      "(begin (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
      " (define keep (build 1500)) (car 5))");
  ASSERT_EQ(static_cast<int>(Stop.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  evalOk(E, "(%gc)");
  ASSERT_TRUE(E.configureQuota("off", Err)) << Err;
  EXPECT_FALSE(E.tenantArmed());
  EvalResult R = E.eval("(let loop ((l '())) (loop (cons 1 l)))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  EXPECT_EQ(R.Error.find("largest holder"), std::string::npos) << R.Error;
  EXPECT_EQ(R.Heap.OffenderGroup, InvalidGroup);
}

//===----------------------------------------------------------------------===//
// Multi-group runs: evalGroups, admission, supervision.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, EvalGroupsRunsEveryLaunch) {
  Engine E(config(4));
  std::vector<GroupLaunch> L(3);
  L[0].Source = "(+ 1 2)";
  L[1].Source = "(+ 2 3)";
  L[2].Source = "(+ 3 4)";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 3u);
  for (int I = 0; I < 3; ++I) {
    ASSERT_TRUE(R[I].ok()) << R[I].Error;
    EXPECT_EQ(R[I].Val.asFixnum(), 3 + 2 * I);
  }
}

TEST(SupervisorTest, ThreeTenantDemoIsDeterministic) {
  // The acceptance demo: three tenants — one trips its heap quota, one
  // trips its cycle budget, the third completes correctly — and the whole
  // run (results, transcript, elapsed cycles) replays bit-identically.
  auto RunDemo = [](std::string &Transcript, uint64_t &Elapsed,
                    unsigned Procs) {
    Engine E(config(Procs));
    std::vector<GroupLaunch> L(3);
    L[0].Source = buildListSrc(500);
    L[0].HeapQuotaWords = 256;
    L[1].Source = spinSrc(100000);
    L[1].CycleBudget = 2000;
    L[2].Source = "(+ 40 2)";
    std::vector<EvalResult> R = E.evalGroups(L);
    Transcript = joined(E.tenancy()->supervisor().transcript());
    Elapsed = E.stats().ElapsedCycles;
    EXPECT_EQ(R.size(), 3u);
    EXPECT_NE(R[0].Error.find("group-heap-quota"), std::string::npos)
        << R[0].Error;
    EXPECT_NE(R[1].Error.find("group-cycle-budget"), std::string::npos)
        << R[1].Error;
    EXPECT_TRUE(R[2].ok()) << R[2].Error;
    EXPECT_EQ(R[2].Val.asFixnum(), 42);
    EXPECT_EQ(E.stats().QuotaStops, 1u);
    EXPECT_EQ(E.stats().BudgetStops, 1u);
  };
  for (unsigned Procs : {1u, 4u}) {
    std::string T0;
    uint64_t C0;
    RunDemo(T0, C0, Procs);
    EXPECT_FALSE(T0.empty());
    for (int Rerun = 0; Rerun < 4; ++Rerun) {
      std::string T1;
      uint64_t C1;
      RunDemo(T1, C1, Procs);
      EXPECT_EQ(T0, T1) << "supervisor transcript drifted on rerun";
      EXPECT_EQ(C0, C1) << "elapsed cycles drifted on rerun";
    }
  }
}

TEST(SupervisorTest, RestartResumesABudgetTrippedGroupToCompletion) {
  // A budget trip is a restartable stop; each restart opens a fresh
  // budget envelope and the group continues from where it stopped, so
  // enough restarts carry it to completion.
  Engine E(config(2));
  std::vector<GroupLaunch> L(1);
  L[0].Source = spinSrc(2000);
  L[0].CycleBudget = 8000;
  L[0].Supervise = "restart:max=50,backoff=256";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 1u);
  ASSERT_TRUE(R[0].ok()) << R[0].Error;
  EXPECT_GE(E.stats().SupervisorRestarts, 1u);
  EXPECT_EQ(E.stats().SupervisorGaveUp, 0u);
}

TEST(SupervisorTest, SupervisorGivesUpOnAPersistentQuotaViolator) {
  // A restarted group keeps its heap account (live words are facts), so a
  // quota violator trips on every attempt and the supervisor converts the
  // restart storm into a permanent supervisor-gave-up stop.
  Engine E(config(2));
  std::vector<GroupLaunch> L(1);
  L[0].Source = buildListSrc(500);
  L[0].HeapQuotaWords = 128;
  L[0].Supervise = "restart:max=2,backoff=128";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 1u);
  ASSERT_FALSE(R[0].ok());
  EXPECT_NE(R[0].Error.find("supervisor-gave-up"), std::string::npos)
      << R[0].Error;
  EXPECT_EQ(E.stats().SupervisorRestarts, 2u);
  EXPECT_EQ(E.stats().SupervisorGaveUp, 1u);
  std::string T = joined(E.tenancy()->supervisor().transcript());
  EXPECT_NE(T.find("attempt 1/2"), std::string::npos) << T;
  EXPECT_NE(T.find("attempt 2/2"), std::string::npos) << T;
  EXPECT_NE(T.find("gave-up"), std::string::npos) << T;
}

TEST(SupervisorTest, EscalatePolicyEndsTheWholeRun) {
  Engine E(config(2));
  std::vector<GroupLaunch> L(2);
  L[0].Source = "(car 5)";
  L[0].Supervise = "escalate";
  L[1].Source = spinSrc(1000000); // would run far longer than the escalation
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_FALSE(R[0].ok());
  EXPECT_FALSE(R[1].ok());
  EXPECT_NE(R[1].Error.find("run-escalated"), std::string::npos)
      << R[1].Error;
  EXPECT_EQ(E.stats().SupervisorEscalations, 1u);
}

TEST(SupervisorTest, AdmissionGateQueuesInFifoOrderAndDrains) {
  EngineConfig C = config(2);
  C.MaxLiveGroups = 1;
  C.MaxQueuedGroups = 8;
  Engine E(C);
  std::vector<GroupLaunch> L(3);
  L[0].Source = "(+ 0 1)";
  L[1].Source = "(+ 0 2)";
  L[2].Source = "(+ 0 3)";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 3u);
  for (int I = 0; I < 3; ++I) {
    ASSERT_TRUE(R[I].ok()) << R[I].Error;
    EXPECT_EQ(R[I].Val.asFixnum(), I + 1);
  }
  EXPECT_EQ(E.stats().GroupsQueued, 2u);
  EXPECT_EQ(E.stats().GroupsRejected, 0u);
}

TEST(SupervisorTest, AdmissionRejectsBeyondTheQueue) {
  EngineConfig C = config(2);
  C.MaxLiveGroups = 1;
  C.MaxQueuedGroups = 1;
  Engine E(C);
  std::vector<GroupLaunch> L(3);
  L[0].Source = "(+ 0 1)";
  L[1].Source = "(+ 0 2)";
  L[2].Source = "(+ 0 3)";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 3u);
  EXPECT_TRUE(R[0].ok()) << R[0].Error;
  EXPECT_TRUE(R[1].ok()) << R[1].Error;
  EXPECT_FALSE(R[2].ok());
  EXPECT_NE(R[2].Error.find("admission-rejected"), std::string::npos)
      << R[2].Error;
  EXPECT_EQ(E.stats().GroupsRejected, 1u);
}

TEST(SupervisorTest, BackoffScheduleIsBitDeterministicAcrossProcCounts) {
  // The supervisor works in virtual time and its transcript carries only
  // relative delays, so the backoff schedule of a single supervised
  // tenant must be bit-identical at 1, 4 and 16 processors — and across
  // reruns at each count.
  auto RunOnce = [](unsigned Procs) {
    Engine E(config(Procs));
    std::vector<GroupLaunch> L(1);
    L[0].Source = buildListSrc(500);
    L[0].HeapQuotaWords = 128;
    L[0].Supervise = "restart:max=3,backoff=512";
    E.evalGroups(L);
    return joined(E.tenancy()->supervisor().transcript());
  };
  std::string Ref = RunOnce(1);
  EXPECT_NE(Ref.find("after 512 cycles"), std::string::npos) << Ref;
  EXPECT_NE(Ref.find("after 1024 cycles"), std::string::npos) << Ref;
  EXPECT_NE(Ref.find("after 2048 cycles"), std::string::npos) << Ref;
  for (unsigned Procs : {1u, 4u, 16u})
    for (int Rerun = 0; Rerun < 5; ++Rerun)
      EXPECT_EQ(RunOnce(Procs), Ref)
          << "backoff schedule drifted at " << Procs << " processors";
}

TEST(SupervisorTest, RestartWithoutRestartableStateGivesUp) {
  // A plain exception is not a restartable stop, and without checkpoints
  // there is no record to restore from: the supervisor must give up
  // cleanly instead of wedging the run.
  Engine E(config(2));
  std::vector<GroupLaunch> L(1);
  L[0].Source = "(car 5)";
  L[0].Supervise = "restart:max=3,backoff=128";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 1u);
  ASSERT_FALSE(R[0].ok());
  EXPECT_NE(R[0].Error.find("supervisor-gave-up"), std::string::npos)
      << R[0].Error;
}

TEST(SupervisorTest, RestartRestoresFromTheSameCheckpointTwice) {
  // With checkpoints armed, a group that does real work and then raises
  // restarts from its newest checkpoint record; the error recurs, so the
  // second restart re-restores the same record, and the storm ends in
  // supervisor-gave-up.
  EngineConfig C = config(2);
  C.CheckpointEvery = 500;
  Engine E(C);
  std::vector<GroupLaunch> L(1);
  L[0].Source =
      "(begin"
      " (define (spin n) (if (= n 0) 0 (+ 1 (spin (- n 1)))))"
      " (begin (spin 2000) (car 5)))";
  L[0].Supervise = "restart:max=2,backoff=256";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 1u);
  ASSERT_FALSE(R[0].ok());
  EXPECT_NE(R[0].Error.find("supervisor-gave-up"), std::string::npos)
      << R[0].Error;
  EXPECT_EQ(E.stats().SupervisorRestarts, 2u);
  EXPECT_GE(E.stats().TasksRestored, 2u)
      << "each restart must restore the signalling task from a checkpoint";
}

TEST(SupervisorTest, SupervisedRunSurvivesAProcKill) {
  // A processor dies mid-run under supervision: the launch must still
  // reach a terminal result (recovery re-executes or the supervisor
  // restarts), and the run must replay bit-identically.
  auto RunOnce = [] {
    EngineConfig C = config(4);
    C.Faults = "proc-kill=1@4000";
    C.CheckpointEvery = 1000;
    Engine E(C);
    std::vector<GroupLaunch> L(1);
    L[0].Source = spinSrc(3000);
    L[0].Supervise = "restart:max=5,backoff=512";
    std::vector<EvalResult> R = E.evalGroups(L);
    EXPECT_EQ(R.size(), 1u);
    return strFormat("kind=%d err=[%s] elapsed=%llu restarts=%llu",
                     static_cast<int>(R[0].K), R[0].Error.c_str(),
                     (unsigned long long)E.stats().ElapsedCycles,
                     (unsigned long long)E.stats().SupervisorRestarts);
  };
  std::string First = RunOnce();
  EXPECT_EQ(First, RunOnce()) << "supervised kill run must replay exactly";
}

//===----------------------------------------------------------------------===//
// Load shedding and the fault clauses.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, MemoryPressureShedsTheQuotaViolator) {
  // Tenant A builds a big list and stops over-quota, still holding the
  // memory; tenant B then allocates until the heap runs dry. Shedding
  // must kill A (the violator) so B can finish instead of the whole run
  // dying heap-exhausted.
  EngineConfig C = config(2);
  C.HeapWords = 1 << 14;
  C.ChunkWords = 256; // keep chunk slack small next to the 16K semispace
  C.LargeObjectWords = 256; // must not exceed ChunkWords
  Engine E(C);
  std::vector<GroupLaunch> L(2);
  L[0].Source = buildListSrc(1500);
  L[0].HeapQuotaWords = 4000; // stops holding ~4000+ live words
  L[0].Priority = -1;         // shed first
  // B spins first so A is already stopped over-quota when the pressure
  // builds, then grows a live list with garbage mixed in each step.
  // Collections keep succeeding (the garbage fits in to-space) but
  // reclaim less and less as the live list approaches the semispace,
  // which trips the fruitless-collection heuristic — the shed point —
  // instead of a to-space overflow.
  L[1].Source =
      "(begin"
      " (let wait ((i 0)) (if (= i 4000) 'go (wait (+ i 1))))"
      " (let loop ((i 0) (acc '()))"
      "   (if (= i 4600) (length acc)"
      "       (begin (cons i i) (cons i i)"
      "              (loop (+ i 1) (cons i acc))))))";
  std::vector<EvalResult> R = E.evalGroups(L);
  ASSERT_EQ(R.size(), 2u);
  ASSERT_FALSE(R[0].ok());
  EXPECT_NE(R[0].Error.find("group-shed"), std::string::npos) << R[0].Error;
  EXPECT_TRUE(R[1].ok()) << R[1].Error;
  EXPECT_GE(E.stats().GroupsShed, 1u);
}

TEST(SupervisorTest, QuotaSqueezeFaultTripsTheRunningGroup) {
  EngineConfig C = config(4);
  C.Faults = "quota-squeeze=1@3000";
  Engine E(C);
  EvalResult R = E.eval(buildListSrc(400));
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("group-heap-quota"), std::string::npos) << R.Error;
  EXPECT_EQ(E.stats().QuotaStops, 1u);
  EXPECT_EQ(E.stats().FaultsInjected, 1u);
}

TEST(SupervisorTest, AdmitBurstFaultExercisesTheGate) {
  EngineConfig C = config(4);
  C.MaxLiveGroups = 2;
  C.MaxQueuedGroups = 2;
  C.Faults = "admit-burst=8@2000";
  Engine E(C);
  ASSERT_TRUE(E.eval(spinSrc(2000)).ok());
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.GroupsAdmitted + S.GroupsQueued + S.GroupsRejected, 8u);
  EXPECT_GE(S.GroupsRejected, 1u);
}

//===----------------------------------------------------------------------===//
// The REPL layer.
//===----------------------------------------------------------------------===//

class TenantReplTest : public ::testing::Test {
protected:
  TenantReplTest() : E(config(2)), Out(Buf), R(E, Out) {}

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

TEST_F(TenantReplTest, QuotaAndSuperviseCommands) {
  EXPECT_NE(line(":quota").find("quotas off"), std::string::npos);
  EXPECT_NE(line(":quota heap=1000;cycles=50000").find("quotas armed"),
            std::string::npos);
  std::string Show = line(":quota");
  EXPECT_NE(Show.find("heap=1000"), std::string::npos) << Show;
  EXPECT_NE(Show.find("cycles=50000"), std::string::npos) << Show;
  EXPECT_NE(line(":quota nonsense=1").find("bad quota spec"),
            std::string::npos);
  EXPECT_NE(line(":supervise").find("supervisor off"), std::string::npos);
  EXPECT_NE(line(":supervise restart:max=2,backoff=512")
                .find("restart:max=2,backoff=512"),
            std::string::npos);
  EXPECT_NE(line(":supervise bogus").find("bad supervise policy"),
            std::string::npos);
  EXPECT_NE(line(":supervise off").find("supervisor off"), std::string::npos);
}

TEST_F(TenantReplTest, GroupsListsTenantColumnsOnlyWhenArmed) {
  line("(+ 1 2)");
  EXPECT_EQ(line(":groups").find("heap ~"), std::string::npos)
      << "dormant :groups output must not change";
  line(":quota heap=100000");
  EXPECT_NE(line(":groups").find("heap ~"), std::string::npos);
}

TEST_F(TenantReplTest, QuotaBreakloopFlow) {
  line(":quota heap=256");
  std::string S = line(buildListSrc(500));
  EXPECT_NE(S.find("group-heap-quota"), std::string::npos) << S;
  EXPECT_NE(S.find("stopped"), std::string::npos) << S;
  EXPECT_EQ(R.prompt(), "mul-t[1]> ");
  S = line(":quota");
  EXPECT_NE(S.find("1 quota stops"), std::string::npos) << S;
  S = line(":kill");
  EXPECT_NE(S.find("killed"), std::string::npos);
  EXPECT_EQ(R.prompt(), "mul-t> ");
}

} // namespace
