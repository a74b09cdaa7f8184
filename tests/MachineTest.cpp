//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-level behaviour: virtual-time invariants, quantum independence
/// of results, background tasks of completed groups, steal-order
/// ablation, engine lifecycle edge cases, and which processor the run
/// loop selects next.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/Prng.h"

#include <algorithm>

using namespace mult;
using namespace mult::testutil;

namespace {

TEST(MachineTest, ResultsIndependentOfQuantum) {
  // The timeslice is a simulation granularity knob: it may move cycle
  // counts slightly but must never change program results.
  std::string Results[3];
  uint64_t Cycles[3];
  int I = 0;
  for (uint64_t Q : {8u, 64u, 1024u}) {
    EngineConfig C = config(4);
    C.QuantumCycles = Q;
    Engine E(C);
    Results[I] = evalPrint(E, R"lisp(
      (define (tree n) (if (< n 2) 1 (+ (future (tree (- n 1)))
                                        (tree (- n 2)))))
      (tree 13)
    )lisp");
    Cycles[I] = E.stats().ElapsedCycles;
    ++I;
  }
  EXPECT_EQ(Results[0], Results[1]);
  EXPECT_EQ(Results[1], Results[2]);
  EXPECT_EQ(Results[0], "377");
  // Timing should agree within the granularity slack (~quantum * procs
  // per blocking point); generous bound: 25%.
  EXPECT_LT(std::max({Cycles[0], Cycles[1], Cycles[2]}),
            std::min({Cycles[0], Cycles[1], Cycles[2]}) * 5 / 4);
}

TEST(MachineTest, ClocksAdvanceMonotonically) {
  Engine E(config(2));
  uint64_t Before = E.machine().processor(0).Clock;
  evalOk(E, "(touch (future (+ 1 2)))");
  EXPECT_GT(E.machine().processor(0).Clock, Before);
  // Both processors progressed past the common start.
  EXPECT_GT(E.machine().processor(1).Clock, Before);
}

TEST(MachineTest, BusyPlusIdleAccountsForWallClock) {
  Engine E(config(4));
  evalOk(E, R"lisp(
    (define (spawn n) (if (= n 0) '() (cons (future (* n n))
                                            (spawn (- n 1)))))
    (define (drain l a) (if (null? l) a (drain (cdr l)
                                               (+ a (touch (car l))))))
    (drain (spawn 24) 0)
  )lisp");
  // Clock grows only through charged busy cycles, idle ticks and
  // rendezvous; it can never lag the recorded idle and GC time.
  expectCyclesTile(E);
}

TEST(MachineTest, BackgroundTasksOfDoneGroupsKeepRunning) {
  // A future nobody touches still runs to completion across evals
  // ("background jobs" in the paper's GC discussion).
  Engine E(config(2));
  evalOk(E, "(define cell (cons 0 '()))"
            "(define bg (future (set-car! cell 77)))");
  // The define's group is Done; the child may still be queued. Another
  // eval gives the machine time to run it.
  evalOk(E, "(let spin ((i 0)) (if (< i 5000) (spin (+ i 1)) 'ok))");
  EXPECT_EQ(evalFixnum(E, "(car cell)"), 77);
}

TEST(MachineTest, TouchingAnOrphanFutureAcrossEvals) {
  Engine E(config(1));
  evalOk(E, "(define f (future (* 21 2)))");
  // The child was never scheduled (single processor, root finished
  // first); touching it in a later eval must still produce the value.
  EXPECT_EQ(evalFixnum(E, "(touch f)"), 42);
}

TEST(MachineTest, StealOrderAblation) {
  // LIFO steals (the paper's "first cut") take the newest task — depth-
  // first-ish; FIFO takes the oldest — breadth-first. Results identical;
  // schedules differ.
  auto Run = [](StealOrder O) {
    EngineConfig C = config(4);
    C.StealPolicy = O;
    Engine E(C);
    std::string R = evalPrint(E, R"lisp(
      (define (tree n) (if (< n 2) 1 (+ (future (tree (- n 1)))
                                        (tree (- n 2)))))
      (tree 13)
    )lisp");
    return std::make_pair(R, E.stats().ElapsedCycles);
  };
  auto [LifoR, LifoC] = Run(StealOrder::Lifo);
  auto [FifoR, FifoC] = Run(StealOrder::Fifo);
  EXPECT_EQ(LifoR, FifoR);
  EXPECT_EQ(LifoR, "377");
  EXPECT_NE(LifoC, FifoC) << "different policies should schedule "
                             "differently on this workload";
}

TEST(MachineTest, ManyProcessorsOnTinyProgramStillWork) {
  EngineConfig C = config(16);
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, "(+ 20 22)"), 42);
}

TEST(MachineTest, EngineSurvivesManyEvals) {
  // Task and group bookkeeping must not corrupt across many small runs.
  Engine E(config(2));
  for (int I = 0; I < 200; ++I)
    ASSERT_EQ(evalFixnum(E, "(touch (future " + std::to_string(I) + "))"),
              I);
  // Tasks are recycled: the registry stays small.
  EXPECT_LT(E.taskSlotCount(), 64u);
}

TEST(MachineTest, CyclesExecutedSumsProcessorBusyCycles) {
  Engine E(config(4));
  evalOk(E, "(define (tree n) (if (< n 2) 1 (+ (future (tree (- n 1)))"
            " (tree (- n 2)))))");
  E.resetStats();
  EXPECT_EQ(evalFixnum(E, "(tree 12)"), 233);
  uint64_t Busy = 0;
  for (unsigned I = 0; I < E.machine().numProcessors(); ++I)
    Busy += E.machine().processor(I).busyCycles();
  EXPECT_GT(Busy, 0u);
  EXPECT_EQ(E.stats().CyclesExecuted, Busy);
}

TEST(MachineTest, DeadlockReportsBlockedRoot) {
  Engine E(config(2));
  EvalResult R = E.eval("(semaphore-p (make-semaphore))");
  EXPECT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::Deadlock));
  // The engine is still usable afterwards.
  EXPECT_EQ(evalFixnum(E, "(+ 1 1)"), 2);
}

TEST(MachineTest, TouchOfNeverRunnableFutureDeadlocks) {
  // A future whose task was killed can never resolve: touching it is a
  // deadlock, detected rather than hung.
  Engine E(config(1));
  EvalResult R = E.eval(
      "(define f (future (semaphore-p (make-semaphore)))) (touch f)");
  EXPECT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::Deadlock));
}

TEST(MachineTest, PerProcessorChunksReduceLockTraffic) {
  // Allocation mostly hits the local chunk: global-lock acquisitions are
  // a small fraction of allocations (paper section 2.1.2's point).
  Engine E(config(1));
  evalOk(E, "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
            "(build 4000)");
  uint64_t Acquisitions = E.heap().globalLockAcquisitions();
  EXPECT_LT(Acquisitions, 4000u / 100)
      << "one refill per ~1300 pairs expected with 4096-word chunks";
}

TEST(MachineTest, VirtualTimeUnaffectedByHostLoad) {
  // Two runs of the same program have identical virtual timing: this is
  // the determinism the substitution in DESIGN.md promises.
  auto Cycles = [] {
    Engine E(config(8));
    evalOk(E, R"lisp(
      (define (tree n) (if (< n 2) 1 (+ (future (tree (- n 1)))
                                        (tree (- n 2)))))
      (tree 14)
    )lisp");
    return E.stats().ElapsedCycles;
  };
  EXPECT_EQ(Cycles(), Cycles());
}

// --- Selection ---------------------------------------------------------

constexpr uint64_t Never = ~uint64_t(0);

/// The selection by its definition: the live processor with the smallest
/// (key, id), a parked processor keyed by its wake clock; the runner-up
/// key is the next (key, id) pair's key, plus 1 when its id is higher.
std::pair<unsigned, uint64_t> expectedSelection(const Machine &M) {
  std::vector<std::pair<uint64_t, unsigned>> Keys;
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    if (!P.Dead)
      Keys.emplace_back(P.Parked ? P.WakeClock : P.Clock, I);
  }
  std::sort(Keys.begin(), Keys.end());
  uint64_t RunnerUp = Never;
  if (Keys.size() > 1)
    RunnerUp = Keys[1].first +
               (Keys[1].second > Keys[0].second && Keys[1].first != Never);
  return {Keys[0].second, RunnerUp};
}

struct ProcRow {
  uint64_t Clock;
  bool Parked = false;
  uint64_t WakeClock = 0;
  bool Dead = false;
};

struct SelectionCase {
  const char *Name;
  std::vector<ProcRow> Procs;
  unsigned Id;
  uint64_t RunnerUp;
};

TEST(MachineSelectionTest, PicksTheSmallestKeyAndItsRunnerUp) {
  const SelectionCase Cases[] = {
      {"equal clocks go to the lower id", {{100}, {100}, {100}}, 0, 101},
      {"a lower-id runner-up wins its tie", {{50}, {40}}, 1, 50},
      {"a higher-id runner-up needs one cycle less", {{40}, {50}}, 0, 51},
      {"one processor has no runner-up", {{7}}, 0, Never},
      {"a parked processor is keyed by its wake clock",
       {{10, true, 300}, {200}},
       1,
       300},
      {"a parked processor can win at its wake clock",
       {{300}, {10, true, 200}, {250}},
       1,
       251},
      {"a wake clock of ~0 never gains the +1",
       {{70}, {5, true, Never}},
       0,
       Never},
      {"a wake clock of ~0 at a lower id",
       {{5, true, Never}, {70}, {9, true, Never}},
       1,
       Never},
      {"dead processors are never picked",
       {{0, false, 0, true}, {30}, {20}},
       2,
       30},
      {"dead processors are never runner-up",
       {{90}, {10, false, 0, true}, {20, false, 0, true}},
       0,
       Never},
      {"a dead processor's parked key is ignored",
       {{60}, {50, true, 55, true}, {80}, {60, true, 61}},
       0,
       62},
  };
  for (const SelectionCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    Machine M(unsigned(C.Procs.size()), 64, Never, StealOrder::Lifo);
    for (unsigned I = 0; I < C.Procs.size(); ++I) {
      Processor &P = M.processor(I);
      P.Clock = C.Procs[I].Clock;
      P.Parked = C.Procs[I].Parked;
      P.WakeClock = C.Procs[I].WakeClock;
      P.Dead = C.Procs[I].Dead;
    }
    M.invalidateOrder();
    uint64_t RunnerUp = 0;
    EXPECT_EQ(M.select(RunnerUp).Id, C.Id);
    EXPECT_EQ(RunnerUp, C.RunnerUp);
    EXPECT_EQ(expectedSelection(M), std::make_pair(C.Id, C.RunnerUp));
  }
}

TEST(MachineSelectionTest, ReinsertsTheStepperAndRebuildsAfterSetClocks) {
  Machine M(4, 64, Never, StealOrder::Lifo);
  uint64_t RunnerUp = 0;
  EXPECT_EQ(M.select(RunnerUp).Id, 0u);
  EXPECT_EQ(RunnerUp, 1u);
  // A step moves only the selected processor.
  M.processor(0).Clock += 100;
  EXPECT_EQ(M.select(RunnerUp).Id, 1u);
  EXPECT_EQ(RunnerUp, 1u);
  M.processor(1).Clock += 40;
  EXPECT_EQ(M.select(RunnerUp).Id, 2u);
  EXPECT_EQ(RunnerUp, 1u);
  // The GC rendezvous moves every clock at once.
  M.setClocks({5, 300, 1, 2});
  EXPECT_EQ(M.select(RunnerUp).Id, 2u);
  EXPECT_EQ(RunnerUp, 3u);
  EXPECT_EQ(expectedSelection(M), std::make_pair(2u, uint64_t(3)));
}

TEST(MachineSelectionTest, RebuildsAfterAFailStop) {
  Engine E(config(4));
  Machine &M = E.machine();
  M.setClocks({40, 10, 30, 20});
  uint64_t RunnerUp = 0;
  EXPECT_EQ(M.select(RunnerUp).Id, 1u);
  EXPECT_EQ(RunnerUp, 21u);
  // Killing the selected processor hands the observer role to the next
  // selection, and the order drops it for good.
  Processor &Obs = M.failStop(E, 1, 0, false);
  EXPECT_EQ(Obs.Id, 3u);
  EXPECT_EQ(M.select(RunnerUp).Id, 3u);
  EXPECT_EQ(RunnerUp, 30u);
  M.processor(3).Clock += 50;
  EXPECT_EQ(M.select(RunnerUp).Id, 2u);
  EXPECT_EQ(RunnerUp, 40u);
  EXPECT_EQ(expectedSelection(M), std::make_pair(2u, uint64_t(40)));
}

TEST(MachineSelectionTest, RebuildsAfterSettlingParkedProcessors) {
  // A sequential program on 4 processors parks the 3 idle ones; the run
  // ends by settling them, which moves clocks the order last saw as wake
  // clocks.
  Engine E(config(4));
  evalOk(E, "(let spin ((i 0)) (if (< i 3000) (spin (+ i 1)) 'ok))");
  Machine &M = E.machine();
  ASSERT_GT(M.sweepsSettled(), 0u);
  auto [Id, Expected] = expectedSelection(M);
  uint64_t RunnerUp = 0;
  EXPECT_EQ(M.select(RunnerUp).Id, Id);
  EXPECT_EQ(RunnerUp, Expected);
}

TEST(MachineSelectionTest, MatchesTheDefinitionOverRandomSteps) {
  // Steps move the selected processor (run, park, wake); now and then the
  // rendezvous or another processor moves and the order is invalidated.
  Machine M(7, 64, Never, StealOrder::Lifo);
  Prng R(26);
  for (int Step = 0; Step < 20000; ++Step) {
    uint64_t RunnerUp = 0;
    Processor &P = M.select(RunnerUp);
    ASSERT_EQ(std::make_pair(P.Id, RunnerUp), expectedSelection(M))
        << "step " << Step;
    switch (R.nextBelow(8)) {
    case 0:
      if (!P.Parked) {
        P.Parked = true;
        P.WakeClock = R.nextBelow(4) ? P.Clock + R.nextBelow(500) : Never;
      }
      break;
    case 1:
      if (P.Parked) {
        P.Parked = false;
        P.Clock = P.WakeClock == Never ? P.Clock + 1000 : P.WakeClock;
      }
      break;
    case 2:
      if (R.nextBelow(16) == 0) {
        std::vector<uint64_t> C = M.clocks();
        for (uint64_t &Clock : C)
          Clock += R.nextBelow(300);
        M.setClocks(C);
      } else if (R.nextBelow(8) == 0) {
        Processor &Q = M.processor(unsigned(R.nextBelow(7)));
        Q.Clock += R.nextBelow(200);
        Q.Parked = false;
        M.invalidateOrder();
      }
      break;
    default:
      if (!P.Parked)
        P.Clock += R.nextBelow(3) ? R.nextBelow(130) : 64;
      break;
    }
  }
}

} // namespace
