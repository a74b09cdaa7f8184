//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-level behaviour: virtual-time invariants, quantum independence
/// of results, background tasks of completed groups, steal-order
/// ablation, and engine lifecycle edge cases.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

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
  for (unsigned P = 0; P < 4; ++P) {
    const Processor &Proc = E.machine().processor(P);
    // Clock grows only through charged busy cycles, idle ticks and
    // rendezvous; it can never lag the recorded work.
    EXPECT_GE(Proc.Clock, Proc.BusyCycles > Proc.IdleCycles
                              ? Proc.BusyCycles - Proc.IdleCycles
                              : 0);
  }
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
    Busy += E.machine().processor(I).BusyCycles;
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

} // namespace
