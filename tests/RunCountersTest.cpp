//===----------------------------------------------------------------------===//
///
/// \file
/// The engine counters Machine::run derives once per run instead of
/// counting on the dispatch path: after every way a run can end, and
/// after resetStats, the engine's instruction count is the sum of the
/// processors' and its busy-cycle count the sum of their busyCycles().
/// Also the fault path the inline touch keeps: a touch-error ordinal that
/// lands on a touch of a non-future still stops the run at that touch.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace mult;
using namespace mult::testutil;

namespace {

/// Checks the derived engine counters against the processors' tallies.
void expectRunCounters(Engine &E, const std::string &Context) {
  uint64_t Insns = 0, Busy = 0;
  for (unsigned I = 0; I < E.machine().numProcessors(); ++I) {
    Insns += E.machine().processor(I).Instructions;
    Busy += E.machine().processor(I).busyCycles();
  }
  EXPECT_EQ(E.stats().Instructions, Insns) << Context;
  EXPECT_EQ(E.stats().CyclesExecuted, Busy) << Context;
  expectCyclesTile(E, Context);
}

constexpr const char Defs[] =
    "(define (spin n) (if (= n 0) 0 (spin (- n 1))))"
    "(define (forever) (forever))"
    "(define (fib n) (if (< n 2) n"
    "  (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))"
    "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))";

struct Ending {
  const char *Name;
  EvalResult::Kind Kind;
  const char *Expr;
  bool SmallHeap = false;
  bool RunLimit = false;
};

// One program per RunStatus. Each spawns, so at P=4 the other processors
// steal, park and idle before the run ends. The heap row's survivors fit
// in the to-space at both P (at P=4 only because a collector whose chunk
// cannot refill copies into another collector's unused chunk tail), so
// the run ends by stopping the root group restartably on a fruitless
// collection, and the heap stays usable.
const Ending Endings[] = {
    {"Completed", EvalResult::Kind::Value, "(fib 12)"},
    {"GroupStopped", EvalResult::Kind::RuntimeError,
     "(begin (future (spin 3000)) (spin 2000) (error \"boom\"))"},
    {"Deadlock", EvalResult::Kind::Deadlock,
     "(begin (future (spin 3000)) (semaphore-p (make-semaphore)))"},
    {"HeapExhausted", EvalResult::Kind::HeapExhausted,
     "(begin (future (spin 3000)) (define keep (build 5000)))", true},
    {"CycleLimit", EvalResult::Kind::CycleLimit,
     "(begin (future (spin 4000)) (forever))", false, true},
};

TEST(RunCountersTest, EngineCountersSumTheProcessorsAtEveryRunEnd) {
  for (unsigned Procs : {1u, 4u}) {
    for (const Ending &End : Endings) {
      std::string Context =
          std::string(End.Name) + " at P=" + std::to_string(Procs);
      EngineConfig C = config(Procs);
      if (End.SmallHeap)
        C.HeapWords = 1 << 12;
      if (End.RunLimit)
        C.MaxRunCycles = 250'000;
      Engine E(C);
      evalOk(E, Defs);
      expectRunCounters(E, Context + ", definitions");

      E.resetStats();
      EvalResult R = E.eval(End.Expr);
      ASSERT_EQ(static_cast<int>(R.K), static_cast<int>(End.Kind))
          << Context << ": " << R.Error;
      if (End.Kind == EvalResult::Kind::HeapExhausted) {
        EXPECT_NE(R.StoppedGroup, InvalidGroup) << Context << ": " << R.Error;
        EXPECT_NE(R.Error.find("collection reclaimed no space"),
                  std::string::npos)
            << Context << ": " << R.Error;
        EXPECT_FALSE(E.heap().wedged()) << Context << ": " << R.Error;
      }
      EXPECT_GT(E.stats().Instructions, 0u) << Context;
      EXPECT_GT(E.stats().CyclesExecuted, 0u) << Context;
      expectRunCounters(E, Context);

      E.resetStats();
      EXPECT_EQ(E.stats().Instructions, 0u) << Context;
      EXPECT_EQ(E.stats().CyclesExecuted, 0u) << Context;
      expectRunCounters(E, Context + ", after reset");
      // A run after the reset counts from it. After the heap row the
      // stopped group still holds its list, so the root future cannot be
      // allocated and no run starts; the cycles the failed allocations
      // charged are still counted.
      E.eval("(spin 10)");
      expectRunCounters(E, Context + ", run after reset");
    }
  }
}

TEST(RunCountersTest, AnEvalThatCannotStartItsRunStillCountsItsCycles) {
  // A heap too small for the root future: no run starts, but the failed
  // allocations and the rescue collections were charged to processor 0.
  EngineConfig C = config(1);
  C.LoadPrelude = false;
  C.HeapWords = 4;
  C.ChunkWords = 4;
  C.LargeObjectWords = 4;
  Engine E(C);
  E.resetStats();
  EvalResult R = E.eval("(+ 1 2)");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  EXPECT_GT(E.machine().processor(0).busyCycles(), 0u);
  expectRunCounters(E, "eval");
  // The same through a multi-group launch whose every root fails.
  E.resetStats();
  GroupLaunch L;
  L.Source = "(+ 1 2)";
  std::vector<EvalResult> Rs = E.evalGroups({L});
  ASSERT_EQ(Rs.size(), 1u);
  ASSERT_EQ(static_cast<int>(Rs[0].K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  EXPECT_GT(E.machine().processor(0).busyCycles(), 0u);
  expectRunCounters(E, "evalGroups");
}

TEST(RunCountersTest, TouchErrorOnANonFutureStopsAtThatTouch) {
  // No future exists anywhere, so every touch the run executes is the
  // inline non-future touch; the armed plan must still count each one and
  // stop the group on the third.
  EngineConfig C = config(1);
  C.Faults = "touch-error=3";
  Engine E(C);
  evalOk(E, "(define (spin n) (if (= n 0) 0 (spin (- n 1))))");
  ASSERT_EQ(E.stats().TouchesExecuted, 0u);
  EvalResult R = E.eval("(spin 10)");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("injected-fault: touch error"), std::string::npos)
      << R.Error;
  EXPECT_EQ(E.stats().TouchesExecuted, 3u) << "stopped past the touch";
  EXPECT_EQ(E.stats().FaultsInjected, 1u);
  expectRunCounters(E, "touch-error");
  // The stop is restartable: the touch re-executes and the loop finishes.
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::falseV());
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.Val.asFixnum(), 0);
  EXPECT_EQ(E.stats().FaultsInjected, 1u);
}

TEST(RunCountersTest, TouchErrorOrdinalsCountTouchInstructionsOnly) {
  // touches-executed also counts the touches a called primitive makes
  // inside its own body; touch-error ordinals count touch instructions.
  // length walks its list touching each cell and the final nil, so this
  // executes four touches, none of them a touch instruction, and the
  // first ordinal never fires.
  EngineConfig C = config(1);
  C.Faults = "touch-error=1";
  Engine E(C);
  E.resetStats();
  EXPECT_EQ(evalFixnum(E, "(length (list 1 2 3))"), 3);
  EXPECT_EQ(E.stats().TouchesExecuted, 4u);
  EXPECT_EQ(E.stats().FaultsInjected, 0u);
}

} // namespace
