//===----------------------------------------------------------------------===//
///
/// \file
/// The critical-path profiler: hand-computed fixture DAGs with exact
/// work/span/parallelism expectations, the span <= work and determinism
/// invariants on real traced runs, drop-refusal, and the profile renderer.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/CriticalPath.h"
#include "obs/Profile.h"

#include <cmath>

using namespace mult;
using namespace mult::testutil;

namespace {

/// Builds synthetic event streams the way the runtime emits them. Tasks
/// are full TaskIds so the fixtures also cover generation-tagged ids.
class TraceBuilder {
public:
  TaskId task(uint32_t N) { return makeTaskId(N, 1); }

  TraceBuilder &ev(TraceEventKind K, unsigned Proc, uint64_t Clock,
                   uint64_t A = 0, uint64_t B = 0, uint64_t C = 0) {
    Events.push_back(TraceEvent{Clock, A, C, static_cast<uint32_t>(B),
                                static_cast<uint8_t>(Proc), K});
    return *this;
  }

  CriticalPathReport analyze(uint64_t Dropped = 0) const {
    return analyzeCriticalPath(Events, Dropped, {});
  }

  std::vector<TraceEvent> Events;
};

/// One task, one processor: the span is all the work there is.
TEST(CriticalPathFixtureTest, SerialChainSpanEqualsWork) {
  TraceBuilder B;
  TaskId T1 = B.task(1);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::TaskFinish, 0, 100, T1);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 100u);
  EXPECT_EQ(R.Span, 100u);
  EXPECT_DOUBLE_EQ(R.parallelism(), 1.0);
  EXPECT_EQ(R.Tasks, 1u);
}

/// Two independent tasks on two processors: work doubles, span doesn't.
TEST(CriticalPathFixtureTest, IndependentPairHasParallelismTwo) {
  TraceBuilder B;
  TaskId T1 = B.task(1), T2 = B.task(2);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskCreate, 1, 0, T2, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::TaskStart, 1, 0, T2)
      .ev(TraceEventKind::TaskFinish, 0, 100, T1)
      .ev(TraceEventKind::TaskFinish, 1, 100, T2);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 200u);
  EXPECT_EQ(R.Span, 100u);
  EXPECT_DOUBLE_EQ(R.parallelism(), 2.0);
  // Brent bound: 2 procs run it in 100 cycles; more don't help.
  EXPECT_EQ(R.idealCycles(1), 200u);
  EXPECT_EQ(R.idealCycles(2), 100u);
  EXPECT_EQ(R.idealCycles(8), 100u);
}

/// A spawn edge: the child's chain continues the parent's path at the
/// spawn point, so span = parent prefix + child, not wall-clock max.
TEST(CriticalPathFixtureTest, SpawnEdgeChainsThroughParentPrefix) {
  TraceBuilder B;
  TaskId T1 = B.task(1), T2 = B.task(2);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      // Parent runs 0..40, then spawns the child (parent edge = T1).
      .ev(TraceEventKind::TaskCreate, 0, 40, T2, 0, T1)
      .ev(TraceEventKind::TaskFinish, 0, 60, T1)
      // Child starts elsewhere later; its path starts at 40, not 0.
      .ev(TraceEventKind::TaskStart, 1, 200, T2)
      .ev(TraceEventKind::TaskFinish, 1, 230, T2);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 90u);  // 60 + 30
  EXPECT_EQ(R.Span, 70u);  // 40 (parent prefix) + 30 (child)
}

/// A touch that blocks: the toucher's tail chains after the resolver's
/// path, lengthening the span beyond either task alone.
TEST(CriticalPathFixtureTest, TouchBlockEdgeLengthensSpan) {
  TraceBuilder B;
  TaskId T1 = B.task(1), T2 = B.task(2);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskCreate, 1, 0, T2, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::TaskStart, 1, 0, T2)
      // T2 runs 30 cycles, touches an unresolved future, blocks.
      .ev(TraceEventKind::TouchBlock, 1, 30, T2)
      .ev(TraceEventKind::TaskBlock, 1, 30, T2, 0)
      // T1 resolves at 100 (path 100) and wakes T2.
      .ev(TraceEventKind::TaskResume, 0, 100, T2, 1, T1)
      .ev(TraceEventKind::FutureResolve, 0, 100, 1, 0, 1)
      .ev(TraceEventKind::TaskFinish, 0, 100, T1)
      // T2 resumes after dispatch latency and runs 40 more cycles.
      .ev(TraceEventKind::TaskStart, 1, 110, T2)
      .ev(TraceEventKind::TaskFinish, 1, 150, T2);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 170u); // 100 + 30 + 40
  // Critical path: T1's 100 cycles, then T2's post-wake 40. T2's first 30
  // cycles overlap T1 and stay off the path.
  EXPECT_EQ(R.Span, 140u);
  EXPECT_NEAR(R.parallelism(), 170.0 / 140.0, 1e-9);
  EXPECT_EQ(R.JoinEdges, 1u);
}

/// The sweep orders by clock, then publishers first, then emission order,
/// whatever the trace's clock span: a span too wide to pack clock and
/// index into one sort key takes the wide-key path to the same order.
TEST(CriticalPathFixtureTest, SweepOrderHoldsAtAnyClockSpan) {
  for (uint64_t Far : {uint64_t(1000), uint64_t(1) << 62}) {
    TraceBuilder B;
    TaskId T1 = B.task(1), T2 = B.task(2);
    B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
        .ev(TraceEventKind::TaskCreate, 1, 0, T2, 0, InvalidTask)
        .ev(TraceEventKind::TaskStart, 0, 0, T1)
        .ev(TraceEventKind::TaskStart, 1, 0, T2)
        .ev(TraceEventKind::TouchBlock, 1, 30, T2)
        .ev(TraceEventKind::TaskBlock, 1, 30, T2, 0)
        // T2's restart is emitted before the resolve that wakes it, at
        // the same clock: the publisher must still sweep first.
        .ev(TraceEventKind::TaskStart, 1, 100, T2)
        .ev(TraceEventKind::TaskResume, 0, 100, T2, 1, T1)
        .ev(TraceEventKind::FutureResolve, 0, 100, 1, 0, 1)
        .ev(TraceEventKind::TaskFinish, 0, 100, T1)
        .ev(TraceEventKind::TaskFinish, 1, 140, T2)
        .ev(TraceEventKind::IdleBegin, 2, Far);
    CriticalPathReport R = B.analyze();
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Work, 170u) << "far clock " << Far;
    EXPECT_EQ(R.Span, 140u) << "far clock " << Far;
    EXPECT_EQ(R.JoinEdges, 1u) << "far clock " << Far;
  }
}

/// A touch that hits: the resolve serial carries the edge even though the
/// toucher never blocked.
TEST(CriticalPathFixtureTest, TouchHitEdgeRaisesPath) {
  TraceBuilder B;
  TaskId T1 = B.task(1), T2 = B.task(2);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::FutureResolve, 0, 100, 0, 0, 7)
      .ev(TraceEventKind::TaskFinish, 0, 100, T1)
      // T2 starts much later in wall-clock; path-wise it only depends on
      // the resolve once it touches at 170.
      .ev(TraceEventKind::TaskCreate, 1, 150, T2, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 1, 150, T2)
      .ev(TraceEventKind::TouchHit, 1, 170, T2, 0, 7)
      .ev(TraceEventKind::TaskFinish, 1, 190, T2);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 140u); // 100 + 40
  // T1's 100, then T2's post-touch 20; T2's pre-touch 20 is off-path.
  EXPECT_EQ(R.Span, 120u);
  EXPECT_EQ(R.JoinEdges, 1u);
  EXPECT_EQ(R.UnknownJoins, 0u);
}

/// GC pauses are neither work nor span.
TEST(CriticalPathFixtureTest, GcPausesAreExcluded) {
  TraceBuilder B;
  TaskId T1 = B.task(1);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::GcBegin, 0, 40)
      .ev(TraceEventKind::GcEnd, 0, 90)
      .ev(TraceEventKind::TaskFinish, 0, 100, T1);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 50u); // 40 before the pause + 10 after
  EXPECT_EQ(R.Span, 50u);
}

/// A task restored from its checkpoint is ready at the checkpoint's
/// path: the work before the capture stays on the span, the lost attempt
/// after it does not.
TEST(CriticalPathFixtureTest, RestoredTaskResumesFromItsCheckpointPath) {
  TraceBuilder B;
  TaskId T1 = B.task(1);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::CheckpointTaken, 0, 60, T1)
      // Processor 0 fail-stops; processor 1 restores T1 and finishes it.
      .ev(TraceEventKind::ProcKilled, 1, 80, 0, 1, 1)
      .ev(TraceEventKind::TaskRestored, 1, 80, T1, 1, 0)
      .ev(TraceEventKind::TaskStart, 1, 80, T1)
      .ev(TraceEventKind::TaskFinish, 1, 120, T1);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 100u); // 60 before the capture + 40 after the restore
  EXPECT_EQ(R.Span, 100u);
}

/// The kill is polled on the min-clock processor, so the dying one can
/// capture past the poll clock. The restore still resumes from that
/// capture, although it sorts after the restore and the restart.
TEST(CriticalPathFixtureTest, RestoreFromACaptureThatSortsLater) {
  TraceBuilder B;
  TaskId T1 = B.task(1);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::CheckpointTaken, 0, 85, T1)
      .ev(TraceEventKind::ProcKilled, 1, 80, 0, 1, 1)
      .ev(TraceEventKind::TaskRestored, 1, 80, T1, 1, 0)
      .ev(TraceEventKind::TaskStart, 1, 80, T1)
      .ev(TraceEventKind::TaskFinish, 1, 120, T1);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Work, 125u); // 85 before the capture + 40 after the restore
  EXPECT_EQ(R.Span, 125u);
}

/// A recycled registry slot: two tasks share a taskIndex but differ in
/// generation, so they are two tasks with their own work and paths.
TEST(CriticalPathFixtureTest, RecycledSlotKeepsTasksApart) {
  TraceBuilder B;
  TaskId Old = makeTaskId(1, 1), New = makeTaskId(1, 2);
  ASSERT_EQ(taskIndex(Old), taskIndex(New));
  B.ev(TraceEventKind::FutureCreate, 0, 0, Old, 0)
      .ev(TraceEventKind::TaskCreate, 0, 0, Old, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, Old)
      .ev(TraceEventKind::TaskFinish, 0, 300, Old)
      // The slot is reused once Old is gone; New runs on an idle
      // processor whose path is still 0.
      .ev(TraceEventKind::FutureCreate, 1, 300, New, 1)
      .ev(TraceEventKind::TaskCreate, 1, 300, New, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 1, 300, New)
      .ev(TraceEventKind::TaskFinish, 1, 400, New);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Tasks, 2u);
  EXPECT_EQ(R.Work, 400u);
  EXPECT_EQ(R.Span, 300u) << "New's short path must not overwrite Old's";
  ASSERT_EQ(R.Sites.size(), 2u);
  EXPECT_EQ(R.Sites[0].Name, "site#0");
  EXPECT_EQ(R.Sites[0].ChildWork, 300u);
  EXPECT_EQ(R.Sites[0].ChildOnPath, 300u);
  EXPECT_EQ(R.Sites[1].Name, "site#1");
  EXPECT_EQ(R.Sites[1].ChildWork, 100u);
  EXPECT_EQ(R.Sites[1].ChildOnPath, 0u);
}

/// Two tasks reach the same maximal path. The span is attributed to the
/// lower TaskId, and sites tied on ChildWork list in site-id order, even
/// though the higher id and the higher site appear first in the trace.
TEST(CriticalPathFixtureTest, TiesGoToLowerTaskIdAndSiteId) {
  TraceBuilder B;
  TaskId Hi = makeTaskId(1, 2), Lo = makeTaskId(5, 1);
  ASSERT_LT(Lo, Hi);
  B.ev(TraceEventKind::FutureCreate, 0, 0, Hi, 8)
      .ev(TraceEventKind::TaskCreate, 0, 0, Hi, 0, InvalidTask)
      .ev(TraceEventKind::FutureCreate, 1, 0, Lo, 3)
      .ev(TraceEventKind::TaskCreate, 1, 0, Lo, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, Hi)
      .ev(TraceEventKind::TaskStart, 1, 0, Lo)
      .ev(TraceEventKind::TaskFinish, 0, 200, Hi)
      .ev(TraceEventKind::TaskFinish, 1, 200, Lo);
  CriticalPathReport R = B.analyze();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Span, 200u);
  ASSERT_EQ(R.Sites.size(), 2u);
  EXPECT_EQ(R.Sites[0].Name, "site#3");
  EXPECT_EQ(R.Sites[0].ChildOnPath, 200u);
  EXPECT_EQ(R.Sites[1].Name, "site#8");
  EXPECT_EQ(R.Sites[1].ChildOnPath, 0u);
}

TEST(CriticalPathFixtureTest, RefusesDroppedTraces) {
  TraceBuilder B;
  TaskId T1 = B.task(1);
  B.ev(TraceEventKind::TaskCreate, 0, 0, T1, 0, InvalidTask)
      .ev(TraceEventKind::TaskStart, 0, 0, T1)
      .ev(TraceEventKind::TaskFinish, 0, 100, T1);
  CriticalPathReport R = B.analyze(/*Dropped=*/3);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("dropped"), std::string::npos) << R.Error;
  // And the renderer reports the refusal instead of numbers.
  std::string Text;
  StringOutStream OS(Text);
  dumpProfile(OS, R);
  EXPECT_NE(Text.find("profile unavailable"), std::string::npos);
  EXPECT_NE(Text.find("dropped"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Real traced runs
//===----------------------------------------------------------------------===//

const char *ParallelProgram = R"lisp(
  (define (spawn n)
    (if (= n 0) '()
        (cons (future (let loop ((i 0))
                        (if (= i 400) (* n n) (loop (+ i 1)))))
              (spawn (- n 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (drain (spawn 24) 0)
)lisp";

EngineConfig tracedConfig(unsigned Procs) {
  EngineConfig C = config(Procs);
  C.EnableTracing = true;
  return C;
}

TEST(CriticalPathEngineTest, SpanBoundedByWorkAndMeasuredTime) {
  Engine E(tracedConfig(4));
  EXPECT_EQ(evalFixnum(E, ParallelProgram), 4900);
  CriticalPathReport R = analyzeCriticalPath(E.tracer());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Work, 0u);
  EXPECT_GT(R.Span, 0u);
  EXPECT_LE(R.Span, R.Work);
  // The simulator can't beat the DAG's own limits: the measured elapsed
  // cycles lie between span (infinite procs) and work (one proc) plus
  // scheduling overhead on top of work.
  EXPECT_GE(E.stats().ElapsedCycles, R.Span);
  // 24 spawned children + the root showed up.
  EXPECT_GE(R.Tasks, 25u);
  EXPECT_GT(R.parallelism(), 1.0) << "24 independent futures must overlap";
  // Site table: exactly one textual future expression in the program.
  ASSERT_GE(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Queued + R.Sites[0].Inlined, 24u);
  EXPECT_GT(R.Sites[0].ChildWork, 0u);
  EXPECT_LE(R.Sites[0].ChildOnPath, R.Sites[0].ChildWork);
}

TEST(CriticalPathEngineTest, DeterministicAcrossIdenticalRuns) {
  auto Run = [] {
    Engine E(tracedConfig(4));
    evalOk(E, ParallelProgram);
    return analyzeCriticalPath(E.tracer());
  };
  CriticalPathReport A = Run(), B = Run();
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Work, B.Work);
  EXPECT_EQ(A.Span, B.Span);
  EXPECT_EQ(A.Tasks, B.Tasks);
  EXPECT_EQ(A.Segments, B.Segments);
  EXPECT_EQ(A.JoinEdges, B.JoinEdges);
  ASSERT_EQ(A.Sites.size(), B.Sites.size());
  for (size_t I = 0; I < A.Sites.size(); ++I) {
    EXPECT_EQ(A.Sites[I].Name, B.Sites[I].Name);
    EXPECT_EQ(A.Sites[I].ChildWork, B.Sites[I].ChildWork);
    EXPECT_EQ(A.Sites[I].ChildOnPath, B.Sites[I].ChildOnPath);
  }
}

TEST(CriticalPathEngineTest, SerialRunHasParallelismNearOne) {
  // Everything inlined (T=0): one task does all the work, so the DAG is a
  // chain and parallelism collapses to exactly 1.
  EngineConfig C = tracedConfig(1);
  C.InlineThreshold = 0;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, ParallelProgram), 4900);
  CriticalPathReport R = analyzeCriticalPath(E.tracer());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Span, R.Work);
  EXPECT_DOUBLE_EQ(R.parallelism(), 1.0);
  ASSERT_GE(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Inlined, 24u);
  EXPECT_EQ(R.Sites[0].Queued, 0u);
}

TEST(CriticalPathEngineTest, LazyFutureSeamsCarryEdges) {
  EngineConfig C = tracedConfig(4);
  C.LazyFutures = true;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, ParallelProgram), 4900);
  CriticalPathReport R = analyzeCriticalPath(E.tracer());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_LE(R.Span, R.Work);
  ASSERT_GE(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].LazySeams, 24u);
  // Splits only happen when a thief arrived; either way the counters are
  // consistent with each other.
  EXPECT_LE(R.Sites[0].SeamSplits, R.Sites[0].LazySeams);
  EXPECT_EQ(E.stats().SeamsStolen, R.Sites[0].SeamSplits);
}

TEST(CriticalPathEngineTest, CheckpointRestoreKeepsPreCaptureWorkOnThePath) {
  // One eager worker, a long tail loop the root waits on: the worker is
  // the whole critical path. Processor 1 fail-stops while running it, and
  // it resumes from its newest checkpoint on processor 0. Its path starts
  // at the capture, so the span keeps the pre-capture work and adds the
  // replayed delta: it cannot fall below the fault-free span.
  const char *Worker = R"lisp(
    (begin
      (define (work n acc)
        (if (= n 0) acc (work (- n 1) (+ acc 1))))
      (touch (future (work 40000 0))))
  )lisp";
  auto Run = [&](const char *Faults) {
    EngineConfig C = tracedConfig(2);
    C.CheckpointEvery = 2000;
    C.InlineThreshold = 1'000'000; // eager: the worker is a real task
    C.Faults = Faults;
    Engine E(C);
    EXPECT_EQ(evalFixnum(E, Worker), 40000);
    EXPECT_EQ(E.stats().TasksRestored, *Faults ? 1u : 0u);
    return analyzeCriticalPath(E.tracer());
  };
  CriticalPathReport Clean = Run(""), Killed = Run("proc-kill=1@200000");
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  ASSERT_TRUE(Killed.Ok) << Killed.Error;
  EXPECT_LE(Killed.Span, Killed.Work);
  EXPECT_GE(Killed.Span, Clean.Span);
}

TEST(CriticalPathEngineTest, RefusesRingTruncatedEngineTrace) {
  EngineConfig C = tracedConfig(2);
  C.TraceSink = "ring:64";
  Engine E(C);
  evalOk(E, ParallelProgram);
  ASSERT_GT(E.tracer().dropped(), 0u) << "ring sized to overflow";
  CriticalPathReport R = analyzeCriticalPath(E.tracer());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("dropped"), std::string::npos);
}

} // namespace
