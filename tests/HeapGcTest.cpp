//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the chunked heap and the parallel stop-and-copy
/// collector (paper section 2.1.2).
///
//===----------------------------------------------------------------------===//

#include "runtime/Gc.h"
#include "runtime/Heap.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

using namespace mult;
using namespace mult::testutil;

namespace {

Heap::Config smallHeap(unsigned Allocators = 1) {
  Heap::Config C;
  C.SemispaceWords = 4096;
  C.ChunkWords = 256;
  C.LargeObjectWords = 64;
  C.NumAllocators = Allocators;
  return C;
}

} // namespace

TEST(HeapTest, ChunkAllocationIsCheap) {
  Heap H(smallHeap());
  // First allocation refills a chunk; subsequent ones bump locally.
  auto R1 = H.allocate(0, 0, TypeTag::Pair, 2);
  ASSERT_NE(R1.Obj, nullptr);
  EXPECT_GT(R1.Cycles, heapcost::ChunkBump); // includes the refill
  auto R2 = H.allocate(0, 100, TypeTag::Pair, 2);
  ASSERT_NE(R2.Obj, nullptr);
  EXPECT_EQ(R2.Cycles, heapcost::ChunkBump); // pure local bump
}

TEST(HeapTest, SeparateAllocatorsUseSeparateChunks) {
  Heap H(smallHeap(2));
  auto A = H.allocate(0, 0, TypeTag::Pair, 2);
  auto B = H.allocate(1, 0, TypeTag::Pair, 2);
  ASSERT_NE(A.Obj, nullptr);
  ASSERT_NE(B.Obj, nullptr);
  // Chunks are disjoint regions, so the objects are far apart.
  auto Delta = reinterpret_cast<intptr_t>(B.Obj) -
               reinterpret_cast<intptr_t>(A.Obj);
  EXPECT_GE(std::abs(Delta), static_cast<intptr_t>(256 * 8 - 64));
}

TEST(HeapTest, LargeObjectsBypassChunks) {
  Heap H(smallHeap());
  // Consume part of a chunk first.
  ASSERT_NE(H.allocate(0, 0, TypeTag::Pair, 2).Obj, nullptr);
  size_t UsedBefore = H.usedWords();
  auto R = H.allocate(0, 0, TypeTag::Vector, 100); // 101 words >= 64
  ASSERT_NE(R.Obj, nullptr);
  // Global cursor advanced by exactly the object, not a chunk.
  EXPECT_EQ(H.usedWords(), UsedBefore + 101);
}

TEST(HeapTest, ExhaustionSignalsGcNeeded) {
  Heap H(smallHeap());
  size_t Allocated = 0;
  for (;;) {
    auto R = H.allocate(0, 0, TypeTag::Pair, 2);
    if (!R.Obj)
      break;
    ++Allocated;
    ASSERT_LT(Allocated, 100000u) << "heap never reported exhaustion";
  }
  EXPECT_GT(Allocated, 1000u); // 4096 words / 3-word pairs, chunk waste
}

TEST(HeapTest, PermanentAreaTracksScannables) {
  Heap H(smallHeap());
  size_t Before = H.staticAreaSize();
  H.allocatePermanent(TypeTag::Pair, 2);
  H.allocatePermanent(TypeTag::String, 4, Object::FlagRaw); // raw: excluded
  H.allocatePermanent(TypeTag::Symbol, 3);
  EXPECT_EQ(H.staticAreaSize(), Before + 2);
}

TEST(HeapTest, StaticAreaSegmentsCoverEverything) {
  Heap H(smallHeap());
  for (int I = 0; I < 10; ++I)
    H.allocatePermanent(TypeTag::Pair, 2);
  size_t Total = 0;
  for (unsigned Seg = 0; Seg < 3; ++Seg) {
    auto [B, E] = H.staticAreaSegment(Seg, 3);
    Total += E - B;
  }
  EXPECT_EQ(Total, H.staticAreaSize());
}

namespace {

/// Resident set size of this process in bytes, or 0 if unknown.
size_t residentBytes() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  return N == 2 ? Resident * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

} // namespace

TEST(HeapTest, UntouchedSemispacePagesAreNeverCommitted) {
  // 256 MB of semispace, of which a short session touches a few chunks.
  // Zero-filling the buffer (or poisoning all of it in Debug) would commit
  // every page up front.
  size_t Before = residentBytes();
  if (Before == 0)
    GTEST_SKIP() << "no /proc/self/statm on this host";
  EngineConfig C = config(1);
  C.HeapWords = size_t(1) << 24;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, "(let loop ((i 0) (l '())) "
                          "(if (= i 1000) (length l) "
                          "(loop (+ i 1) (cons i l))))"),
            1000);
  size_t After = residentBytes();
  size_t Grown = After > Before ? After - Before : 0;
  EXPECT_LT(Grown, size_t(16) << 20) << "resident set grew by " << Grown
                                     << " bytes";
}

TEST(HeapTest, DebugPoisonsWhatItHandsOut) {
#ifdef NDEBUG
  GTEST_SKIP() << "allocation poisoning is a Debug-build check";
#else
  constexpr uint64_t Poison = 0xABABABABABABABABull;
  Heap H(smallHeap());
  Object *Small = H.allocate(0, 0, TypeTag::Vector, 4).Obj;
  ASSERT_NE(Small, nullptr);
  for (uint32_t I = 0; I < 4; ++I)
    EXPECT_EQ(Small->payload()[I], Poison) << "chunk object word " << I;
  Object *Large = H.allocate(0, 0, TypeTag::Vector, 100).Obj; // >= 64 words
  ASSERT_NE(Large, nullptr);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(Large->payload()[I], Poison) << "large object word " << I;
#endif
}

//===----------------------------------------------------------------------===//
// Collector tests through the engine (realistic roots).
//===----------------------------------------------------------------------===//

TEST(GcTest, CollectionPreservesLiveData) {
  EngineConfig C = config(1);
  C.HeapWords = 1 << 14; // force several collections
  Engine E(C);
  int64_t N = evalFixnum(E, R"lisp(
    (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
    (define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))
    (let loop ((i 0) (acc 0))
      (if (= i 40)
          acc
          (loop (+ i 1) (+ acc (sum (build 200))))))
  )lisp");
  EXPECT_EQ(N, 40 * (200 * 201 / 2));
  EXPECT_GE(E.gcStats().Collections, 1u);
}

TEST(GcTest, LiveStructureSurvivesIntact) {
  EngineConfig C = config(1);
  C.HeapWords = 1 << 14;
  Engine E(C);
  // Keep a structure live in a global across many collections and verify
  // it afterwards.
  evalOk(E, "(define keep (list 1 2 (list 3 4) \"five\" #\\x))");
  evalOk(E, R"lisp(
    (define (churn n) (if (= n 0) 'done (begin (make-vector 50 0)
                                               (churn (- n 1)))))
    (churn 500)
  )lisp");
  EXPECT_GE(E.gcStats().Collections, 1u);
  EXPECT_EQ(evalPrint(E, "keep"), "(1 2 (3 4) \"five\" #\\x)");
}

TEST(GcTest, MutatedQuotedDataIsTraced) {
  // set-car! on quoted (static-area) structure must keep the stored heap
  // value alive: the paper's GC scans the static area in segments.
  EngineConfig C = config(1);
  C.HeapWords = 1 << 14;
  Engine E(C);
  evalOk(E, "(define q '(a b c))");
  evalOk(E, "(set-car! q (list 10 20))"); // heap value into static pair
  evalOk(E, "(define (churn n) (if (= n 0) 0 (begin (make-vector 16 0) "
            "(churn (- n 1))))) (churn 3000)");
  EXPECT_GE(E.gcStats().Collections, 1u);
  EXPECT_EQ(evalPrint(E, "q"), "((10 20) b c)");
}

TEST(GcTest, ResolvedFuturesAreSpliced) {
  EngineConfig C = config(1);
  C.HeapWords = 1 << 15;
  Engine E(C);
  evalOk(E, "(define f (future 42))");
  evalOk(E, "(touch f)");
  evalOk(E, "(%gc)");
  // After the collection the global holds the value directly.
  Object *Sym = E.symbols().lookup("f");
  ASSERT_NE(Sym, nullptr);
  EXPECT_TRUE(Sym->globalValue().isFixnum());
  EXPECT_EQ(Sym->globalValue().asFixnum(), 42);
  EXPECT_GE(E.gcStats().Last.FuturesSpliced, 1u);
}

TEST(GcTest, ExplicitGcPrimitive) {
  Engine E(config(1));
  uint64_t Before = E.gcStats().Collections;
  evalOk(E, "(%gc)");
  EXPECT_EQ(E.gcStats().Collections, Before + 1);
}

TEST(GcTest, ParallelCollectionUsesAllProcessors) {
  EngineConfig C = config(4);
  C.HeapWords = 1 << 15;
  C.InlineThreshold = 1;
  Engine E(C);
  evalOk(E, R"lisp(
    (define (build n) (if (= n 0) '() (cons (make-vector 8 n) (build (- n 1)))))
    (define keep (build 100))
    (%gc)
  )lisp");
  const Gc::Stats &S = E.gcStats();
  ASSERT_GE(S.Collections, 1u);
  // Work was spread: the busiest processor did less than all the work.
  EXPECT_LT(S.Last.MaxProcWorkCycles, S.Last.WorkCycles);
  EXPECT_GT(S.Last.WordsCopied, 100u * 9u);
}

TEST(GcTest, HeapExhaustionIsReportedNotFatal) {
  EngineConfig C = config(1);
  C.HeapWords = 1 << 12; // 4096 words: too small for a big survivor list
  Engine E(C);
  EvalResult R = E.eval(
      "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
      "(define keep (build 5000))");
  EXPECT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
}

TEST(GcTest, MonolithicOverAllocationIsDetected) {
  // A primitive that must allocate more than the post-collection headroom
  // in one go can never complete; the machine reports it instead of
  // thrashing in a GC loop.
  EngineConfig C = config(1);
  C.HeapWords = 1 << 14;
  Engine E(C);
  EvalResult R = E.eval(
      "(define (build n acc) (if (= n 0) acc (build (- n 1) "
      "(cons n acc))))"
      "(reverse (build 4000 '()))");
  EXPECT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  EXPECT_NE(R.Error.find("single operation"), std::string::npos) << R.Error;
}

TEST(HeapTest, WedgedHeapRefusesAllocationAndCollection) {
  // The degradation contract: a wedged heap (to-space overflow mid-copy)
  // fails every allocation and refuses to start another collection, so
  // the engine can report a structured result instead of the host
  // asserting.
  Heap H(smallHeap());
  ASSERT_NE(H.allocate(0, 0, TypeTag::Pair, 2).Obj, nullptr);
  H.markWedged("test wedge");
  EXPECT_TRUE(H.wedged());
  EXPECT_EQ(H.wedgedReason(), "test wedge");
  EXPECT_EQ(H.allocate(0, 0, TypeTag::Pair, 2).Obj, nullptr);
  EXPECT_FALSE(H.beginCollection());
}

TEST(GcTest, RootFutureAllocationFailureIsStructured) {
  // A heap too small for even the root future: eval degrades to a
  // HeapExhausted result, not a crash (the prelude is skipped so nothing
  // needs the collectable heap before the root future).
  EngineConfig C = config(1);
  C.LoadPrelude = false;
  C.HeapWords = 4;
  C.ChunkWords = 4;
  C.LargeObjectWords = 4;
  Engine E(C);
  EvalResult R = E.eval("(+ 1 2)");
  EXPECT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  EXPECT_NE(R.Error.find("root future"), std::string::npos) << R.Error;
}

TEST(GcTest, RootClosureAllocationFailureIsStructured) {
  // Seven words fit the 6-word root future but not the 2-word closure
  // after it, even after the rescue collection.
  EngineConfig C = config(1);
  C.LoadPrelude = false;
  C.HeapWords = 7;
  C.ChunkWords = 7;
  C.LargeObjectWords = 4;
  Engine E(C);
  EvalResult R = E.eval("(+ 1 2)");
  EXPECT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  EXPECT_NE(R.Error.find("root closure"), std::string::npos) << R.Error;
}

TEST(GcTest, HeapExhaustionLandsInTheBreakloop) {
  // Exhaustion inside a task stops its group: inspectable, killable, and
  // the result carries heap facts for the report.
  EngineConfig C = config(1);
  C.HeapWords = 1 << 12;
  C.ChunkWords = 256; // keep chunks refillable after the rescue GC
  C.LargeObjectWords = 256; // must fit a chunk
  Engine E(C);
  EvalResult R = E.eval(
      "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
      "(define keep (build 5000))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::HeapExhausted));
  EXPECT_NE(R.Error.find("heap-exhausted"), std::string::npos) << R.Error;
  Group *G = E.findGroup(R.StoppedGroup);
  ASSERT_NE(G, nullptr) << "exhaustion in a task must stop the group";
  EXPECT_EQ(G->State, GroupState::Stopped);
  EXPECT_EQ(R.Heap.CapacityWords, size_t(1) << 12);
  EXPECT_GT(R.Heap.UsedWords, 0u);
  EXPECT_FALSE(R.Heap.CollectorWedged);
  EXPECT_GE(E.stats().HeapExhaustedStops, 1u);
  // The backtrace works, the group can be killed, the engine survives.
  EXPECT_FALSE(E.backtrace(G->CurrentTask).empty());
  E.killGroup(R.StoppedGroup);
  EXPECT_EQ(evalFixnum(E, "(+ 40 2)"), 42);
}

TEST(GcTest, PauseTimeShrinksWithMoreProcessors) {
  // The motivation for parallelizing the collector: shorter pauses.
  // Live data must hang off many roots to parallelize: the collector
  // deliberately does no load balancing below root granularity ("once an
  // object is moved by a particular processor all of its components will
  // be moved by the same processor" -- paper section 2.1.2), so a single
  // big list is one processor's job no matter what.
  auto PauseWith = [](unsigned Procs) {
    EngineConfig C = config(Procs);
    C.HeapWords = 1 << 16;
    Engine E(C);
    evalOk(E, "(define (build n) (if (= n 0) '() (cons (make-vector 6 n) "
              "(build (- n 1)))))");
    for (int K = 0; K < 64; ++K)
      evalOk(E, "(define keep" + std::to_string(K) + " (build 16))");
    E.resetStats();
    evalOk(E, "(%gc)");
    return E.gcStats().Last.PauseCycles;
  };
  uint64_t P1 = PauseWith(1);
  uint64_t P4 = PauseWith(4);
  EXPECT_LT(P4, P1) << "parallel GC should shorten the pause";
  EXPECT_LT(P4, P1 * 3 / 4);
}
