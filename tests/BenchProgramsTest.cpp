//===----------------------------------------------------------------------===//
///
/// \file
/// Correctness tests for the benchmark programs of paper section 4 (at
/// test-sized parameters): Boyer, queens, mergesort, permute, and the
/// mini-compiler.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "../bench/programs/BoyerProgram.h"
#include "../bench/programs/MergesortProgram.h"
#include "../bench/programs/MiniCompilerProgram.h"
#include "../bench/programs/PermuteProgram.h"
#include "../bench/programs/QueensProgram.h"

using namespace mult;
using namespace mult::testutil;

namespace {

TEST(BoyerTest, SequentialProvesTheTheorem) {
  Engine E(config(1));
  evalOk(E, BoyerCommonSource);
  evalOk(E, BoyerSequentialArgs);
  EXPECT_EQ(evalPrint(E, "(boyer-test 1)"), "#t");
}

TEST(BoyerTest, SequentialInT3Mode) {
  EngineConfig C = config(1);
  C.EmitTouchChecks = false;
  Engine E(C);
  evalOk(E, BoyerCommonSource);
  evalOk(E, BoyerSequentialArgs);
  EXPECT_EQ(evalPrint(E, "(boyer-test 1)"), "#t");
}

TEST(BoyerTest, ParallelAgreesOnEveryMachine) {
  for (unsigned Procs : {1u, 2u, 4u}) {
    for (int T : {-1, 1}) {
      EngineConfig C = config(Procs);
      if (T >= 0)
        C.InlineThreshold = static_cast<unsigned>(T);
      Engine E(C);
      evalOk(E, BoyerCommonSource);
      evalOk(E, BoyerParallelArgs);
      EXPECT_EQ(evalPrint(E, "(boyer-test 1)"), "#t")
          << "procs=" << Procs << " T=" << T;
      if (T < 0) {
        EXPECT_GT(E.stats().FuturesCreated, 50u)
            << "parallel Boyer must actually create futures";
      }
    }
  }
}

TEST(BoyerTest, TouchOverheadIsVisible) {
  // Table 2's structure: T3 < Mul-T+opt < Mul-T-no-opt on the same
  // sequential program.
  auto CyclesWith = [](bool Touches, bool Opt) {
    EngineConfig C = config(1);
    C.EmitTouchChecks = Touches;
    C.OptimizeTouches = Opt;
    Engine E(C);
    evalOk(E, BoyerCommonSource);
    evalOk(E, BoyerSequentialArgs);
    E.resetStats();
    evalOk(E, "(boyer-test 1)");
    return E.stats().ElapsedCycles;
  };
  uint64_t T3 = CyclesWith(false, false);
  uint64_t NoOpt = CyclesWith(true, false);
  uint64_t Opt = CyclesWith(true, true);
  EXPECT_LT(T3, Opt);
  EXPECT_LT(Opt, NoOpt);
}

TEST(QueensTest, CountsAreCorrect) {
  // Known n-queens solution counts.
  Engine E(config(1));
  evalOk(E, QueensSource);
  EXPECT_EQ(evalFixnum(E, "(queens-seq 4)"), 2);
  EXPECT_EQ(evalFixnum(E, "(queens-seq 5)"), 10);
  EXPECT_EQ(evalFixnum(E, "(queens-seq 6)"), 4);
  EXPECT_EQ(evalFixnum(E, "(queens-seq 7)"), 40);
}

TEST(QueensTest, ParallelMatchesSequential) {
  for (unsigned Procs : {2u, 4u}) {
    Engine E(config(Procs));
    evalOk(E, QueensSource);
    EXPECT_EQ(evalFixnum(E, "(queens-par 6)"), 4);
    EXPECT_EQ(evalFixnum(E, "(queens-par 7)"), 40);
    EXPECT_GT(E.stats().FuturesCreated, 10u);
  }
}

TEST(MergesortTest, SortsCorrectly) {
  for (unsigned Procs : {1u, 4u}) {
    EngineConfig C = config(Procs);
    C.InlineThreshold = 1;
    Engine E(C);
    evalOk(E, MergesortSource);
    EXPECT_EQ(evalPrint(E, "(mergesort-test 256)"), "#t")
        << "procs=" << Procs;
  }
}

TEST(MergesortTest, InliningSlashesFutureCount) {
  // Paper: inlining reduces futures from 8191 to ~350 on 8 processors.
  auto FuturesWith = [](std::optional<unsigned> T, unsigned Procs) {
    EngineConfig C = config(Procs);
    C.InlineThreshold = T;
    Engine E(C);
    evalOk(E, MergesortSource);
    E.resetStats();
    evalOk(E, "(mergesort-test 512)");
    return E.stats().FuturesCreated;
  };
  uint64_t Eager = FuturesWith(std::nullopt, 8);
  uint64_t Inlined = FuturesWith(1u, 8);
  EXPECT_EQ(Eager, 511u) << "one future per divide step";
  EXPECT_LT(Inlined, Eager / 4);
  EXPECT_GT(Inlined, 0u);
}

TEST(PermuteTest, AcceptsDistantVectors) {
  Engine E(config(4));
  evalOk(E, PermuteSource);
  // Tiny instance: 8 vectors of 12 entries, min distance 6.
  int64_t Tested = evalFixnum(E, "(permute-run 8 12 6 4 4)");
  EXPECT_GE(Tested, 8);
  EXPECT_GT(E.stats().FuturesCreated, 0u);
}

TEST(PermuteTest, DistanceFunction) {
  Engine E(config(1));
  evalOk(E, PermuteSource);
  EXPECT_EQ(evalFixnum(E, "(permute-distance #(1 2 3) #(1 9 9) 3)"), 2);
  EXPECT_EQ(evalFixnum(E, "(permute-distance #(1 2) #(1 2) 2)"), 0);
}

TEST(MiniCompilerTest, CompilesItsGeneratedProgram) {
  Engine E(config(1));
  evalOk(E, MiniCompilerSource);
  std::string R = evalPrint(E, "(mc-compile-program (mc-gen-program 6 3) #f)");
  // Result is (total asm-count checksum) with total == asm-count.
  Engine E2(config(1));
  evalOk(E2, MiniCompilerSource);
  std::string R2 =
      evalPrint(E2, "(mc-compile-program (mc-gen-program 6 3) #f)");
  EXPECT_EQ(R, R2) << "generator and compiler must be deterministic";
  EXPECT_EQ(R.front(), '(');
}

TEST(MiniCompilerTest, ParallelMatchesSequentialOutput) {
  // The assembler lock serializes assembly, but per-procedure counts and
  // the total are schedule-independent; the checksum depends on assembly
  // order, so compare count fields only.
  Engine A(config(1));
  evalOk(A, MiniCompilerSource);
  std::string Seq = evalPrint(
      A, "(car (cdr (mc-compile-program (mc-gen-program 8 3) #f)))");
  Engine B(config(4));
  evalOk(B, MiniCompilerSource);
  std::string Par = evalPrint(
      B, "(car (cdr (mc-compile-program (mc-gen-program 8 3) #t)))");
  EXPECT_EQ(Seq, Par);
  EXPECT_GT(B.stats().FuturesCreated, 0u);
}

TEST(MiniCompilerTest, ConstantFoldingWorks) {
  Engine E(config(1));
  evalOk(E, MiniCompilerSource);
  EXPECT_EQ(evalPrint(E, "(mc-fold '(prim + (const 2) (const 3)))"),
            "(const 5)");
  EXPECT_EQ(evalPrint(E, "(mc-fold '(if (const 0) (const 1) (const 2)))"),
            "(const 2)");
  EXPECT_EQ(evalPrint(E, "(mc-fold '(if (const 9) (const 1) (const 2)))"),
            "(const 1)");
}

TEST(MiniCompilerTest, ParseRejectsBadPrograms) {
  Engine E(config(1));
  evalOk(E, MiniCompilerSource);
  evalErr(E, "(mc-parse '((procedure p0 (a) unknown-var)))",
          EvalResult::Kind::RuntimeError);
}

} // namespace
