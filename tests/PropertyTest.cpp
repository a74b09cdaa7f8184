//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style parameterized sweeps: the same program must compute the
/// same value under every machine configuration (processor counts,
/// inlining thresholds, lazy futures, touch optimization, heap sizes,
/// steal order), and runs must be deterministic.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/Prng.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdint>

using namespace mult;
using namespace mult::testutil;

namespace {

/// One machine configuration under test.
struct MachineParam {
  unsigned Procs;
  int Threshold; ///< -1 = infinity
  bool Lazy;
  bool OptimizeTouches;
  /// Explicit, zeroed padding. gtest prints the parameter as a byte dump
  /// into each ctest name; implicit padding bytes would be uninitialized
  /// there and make the names differ from build to build.
  uint8_t Padding[2] = {0, 0};

  std::string name() const {
    std::string S = strFormat("p%u", Procs);
    S += Threshold < 0 ? std::string("_Tinf") : strFormat("_T%d", Threshold);
    if (Lazy)
      S += "_lazy";
    if (!OptimizeTouches)
      S += "_noopt";
    return S;
  }
};
static_assert(sizeof(MachineParam) == 2 * sizeof(int) + 4,
              "MachineParam must have no implicit padding");

EngineConfig toConfig(const MachineParam &P) {
  EngineConfig C;
  C.NumProcessors = P.Procs;
  if (P.Threshold >= 0)
    C.InlineThreshold = static_cast<unsigned>(P.Threshold);
  C.LazyFutures = P.Lazy;
  C.OptimizeTouches = P.OptimizeTouches;
  C.MaxRunCycles = 500'000'000;
  return C;
}

class ConfigSweepTest : public ::testing::TestWithParam<MachineParam> {};

/// Programs mixing futures, mutation, recursion, data structures.
struct NamedProgram {
  const char *Name;
  const char *Source;
  const char *Expected;
};

const NamedProgram SweepPrograms[] = {
    {"fib",
     "(define (fib n) (if (< n 2) n (+ (touch (future (fib (- n 1)))) "
     "(fib (- n 2))))) (fib 13)",
     "233"},
    {"future-list",
     "(define (spawn n) (if (= n 0) '() (cons (future (* n 7)) "
     "(spawn (- n 1))))) (define (drain l) (if (null? l) 0 "
     "(+ (touch (car l)) (drain (cdr l))))) (drain (spawn 40))",
     "5740"},
    {"shared-mutation",
     "(define v (make-vector 8 0)) (define (fill i) (if (= i 8) 'done "
     "(begin (touch (future (vector-set! v i (* i i)))) (fill (+ i 1))))) "
     "(fill 0) (vector->list v)",
     "(0 1 4 9 16 25 36 49)"},
    {"non-strict-structures",
     "(define l (list (future 1) (future 2) (future 3))) "
     "(+ (car l) (cadr l) (caddr l))",
     "6"},
    {"higher-order",
     "(fold-left + 0 (map (lambda (x) (touch (future (* x x)))) "
     "(iota 20)))",
     "2470"},
    {"deep-futures",
     "(define (nest n) (if (= n 0) 42 (future (nest (- n 1))))) "
     "(touch (nest 30))",
     "42"},
};

TEST_P(ConfigSweepTest, ProgramsComputeTheSameValues) {
  Engine E(toConfig(GetParam()));
  for (const NamedProgram &P : SweepPrograms) {
    Engine Fresh(toConfig(GetParam()));
    EXPECT_EQ(evalPrint(Fresh, P.Source), P.Expected) << P.Name;
  }
  (void)E;
}

TEST_P(ConfigSweepTest, RunsAreDeterministic) {
  const char *Prog = SweepPrograms[0].Source;
  Engine A(toConfig(GetParam()));
  Engine B(toConfig(GetParam()));
  evalOk(A, Prog);
  evalOk(B, Prog);
  EXPECT_EQ(A.stats().ElapsedCycles, B.stats().ElapsedCycles);
  EXPECT_EQ(A.stats().Instructions, B.stats().Instructions);
  EXPECT_EQ(A.stats().TasksCreated, B.stats().TasksCreated);
  EXPECT_EQ(A.stats().Steals, B.stats().Steals);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, ConfigSweepTest,
    ::testing::Values(MachineParam{1, -1, false, true},
                      MachineParam{1, 0, false, true},
                      MachineParam{1, 1, false, true},
                      MachineParam{2, -1, false, true},
                      MachineParam{2, 1, false, true},
                      MachineParam{4, -1, false, true},
                      MachineParam{4, 2, false, true},
                      MachineParam{8, 1, false, true},
                      MachineParam{1, -1, true, true},
                      MachineParam{4, -1, true, true},
                      MachineParam{8, -1, true, true},
                      MachineParam{2, -1, false, false},
                      MachineParam{4, 1, false, false}),
    [](const ::testing::TestParamInfo<MachineParam> &I) {
      return I.param.name();
    });

//===----------------------------------------------------------------------===//
// Heap-size sweep: results must not depend on GC frequency.
//===----------------------------------------------------------------------===//

class HeapSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HeapSweepTest, GcFrequencyDoesNotChangeResults) {
  EngineConfig C = config(2);
  C.InlineThreshold = 1;
  C.HeapWords = GetParam();
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
    (define (total l) (if (null? l) 0 (+ (car l) (total (cdr l)))))
    (let loop ((i 0) (acc 0))
      (if (= i 60)
          acc
          (loop (+ i 1) (+ acc (touch (future (total (build 300))))))))
  )lisp"),
            60 * (300 * 301 / 2));
  if (GetParam() <= (size_t(1) << 15)) {
    EXPECT_GE(E.gcStats().Collections, 1u)
        << "small heaps must actually have collected";
  }
}

INSTANTIATE_TEST_SUITE_P(HeapSizes, HeapSweepTest,
                         ::testing::Values(size_t(1) << 14, size_t(1) << 15,
                                           size_t(1) << 18, size_t(1) << 22),
                         [](const ::testing::TestParamInfo<size_t> &I) {
                           return "words" + std::to_string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Random-program property: Lisp mergesort agrees with std::sort.
//===----------------------------------------------------------------------===//

class SortPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SortPropertyTest, LispSortMatchesHostSort) {
  Prng R(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  size_t N = 1 + R.nextBelow(60);
  std::vector<int64_t> Input;
  std::string ListSrc = "(list";
  for (size_t I = 0; I < N; ++I) {
    int64_t X = static_cast<int64_t>(R.nextBelow(1000));
    Input.push_back(X);
    ListSrc += strFormat(" %lld", static_cast<long long>(X));
  }
  ListSrc += ")";

  EngineConfig C = config(1 + GetParam() % 4);
  C.InlineThreshold = 1;
  Engine E(C);
  evalOk(E, R"lisp(
    (define (merge! a b)
      (cond ((null? a) b)
            ((null? b) a)
            ((< (car a) (car b)) (set-cdr! a (merge! (cdr a) b)) a)
            (else (set-cdr! b (merge! a (cdr b))) b)))
    (define (split-after! l n)
      (if (= n 1)
          (let ((tail (cdr l))) (set-cdr! l '()) tail)
          (split-after! (cdr l) (- n 1))))
    (define (sort! l n)
      (if (< n 2)
          l
          (let ((half (quotient n 2)))
            (let ((right (split-after! l half)))
              (let ((a (future (sort! l half))))
                (let ((b (sort! right (- n half))))
                  (merge! (touch a) b)))))))
  )lisp");

  std::string Got = evalPrint(
      E, "(sort! " + ListSrc + " " + std::to_string(N) + ")");

  std::sort(Input.begin(), Input.end());
  std::string Want = "(";
  for (size_t I = 0; I < Input.size(); ++I)
    Want += strFormat(I ? " %lld" : "%lld", static_cast<long long>(Input[I]));
  Want += ")";
  EXPECT_EQ(Got, Want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortPropertyTest, ::testing::Range(0, 12));

} // namespace
