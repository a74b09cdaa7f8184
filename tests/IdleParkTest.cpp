//===----------------------------------------------------------------------===//
///
/// \file
/// Idle parking is exact: a dormant run, whose idle processors park and
/// have their empty steal sweeps charged in closed form, must match the
/// same run with tracing on. Tracing costs no virtual time and keeps the
/// per-sweep loop (it observes individual probes), so the traced run is
/// the oracle. Every run result, every engine counter and every
/// processor's clock and cycle buckets must agree.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "../bench/programs/MergesortProgram.h"
#include "../bench/programs/MiniCompilerProgram.h"
#include "../bench/programs/PermuteProgram.h"
#include "../bench/programs/QueensProgram.h"

#include <array>
#include <tuple>

using namespace mult;
using namespace mult::testutil;

namespace {

/// Everything the comparison covers, after all of a case's evals.
struct Outcome {
  int Kind = 0;
  std::string Error;
  std::string Value;
  std::vector<std::pair<const char *, uint64_t>> Counters;
  /// Clock, busy, idle, GC, steal attempts, steals failed, dispatches.
  std::vector<std::array<uint64_t, 7>> Procs;
  uint64_t Collections = 0;
  uint64_t SweepsSettled = 0;
};

uint64_t counter(const Outcome &O, std::string_view Key) {
  for (const auto &[K, V] : O.Counters)
    if (K == Key)
      return V;
  ADD_FAILURE() << "no counter " << Key;
  return 0;
}

Outcome runCase(EngineConfig C, const char *Setup, const std::string &Expr,
                bool Traced) {
  C.EnableTracing = Traced;
  Engine E(C);
  if (Setup)
    evalOk(E, Setup);
  EvalResult R = E.eval(Expr);
  Outcome O;
  O.Kind = static_cast<int>(R.K);
  O.Error = R.Error;
  O.Value = R.ok() ? valueToString(R.Val) : std::string();
  const EngineStats &S = E.stats();
#define MULT_PARK_COUNTER(Field, Key, Label, Section)                         \
  O.Counters.emplace_back(Key, S.Field);
  MULT_ENGINE_COUNTERS(MULT_PARK_COUNTER)
#undef MULT_PARK_COUNTER
  const Machine &M = E.machine();
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    O.Procs.push_back({P.Clock, P.BusyCycles, P.IdleCycles, P.GcCycles,
                       P.StealAttempts, P.StealsFailed, P.Dispatches});
  }
  O.Collections = E.gcStats().Collections;
  O.SweepsSettled = M.sweepsSettled();
  return O;
}

/// Runs \p Expr dormant and traced and requires identical outcomes.
/// Returns the dormant outcome for case-specific checks.
Outcome expectParity(const EngineConfig &C, const char *Setup,
                     const std::string &Expr) {
  Outcome Parked = runCase(C, Setup, Expr, /*Traced=*/false);
  Outcome Stepped = runCase(C, Setup, Expr, /*Traced=*/true);
  EXPECT_EQ(Parked.Kind, Stepped.Kind) << Expr;
  EXPECT_EQ(Parked.Error, Stepped.Error) << Expr;
  EXPECT_EQ(Parked.Value, Stepped.Value) << Expr;
  EXPECT_EQ(Parked.Collections, Stepped.Collections) << Expr;
  for (size_t I = 0; I < Parked.Counters.size(); ++I)
    EXPECT_EQ(Parked.Counters[I].second, Stepped.Counters[I].second)
        << Parked.Counters[I].first << " for " << Expr;
  static const char *const ProcField[] = {
      "clock", "busy", "idle", "gc", "steal-attempts", "steals-failed",
      "dispatches"};
  for (size_t P = 0; P < Parked.Procs.size(); ++P)
    for (size_t F = 0; F < Parked.Procs[P].size(); ++F)
      EXPECT_EQ(Parked.Procs[P][F], Stepped.Procs[P][F])
          << "processor " << P << " " << ProcField[F] << " for " << Expr;
  // The oracle never parks; the dormant run must, or nothing was tested.
  EXPECT_EQ(Stepped.SweepsSettled, 0u);
  EXPECT_GT(Parked.SweepsSettled, 0u) << Expr;
  return Parked;
}

EngineConfig parkConfig(unsigned Procs) {
  EngineConfig C = config(Procs);
  C.HeapWords = size_t(1) << 18; // cheap engines; both runs share it
  return C;
}

//===----------------------------------------------------------------------===//
// Table 4's applications, at test size
//===----------------------------------------------------------------------===//

struct App {
  const char *Name;
  const char *Source;
  const char *Expr;
  std::optional<unsigned> Threshold;
};

const App Apps[] = {
    {"permute", PermuteSource, "(permute-run 16 12 6 4 8)", std::nullopt},
    {"queens", QueensSource, "(queens-par 6)", std::nullopt},
    {"compiler", MiniCompilerSource,
     "(car (mc-compile-program (mc-gen-program 8 3) #t))", std::nullopt},
    {"msort", MergesortSource, "(mergesort-test 256)", 1u},
};

using AppParam = std::tuple<size_t, unsigned, StealOrder>;

class IdleParkAppTest : public ::testing::TestWithParam<AppParam> {};

TEST_P(IdleParkAppTest, MatchesTracedRun) {
  auto [AppIdx, Procs, Order] = GetParam();
  const App &A = Apps[AppIdx];
  EngineConfig C = parkConfig(Procs);
  C.StealPolicy = Order;
  C.InlineThreshold = A.Threshold;
  Outcome O = expectParity(C, A.Source, A.Expr);
  EXPECT_EQ(O.Kind, static_cast<int>(EvalResult::Kind::Value)) << O.Error;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, IdleParkAppTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(Apps)),
                       ::testing::Values(2u, 4u, 12u, 16u),
                       ::testing::Values(StealOrder::Lifo, StealOrder::Fifo)),
    [](const ::testing::TestParamInfo<AppParam> &Info) {
      return std::string(Apps[std::get<0>(Info.param)].Name) + "_p" +
             std::to_string(std::get<1>(Info.param)) +
             (std::get<2>(Info.param) == StealOrder::Lifo ? "_lifo"
                                                          : "_fifo");
    });

//===----------------------------------------------------------------------===//
// Run endings and the layers that move parked clocks
//===----------------------------------------------------------------------===//

constexpr const char SpinSource[] =
    "(define (spin n) (if (= n 0) 0 (spin (- n 1))))"
    "(define (forever) (forever))";

TEST(IdleParkTest, DeadlockMatchesTracedRun) {
  // Two spinners keep processors running while the others park; when the
  // last one finishes, nothing is running and the root is blocked.
  Outcome O = expectParity(
      parkConfig(4), SpinSource,
      "(begin (future (spin 3000)) (future (spin 5000))"
      " (semaphore-p (make-semaphore)))");
  EXPECT_EQ(O.Kind, static_cast<int>(EvalResult::Kind::Deadlock));
}

TEST(IdleParkTest, CycleLimitMatchesTracedRun) {
  // A runaway root beside one finite spinner: parked processors' wake
  // clocks decide which processor trips MaxRunCycles, and when.
  for (unsigned Procs : {2u, 5u}) {
    EngineConfig C = parkConfig(Procs);
    C.MaxRunCycles = 250'000;
    Outcome O = expectParity(C, SpinSource,
                             "(begin (future (spin 4000)) (forever))");
    EXPECT_EQ(O.Kind, static_cast<int>(EvalResult::Kind::CycleLimit))
        << "procs=" << Procs;
  }
}

TEST(IdleParkTest, AdaptiveInlineMatchesTracedRun) {
  // Adaptive windows close at a parked processor's wake clock.
  for (unsigned Procs : {4u, 12u}) {
    EngineConfig C = parkConfig(Procs);
    C.AdaptiveInline = true;
    Outcome O = expectParity(C, MergesortSource, "(mergesort-test 512)");
    EXPECT_EQ(O.Value, "#t") << "procs=" << Procs;
    EXPECT_GT(counter(O, "adapt-windows"), 0u) << "procs=" << Procs;
  }
}

TEST(IdleParkTest, MidRunCollectionMatchesTracedRun) {
  // The GC rendezvous reads every clock, parked ones included.
  EngineConfig C = parkConfig(4);
  C.HeapWords = size_t(1) << 16;
  Outcome O = expectParity(
      C,
      "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
      "(define (churn k acc)"
      "  (if (= k 0) acc (churn (- k 1) (+ acc (length (build 500))))))",
      "(+ (touch (future (churn 30 0))) (touch (future (churn 40 0))))");
  EXPECT_EQ(O.Value, "35000");
  EXPECT_GT(O.Collections, 0u) << "the heap must collect mid-run";
}

} // namespace
