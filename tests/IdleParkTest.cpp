//===----------------------------------------------------------------------===//
///
/// \file
/// Idle parking is exact: a run whose idle processors park, and have
/// their empty steal sweeps charged in closed form, must end exactly where
/// the per-sweep loop that steps every sweep ends. That loop survives as
/// data: each scenario's pin is the FNV-1a hash of its outcome (run
/// result, every engine counter, every processor's clock and cycle
/// buckets, the collection count) recorded from a per-sweep run. The
/// dormant, traced and race-armed runs of each scenario must all match
/// it, and each must have parked.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "../bench/programs/MergesortProgram.h"
#include "../bench/programs/MiniCompilerProgram.h"
#include "../bench/programs/PermuteProgram.h"
#include "../bench/programs/QueensProgram.h"

#include <algorithm>
#include <array>
#include <sstream>
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

/// How a scenario is run. Tracing and race detection cost no virtual
/// time, so all three must reach the same outcome.
enum class Mode { Dormant, Traced, RaceArmed };
const char *const ModeName[] = {"dormant", "traced", "race-armed"};

Outcome runCase(EngineConfig C, const char *Setup, const std::string &Expr,
                Mode M) {
  C.EnableTracing = M == Mode::Traced;
  C.RaceDetect = M == Mode::RaceArmed;
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
  const Machine &Mach = E.machine();
  for (unsigned I = 0; I < Mach.numProcessors(); ++I) {
    const Processor &P = Mach.processor(I);
    O.Procs.push_back({P.Clock, P.busyCycles(), P.IdleCycles, P.GcCycles,
                       P.StealAttempts, P.StealsFailed, P.Dispatches});
  }
  O.Collections = E.gcStats().Collections;
  O.SweepsSettled = Mach.sweepsSettled();
  return O;
}

/// Every pinned field of \p O, one per line. SweepsSettled is left out:
/// it says how the run got to its outcome, not what the outcome is.
std::string renderOutcome(const Outcome &O) {
  std::ostringstream OS;
  OS << "kind " << O.Kind << "\nerror " << O.Error << "\nvalue " << O.Value
     << "\ncollections " << O.Collections << "\n";
  for (const auto &[K, V] : O.Counters)
    OS << K << ' ' << V << '\n';
  for (size_t P = 0; P < O.Procs.size(); ++P) {
    OS << "processor " << P;
    for (uint64_t F : O.Procs[P])
      OS << ' ' << F;
    OS << '\n';
  }
  return OS.str();
}

/// Runs \p Expr dormant, traced and race-armed; each outcome must hash to
/// \p Pin, and each run must have parked, or nothing was tested. Returns
/// the dormant outcome for case-specific checks.
Outcome expectPinnedOutcome(uint64_t Pin, const EngineConfig &C,
                            const char *Setup, const std::string &Expr) {
  Outcome Dormant;
  for (Mode M : {Mode::Dormant, Mode::Traced, Mode::RaceArmed}) {
    Outcome O = runCase(C, Setup, Expr, M);
    std::string Text = renderOutcome(O);
    uint64_t Got = fnv1a64(Text);
    EXPECT_EQ(Got, Pin) << ModeName[int(M)] << " run of " << Expr
                        << " drifted from its pin, got 0x" << std::hex << Got
                        << ":\n"
                        << Text;
    EXPECT_GT(O.SweepsSettled, 0u) << ModeName[int(M)] << " run of " << Expr;
    if (M == Mode::Dormant)
      Dormant = std::move(O);
  }
  return Dormant;
}

EngineConfig parkConfig(unsigned Procs) {
  EngineConfig C = config(Procs);
  C.HeapWords = size_t(1) << 18; // cheap engines; all runs share it
  return C;
}

//===----------------------------------------------------------------------===//
// Table 4's applications, at test size
//===----------------------------------------------------------------------===//

/// Processor counts each application runs at.
constexpr unsigned AppProcs[] = {2, 4, 12, 16};

struct App {
  const char *Name;
  const char *Source;
  const char *Expr;
  std::optional<unsigned> Threshold;
  /// Pins by AppProcs index, then LIFO, FIFO.
  uint64_t Pins[std::size(AppProcs)][2];
};

const App Apps[] = {
    {"permute", PermuteSource, "(permute-run 16 12 6 4 8)", std::nullopt,
     {{0x3c912672e014cb26ULL, 0x6381d191e38a21caULL},
      {0xbca773968f7a15b0ULL, 0xd2bc997beb590605ULL},
      {0x3a36a61264ae6ed7ULL, 0x3a36a61264ae6ed7ULL},
      {0x1a84bd1847af64feULL, 0x1a84bd1847af64feULL}}},
    {"queens", QueensSource, "(queens-par 6)", std::nullopt,
     {{0x054751de5b0a59d2ULL, 0x02ed7dc940da8ad4ULL},
      {0xc6fe0c9e6e77c17cULL, 0x7e9e9933fa218f13ULL},
      {0xfefbe7863c05904dULL, 0xde119bbc2e3264b0ULL},
      {0x6d5310cba155eeaeULL, 0xa1579cf93c4c3b53ULL}}},
    {"compiler", MiniCompilerSource,
     "(car (mc-compile-program (mc-gen-program 8 3) #t))", std::nullopt,
     {{0xc03adda72c499ceaULL, 0xc2bec2c7871d6862ULL},
      {0x2cb672dabc2ffb5aULL, 0xf39df94f6dd3e1caULL},
      {0xa3f1d90b2e983522ULL, 0xa3f1d90b2e983522ULL},
      {0x529f972f1375a862ULL, 0x1945c40b4458bed0ULL}}},
    {"msort", MergesortSource, "(mergesort-test 256)", 1u,
     {{0x6d38da7d4a2b4106ULL, 0x6d38da7d4a2b4106ULL},
      {0x3d4039c7d8952f13ULL, 0x3d4039c7d8952f13ULL},
      {0xe1cc02d99155bc18ULL, 0xe1cc02d99155bc18ULL},
      {0xaaff0143f7afe28bULL, 0xaaff0143f7afe28bULL}}},
};

using AppParam = std::tuple<size_t, unsigned, StealOrder>;

class IdleParkAppTest : public ::testing::TestWithParam<AppParam> {};

TEST_P(IdleParkAppTest, MatchesTracedRun) {
  auto [AppIdx, Procs, Order] = GetParam();
  const App &A = Apps[AppIdx];
  EngineConfig C = parkConfig(Procs);
  C.StealPolicy = Order;
  C.InlineThreshold = A.Threshold;
  size_t ProcsIdx = std::find(std::begin(AppProcs), std::end(AppProcs),
                              Procs) -
                    std::begin(AppProcs);
  uint64_t Pin = A.Pins[ProcsIdx][Order == StealOrder::Fifo];
  Outcome O = expectPinnedOutcome(Pin, C, A.Source, A.Expr);
  EXPECT_EQ(O.Kind, static_cast<int>(EvalResult::Kind::Value)) << O.Error;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, IdleParkAppTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(Apps)),
                       ::testing::ValuesIn(AppProcs),
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
  Outcome O = expectPinnedOutcome(
      0x00cdae4a70654d77ULL, parkConfig(4), SpinSource,
      "(begin (future (spin 3000)) (future (spin 5000))"
      " (semaphore-p (make-semaphore)))");
  EXPECT_EQ(O.Kind, static_cast<int>(EvalResult::Kind::Deadlock));
}

TEST(IdleParkTest, CycleLimitMatchesTracedRun) {
  // A runaway root beside one finite spinner: parked processors' wake
  // clocks decide which processor trips MaxRunCycles, and when.
  for (auto [Procs, Pin] : {std::pair{2u, 0x332bce0900edaa6cULL}, std::pair{5u, 0x8d46b566c292bf7bULL}}) {
    EngineConfig C = parkConfig(Procs);
    C.MaxRunCycles = 250'000;
    Outcome O = expectPinnedOutcome(Pin, C, SpinSource,
                                    "(begin (future (spin 4000)) (forever))");
    EXPECT_EQ(O.Kind, static_cast<int>(EvalResult::Kind::CycleLimit))
        << "procs=" << Procs;
  }
}

TEST(IdleParkTest, AdaptiveInlineMatchesTracedRun) {
  // Adaptive windows close at a parked processor's wake clock.
  for (auto [Procs, Pin] : {std::pair{4u, 0x85897cffe7306e15ULL}, std::pair{12u, 0xdf2d8b13b271787bULL}}) {
    EngineConfig C = parkConfig(Procs);
    C.AdaptiveInline = true;
    Outcome O =
        expectPinnedOutcome(Pin, C, MergesortSource, "(mergesort-test 512)");
    EXPECT_EQ(O.Value, "#t") << "procs=" << Procs;
    EXPECT_GT(counter(O, "adapt-windows"), 0u) << "procs=" << Procs;
  }
}

TEST(IdleParkTest, MidRunCollectionMatchesTracedRun) {
  // The GC rendezvous reads every clock, parked ones included.
  EngineConfig C = parkConfig(4);
  C.HeapWords = size_t(1) << 16;
  Outcome O = expectPinnedOutcome(
      0xe5b51d5aa0d852e1ULL, C,
      "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
      "(define (churn k acc)"
      "  (if (= k 0) acc (churn (- k 1) (+ acc (length (build 500))))))",
      "(+ (touch (future (churn 30 0))) (touch (future (churn 40 0))))");
  EXPECT_EQ(O.Value, "35000");
  EXPECT_GT(O.Collections, 0u) << "the heap must collect mid-run";
}

} // namespace
