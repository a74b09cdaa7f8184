//===----------------------------------------------------------------------===//
///
/// \file
/// Pinned outcomes of runs whose per-quantum decisions the run loop makes
/// at exact boundary clocks: a run cycle limit landing mid-run, a cycle
/// budget stop and its resumes, adaptive-window closes, a heap that runs
/// out (the fruitless-collection and same-spot paths) and a sequential
/// phase beside parked processors that ends in a spawn. Each scenario is
/// run dormant, traced and race-armed; all three must reach the outcome
/// hashed into its first pin (result, every engine counter, every
/// processor's clock, cycle buckets and probe counts, the collection
/// count), and the traced run's event stream must hash to its second pin.
/// The pins were recorded from a run loop that stepped every quantum.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "../bench/programs/MergesortProgram.h"

#include <array>
#include <functional>

using namespace mult;
using namespace mult::testutil;

namespace {

enum class Mode { Dormant, Traced, RaceArmed };
const char *const ModeName[] = {"dormant", "traced", "race-armed"};

struct Scenario {
  unsigned Procs;
  std::function<void(EngineConfig &)> Configure;
  const char *Setup;
  /// Runs the scenario's evals; returns one result line per eval.
  std::function<std::string(Engine &)> Run;
};

/// One eval's result line: its kind and value or error text.
std::string resultLine(const EvalResult &R) {
  return std::to_string(static_cast<int>(R.K)) + ' ' +
         (R.ok() ? valueToString(R.Val) : R.Error) + '\n';
}

/// The outcome text of \p S run in mode \p M; \p Trace receives the
/// serialized trace (empty unless traced).
std::string runScenario(const Scenario &S, Mode M, std::string &Trace) {
  EngineConfig C = config(S.Procs);
  C.HeapWords = size_t(1) << 18;
  if (S.Configure)
    S.Configure(C);
  C.EnableTracing = M == Mode::Traced;
  C.RaceDetect = M == Mode::RaceArmed;
  Engine E(C);
  if (S.Setup)
    evalOk(E, S.Setup);
  std::ostringstream OS;
  OS << S.Run(E);
  const EngineStats &St = E.stats();
#define MULT_PIN_COUNTER(Field, Key, Label, Section)                          \
  OS << Key << ' ' << St.Field << '\n';
  MULT_ENGINE_COUNTERS(MULT_PIN_COUNTER)
#undef MULT_PIN_COUNTER
  const Machine &Mach = E.machine();
  for (unsigned I = 0; I < Mach.numProcessors(); ++I) {
    const Processor &P = Mach.processor(I);
    OS << "processor " << I;
    for (uint64_t F : {P.Clock, P.busyCycles(), P.IdleCycles, P.GcCycles,
                       P.Instructions, P.StealAttempts, P.StealsFailed,
                       P.Dispatches, P.Adapt.WindowsClosed,
                       uint64_t(P.Adapt.T)})
      OS << ' ' << F;
    OS << '\n';
  }
  OS << "collections " << E.gcStats().Collections << '\n';
  Trace = M == Mode::Traced ? serializeTrace(E.tracer()) : std::string();
  return OS.str();
}

/// Runs \p S in every mode against its outcome and trace pins; returns
/// the dormant outcome text for scenario-specific checks.
std::string expectPinnedScenario(const Scenario &S, uint64_t OutcomePin,
                                 uint64_t TracePin) {
  std::string Dormant;
  for (Mode M : {Mode::Dormant, Mode::Traced, Mode::RaceArmed}) {
    std::string Trace;
    std::string Text = runScenario(S, M, Trace);
    uint64_t Got = fnv1a64(Text);
    EXPECT_EQ(Got, OutcomePin)
        << ModeName[int(M)] << " run drifted from its pin, got 0x" << std::hex
        << Got << ":\n"
        << Text;
    if (M == Mode::Traced) {
      uint64_t GotTrace = fnv1a64(Trace);
      EXPECT_EQ(GotTrace, TracePin)
          << "trace drifted from its pin, got 0x" << std::hex << GotTrace
          << " (" << std::dec << Trace.size() << " chars)";
    }
    if (M == Mode::Dormant)
      Dormant = std::move(Text);
  }
  return Dormant;
}

bool has(const std::string &Text, std::string_view Needle) {
  return Text.find(Needle) != std::string::npos;
}

/// Evaluates \p Expr once.
std::function<std::string(Engine &)> evalOnce(std::string Expr) {
  return [Expr](Engine &E) { return resultLine(E.eval(Expr)); };
}

constexpr const char SpinSource[] =
    "(define (spin n) (if (= n 0) 0 (spin (- n 1))))"
    "(define (forever) (forever))";

TEST(SliceHorizonPinTest, RunCycleLimitMidRun) {
  auto Limit = [](EngineConfig &C) { C.MaxRunCycles = 250'001; };
  expectPinnedScenario({1, Limit, SpinSource, evalOnce("(forever)")},
                       0xe1288e78f3b93857ULL, 0x8a6a2fc5e64ee095ULL);
  expectPinnedScenario({4, Limit, SpinSource,
                        evalOnce("(begin (future (spin 4000)) (forever))")},
                       0xecbfad0710b01811ULL, 0x7334562110f76074ULL);
}

TEST(SliceHorizonPinTest, CycleBudgetStopThenResume) {
  // A finite loop three budgets long: each resume is a new run with a
  // fresh budget, and the last one finishes.
  auto Budget = [](EngineConfig &C) { C.MaxCycles = 100'003; };
  auto Run = [](Engine &E) {
    EvalResult R = E.eval("(spin 25000)");
    std::string Out = resultLine(R);
    for (int Resumes = 0; !R.ok() && Resumes < 8; ++Resumes) {
      R = E.resumeGroup(R.StoppedGroup, Value::falseV());
      Out += resultLine(R);
    }
    return Out;
  };
  expectPinnedScenario({1, Budget, SpinSource, Run}, 0xdb9c28719a7d43c4ULL,
                       0x46f6a1ea50b6151dULL);
}

TEST(SliceHorizonPinTest, AdaptiveWindowCloses) {
  auto Adaptive = [](EngineConfig &C) { C.AdaptiveInline = true; };
  expectPinnedScenario(
      {1, Adaptive, MergesortSource, evalOnce("(mergesort-test 256)")},
      0x381240fcb2cdd470ULL, 0xa42d7fd0ac354603ULL);
  expectPinnedScenario(
      {4, Adaptive, MergesortSource, evalOnce("(mergesort-test 256)")},
      0xe1ad25e615f3ffd7ULL, 0xed328d1fb1c40ce0ULL);
}

TEST(SliceHorizonPinTest, HeapExhaustedAtOneProcessor) {
  // A list that outgrows the heap (collections reclaim nothing), then one
  // allocation larger than the collected heap (the same-spot retries).
  auto Small = [](EngineConfig &C) { C.HeapWords = size_t(1) << 14; };
  auto Run = [](Engine &E) {
    std::string Out = resultLine(E.eval("(reverse (build-acc 4000 '()))"));
    Out += resultLine(E.eval("(length (build 40000))"));
    return Out;
  };
  std::string O = expectPinnedScenario(
      {1, Small,
       "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))"
       "(define (build-acc n acc)"
       "  (if (= n 0) acc (build-acc (- n 1) (cons n acc))))",
       Run},
      0xe8e1ff9d56371ceeULL, 0xd5dc58df3ff9e70fULL);
  EXPECT_TRUE(has(O, "single operation")) << O;
  EXPECT_TRUE(has(O, "collection reclaimed no space")) << O;
}

TEST(SliceHorizonPinTest, SequentialPhaseBesideParkedProcessors) {
  // The others park at once; the root runs alone for many quanta, then
  // spawns, and the spawn settles them.
  expectPinnedScenario(
      {4, nullptr, SpinSource,
       evalOnce("(begin (spin 5000)"
                " (let ((f (future (spin 3000)))) (+ (spin 2000) (touch f)))"
                " (spin 4000))")},
      0xf695aa553f8ea1bdULL, 0x1a3ce2d20bdcfad5ULL);
}

} // namespace
