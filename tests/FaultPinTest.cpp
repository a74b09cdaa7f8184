//===----------------------------------------------------------------------===//
///
/// \file
/// Pinned run fingerprints under fault plans: every curated surviving plan
/// (tests/plans/surviving_plans.txt) plus one plan for each clause those
/// plans leave uncovered, run traced on 4 processors. Each pin is the
/// FNV-1a hash of a full RunFingerprint (result, virtual cycles, counters
/// and the serialized trace), so a change to when or how a clause fires
/// moves a pin even where the program's answer stays the same.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace mult;
using namespace mult::testutil;

namespace {

/// The program the chaos CI jobs replay every surviving plan against.
const char *FibProgram =
    "(begin (define (fib n) (if (< n 2) n (+ (touch (future (fib (- n 1)))) "
    "(fib (- n 2))))) (fib 15))";

struct PinnedPlan {
  const char *Name; ///< test-name suffix
  const char *Spec; ///< MULT_FAULTS spec
  uint64_t Pin;     ///< fingerprintHash of the traced 4-processor run
  bool Lazy;        ///< run with lazy futures (seam-split clauses)
  bool Adaptive;    ///< run with the adaptive inlining controller
};

const PinnedPlan Plans[] = {
    // The 13 curated surviving plans, in file order.
    {"OrphanKill", "proc-kill=3@4000",
     0x0b57ec9c35482aefULL, false, false},
    {"SingleKill", "proc-kill=1@4000",
     0x461bc645acfb9072ULL, false, false},
    {"TwoKillsUnderStealFail", "proc-kill=2@1500,0@9000; steal-fail=0.2",
     0x89d3216c03061f29ULL, false, false},
    {"KillAtGcRendezvous", "proc-kill=3@2500; gc-at=2500; alloc-fail-every=31",
     0xfdf99385e122cebbULL, false, false},
    {"LieChecked", "proc-lie=1@4000; cross-check=1",
     0x9fb755591ee0b47fULL, false, false},
    {"KillInsideCollection", "gc-at=3000; proc-kill=1@3200",
     0x418590158fa9e954ULL, false, false},
    {"KillDuringRespawn", "proc-kill=1@4000,2@4064",
     0x56e040ae9be4e3a6ULL, false, false},
    {"LieUnchecked", "proc-lie=2@2000; cross-check=0",
     0x4034fd429c6e9f75ULL, false, false},
    {"QuotaSqueeze", "quota-squeeze=1@3000",
     0xf2431c1d66c8da3aULL, false, false},
    {"DoubleQuotaSqueeze", "quota-squeeze=1@2000,1@6000",
     0x823ec0d13e323e27ULL, false, false},
    {"AdmitBurst", "admit-burst=8@2000",
     0x5517d435e01b9056ULL, false, false},
    {"SqueezeThenBurst", "quota-squeeze=1@2500; admit-burst=8@4000",
     0x3fd37a04d2862d81ULL, false, false},
    {"SqueezeThenKill", "quota-squeeze=1@3000; proc-kill=2@3100",
     0xca11d0956a1f6b36ULL, false, false},
    // One plan per clause the surviving plans do not exercise.
    {"AllocFail", "alloc-fail=3,40,41",
     0xce2c36476e9f5d55ULL, false, false},
    {"SpawnError", "spawn-error=25",
     0x087a9e2e9960377dULL, false, false},
    {"TouchError", "touch-error=30",
     0x15e53209757bf73aULL, false, false},
    {"StealFailAt", "steal-fail-at=1,2,5,9",
     0xc16c08c8ef12e676ULL, false, false},
    {"QueueCap", "queue-cap=0",
     0x777e829df414bd51ULL, false, false},
    {"Stall", "stall=1@1000+3000,2@500+200",
     0x745ac4deeb56745aULL, false, false},
    {"AdaptClamp", "adapt-clamp=40@8,45@0",
     0xcab5494247e83f2cULL, false, true},
    {"AdaptReset", "adapt-reset=41,42,47",
     0x3cead38dee776b81ULL, false, true},
    {"SeamSplitFail", "seam-split-fail=1,2,4",
     0xc6e166e1ebe722a0ULL, true, false},
};

/// Print a plan as its name. gtest's default byte dump would show the
/// addresses of Name and Spec, which move with ASLR, and ctest takes the
/// printed parameter into each test's name.
void PrintTo(const PinnedPlan &P, std::ostream *OS) { *OS << P.Name; }

class FaultPinTest : public ::testing::TestWithParam<PinnedPlan> {};

TEST_P(FaultPinTest, TracedFourProcessorRun) {
  const PinnedPlan &P = GetParam();
  RunOpts O;
  O.Procs = 4;
  O.Trace = true;
  O.Faults = P.Spec;
  O.Configure = [&P](EngineConfig &C) {
    C.LazyFutures = P.Lazy;
    if (P.Adaptive) {
      C.AdaptiveInline = true;
      C.AdaptiveWindowCycles = 512;
    }
  };
  RunFingerprint F = runOnce(FibProgram, O);
  EXPECT_GT(F.FaultsInjected, 0u)
      << "plan `" << P.Spec << "` fired nothing, so its pin proves nothing";
  uint64_t Got = fingerprintHash(F);
  EXPECT_EQ(Got, P.Pin) << "plan `" << P.Spec << "` drifted, got 0x"
                        << std::hex << Got << ":\n"
                        << renderFields(F);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, FaultPinTest, ::testing::ValuesIn(Plans),
    [](const ::testing::TestParamInfo<PinnedPlan> &I) {
      return std::string(I.param.Name);
    });

} // namespace
