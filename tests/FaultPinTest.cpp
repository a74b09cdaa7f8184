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
     0xc95175b4ccdc9876ULL, false, false},
    {"SingleKill", "proc-kill=1@4000",
     0x7ce3a489753468f4ULL, false, false},
    {"TwoKillsUnderStealFail", "proc-kill=2@1500,0@9000; steal-fail=0.2",
     0x74206578b22f64ddULL, false, false},
    {"KillAtGcRendezvous", "proc-kill=3@2500; gc-at=2500; alloc-fail-every=31",
     0xf27e7c2b50a66eecULL, false, false},
    {"LieChecked", "proc-lie=1@4000; cross-check=1",
     0x108ea3db648a6c2aULL, false, false},
    {"KillInsideCollection", "gc-at=3000; proc-kill=1@3200",
     0xe08136d0071a0da3ULL, false, false},
    {"KillDuringRespawn", "proc-kill=1@4000,2@4064",
     0x97bc1e6a656cf87dULL, false, false},
    {"LieUnchecked", "proc-lie=2@2000; cross-check=0",
     0x2cd359be7fe44477ULL, false, false},
    {"QuotaSqueeze", "quota-squeeze=1@3000",
     0x04f41ae44a638e8aULL, false, false},
    {"DoubleQuotaSqueeze", "quota-squeeze=1@2000,1@6000",
     0x9267b204693392f6ULL, false, false},
    {"AdmitBurst", "admit-burst=8@2000",
     0xfc4793014c0ab0bbULL, false, false},
    {"SqueezeThenBurst", "quota-squeeze=1@2500; admit-burst=8@4000",
     0x4270960c0aaedefbULL, false, false},
    {"SqueezeThenKill", "quota-squeeze=1@3000; proc-kill=2@3100",
     0x7cd7ae31eecca600ULL, false, false},
    // One plan per clause the surviving plans do not exercise.
    {"AllocFail", "alloc-fail=3,40,41",
     0xfe7a8597a8d1e3cbULL, false, false},
    {"SpawnError", "spawn-error=25",
     0xd3d368b6a9e87e4fULL, false, false},
    {"TouchError", "touch-error=30",
     0x80f6d22cbc97f290ULL, false, false},
    {"StealFailAt", "steal-fail-at=1,2,5,9",
     0x81c5ecdef5aab94fULL, false, false},
    {"QueueCap", "queue-cap=0",
     0x3a8cbb0655e71e0fULL, false, false},
    {"Stall", "stall=1@1000+3000,2@500+200",
     0x164d6e72ee25c82bULL, false, false},
    {"AdaptClamp", "adapt-clamp=40@8,45@0",
     0x8da96687efe7910fULL, false, true},
    {"AdaptReset", "adapt-reset=41,42,47",
     0x0211761d4ed724ffULL, false, true},
    {"SeamSplitFail", "seam-split-fail=1,2,4",
     0x03360796e2de3cdcULL, true, false},
};

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
