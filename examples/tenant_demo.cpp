//===----------------------------------------------------------------------===//
///
/// \file
/// Tenant fault domains in action: three groups run as co-tenants of one
/// machine — one trips its heap quota, one trips its cycle budget, and
/// the third finishes with the right answer, unbothered. A second act
/// puts the budget-tripper under a restart/backoff supervisor and lets
/// it run to completion across attempts.
///
/// Everything happens in virtual time, so the whole thing — results,
/// supervisor transcript, elapsed cycles — is bit-identical across
/// reruns and across processor counts. The demo checks that itself: it
/// replays each scenario five times at 1, 4, and 16 processors and
/// exits nonzero if anything drifts.
///
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/Tenancy.h"

#include "runtime/Printer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace mult;

namespace {

/// One full run of the three-tenant scenario; returns a transcript of
/// everything observable (per-launch outcomes + supervisor decisions +
/// counters) so reruns can be compared byte-for-byte.
std::string runScenario(unsigned Procs, bool Supervised) {
  EngineConfig Cfg;
  Cfg.NumProcessors = Procs;
  Engine E(Cfg);

  std::vector<GroupLaunch> L(3);
  // Tenant 0: builds a 500-pair live list (~1500+ words) under a
  // 256-word quota — trips group-heap-quota.
  L[0].Source = "(begin"
                " (define (build n)"
                "   (if (= n 0) '() (cons n (build (- n 1)))))"
                " (length (build 500)))";
  L[0].HeapQuotaWords = 256;
  // Tenant 1: spins far past a 2000-cycle budget — trips
  // group-cycle-budget. Under supervision each restart opens a fresh
  // envelope, so enough attempts carry it to completion.
  L[1].Source = "(let loop ((i 0)) (if (= i 3000) 'spun (loop (+ i 1))))";
  L[1].CycleBudget = 2000;
  if (Supervised)
    L[1].Supervise = "restart:max=50,backoff=256";
  // Tenant 2: a well-behaved neighbour.
  L[2].Source = "(+ 40 2)";

  std::vector<EvalResult> R = E.evalGroups(L);

  std::string Out;
  for (size_t I = 0; I < R.size(); ++I) {
    Out += "  tenant " + std::to_string(I) + ": ";
    if (R[I].ok())
      Out += "=> " + valueToString(R[I].Val);
    else
      Out += R[I].Error;
    Out += '\n';
  }
  Out += "  supervisor transcript:\n";
  const std::vector<std::string> &T =
      E.tenancy()->supervisor().transcript();
  if (T.empty())
    Out += "    (no decisions)\n";
  for (const std::string &Line : T)
    Out += "    " + Line + '\n';
  const EngineStats &S = E.stats();
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "  %llu quota stops, %llu budget stops, %llu restarts, "
                "%llu cycles elapsed\n",
                static_cast<unsigned long long>(S.QuotaStops),
                static_cast<unsigned long long>(S.BudgetStops),
                static_cast<unsigned long long>(S.SupervisorRestarts),
                static_cast<unsigned long long>(S.ElapsedCycles));
  Out += Buf;
  return Out;
}

} // namespace

int main() {
  bool Drifted = false;
  for (bool Supervised : {false, true}) {
    std::printf("%s\n", Supervised
                            ? "=== Act 2: same tenants, budget-tripper under "
                              "restart:max=50,backoff=256 ==="
                            : "=== Act 1: three tenants, no supervisor "
                              "(one-shot stops) ===");
    for (unsigned Procs : {1u, 4u, 16u}) {
      std::string First = runScenario(Procs, Supervised);
      unsigned Stable = 1;
      for (int Rerun = 0; Rerun < 4; ++Rerun)
        if (runScenario(Procs, Supervised) == First)
          ++Stable;
      std::printf("-- %u processor%s (%u/5 reruns identical):\n%s", Procs,
                  Procs == 1 ? "" : "s", Stable, First.c_str());
      if (Stable != 5) {
        std::printf("!! transcript drifted across reruns\n");
        Drifted = true;
      }
    }
    std::printf("\n");
  }
  if (Drifted)
    return 1;
  std::printf("All scenarios replayed bit-identically (5 runs each at 1, 4, "
              "and 16 processors).\n");
  return 0;
}
