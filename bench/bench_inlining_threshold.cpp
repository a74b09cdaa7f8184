//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation for the inlining threshold T of paper section 3, in two parts.
///
/// Part 1 (the paper's own table): Boyer and mergesort across T in
/// {0, 1, 2, 4, 8, inf} on 1 and 8 processors, reporting time and futures
/// created. The paper's headline data points: mergesort's futures drop
/// from 8191 to ~350 on 8 processors at T = 1 (here scaled: 2047 -> a few
/// hundred), and T = 1 removes most of Boyer's one-processor future
/// overhead.
///
/// Part 2 (the adaptive ablation): every static T against the adaptive
/// per-processor controller (sched/Adaptive.h) across three programs,
/// 1..16 processors and both steal orders. With MULT_METRICS=1 each run
/// emits a ";; run-json:" record tagged inl_<prog>_<order>_p<N>_<policy>
/// that tools/collect_metrics.py collects into the regression dashboard;
/// the human-readable table prints adaptive alongside the best static T
/// so the "adaptive matches or beats the best fixed threshold" claim is
/// one glance away.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "programs/BoyerProgram.h"
#include "programs/MergesortProgram.h"
#include "programs/PermuteProgram.h"
#include "programs/QueensProgram.h"

#include <algorithm>
#include <vector>

using namespace multbench;

namespace {

struct Cell {
  double Seconds;
  uint64_t Futures;
  uint64_t Inlined;
};

Cell run(const std::string &Setup, const std::string &Expr, unsigned Procs,
         std::optional<unsigned> T) {
  Engine E(machine(Procs, T));
  Cell C;
  C.Seconds = runVirtualSeconds(E, Setup, Expr);
  C.Futures = E.stats().FuturesCreated;
  C.Inlined = E.stats().TasksInlined;
  return C;
}

void sweep(const char *Name, const std::string &Setup,
           const std::string &Expr, unsigned Procs) {
  std::printf("\n  %s on %u processor(s):\n", Name, Procs);
  std::printf("    %-6s %10s %10s %10s\n", "T", "time", "futures",
              "inlined");
  static const std::optional<unsigned> Ts[] = {0u, 1u, 2u, 4u, 8u,
                                               std::nullopt};
  for (std::optional<unsigned> T : Ts) {
    Cell C = run(Setup, Expr, Procs, T);
    std::printf("    %-6s %10s %10llu %10llu\n",
                T ? std::to_string(*T).c_str() : "inf",
                formatSeconds(C.Seconds).c_str(),
                static_cast<unsigned long long>(C.Futures),
                static_cast<unsigned long long>(C.Inlined));
  }
}

// --- Part 2: adaptive vs static, tagged for the dashboard ---------------

struct Policy {
  const char *Name; // tag suffix and column header
  std::optional<unsigned> T;
  bool Adaptive;
};

struct Program {
  const char *Tag; // short, stable: part of the virtual-cycles tag
  const char *Title;
  const char *Setup;
  const char *Expr;
};

uint64_t runTagged(const Program &Prog, unsigned Procs, StealOrder Order,
                   const Policy &Pol, const std::string &Tag) {
  EngineConfig C = machine(Procs, Pol.T);
  C.StealPolicy = Order;
  C.AdaptiveInline = Pol.Adaptive; // explicit sweep: ignore MULT_ADAPTIVE_T
  Engine E(C);
  runVirtualSeconds(E, Prog.Setup, Prog.Expr);
  reportRun(E, Tag);
  return E.stats().ElapsedCycles;
}

void adaptiveSweep() {
  static const Policy Policies[] = {
      {"t0", 0u, false},          {"t1", 1u, false},
      {"t2", 2u, false},          {"t4", 4u, false},
      {"t8", 8u, false},          {"tinf", std::nullopt, false},
      {"adapt", std::nullopt, true},
  };
  static const Program Programs[] = {
      {"msort", "mergesort 2048", MergesortSource, "(mergesort-test 2048)"},
      {"queens", "queens 8", QueensSource, "(queens-par 8)"},
      {"permute", "permute", PermuteSource, "(permute-run 48 20 10 8 16)"},
  };
  static const unsigned ProcCounts[] = {1, 2, 4, 8, 16};
  static const struct {
    StealOrder Order;
    const char *Name;
  } Orders[] = {{StealOrder::Lifo, "lifo"}, {StealOrder::Fifo, "fifo"}};

  printTitle("Adaptive vs static threshold (total virtual cycles)");
  std::printf("  adaptive starts at T=1 and retunes per processor every "
              "window;\n  '*' marks the winner, 'best' the best static "
              "column.\n");
  for (const Program &Prog : Programs) {
    for (const auto &Ord : Orders) {
      std::printf("\n  %s, %s steal order:\n", Prog.Title, Ord.Name);
      std::printf("    %-5s", "procs");
      for (const Policy &Pol : Policies)
        std::printf(" %10s", Pol.Name);
      std::printf(" %10s\n", "best");
      for (unsigned Procs : ProcCounts) {
        std::printf("    %-5u", Procs);
        std::vector<uint64_t> Cycles;
        uint64_t BestStatic = ~0ull;
        for (const Policy &Pol : Policies) {
          std::string Tag = strFormat("inl_%s_%s_p%u_%s", Prog.Tag,
                                      Ord.Name, Procs, Pol.Name);
          uint64_t N = runTagged(Prog, Procs, Ord.Order, Pol, Tag);
          Cycles.push_back(N);
          if (!Pol.Adaptive && N < BestStatic)
            BestStatic = N;
        }
        uint64_t Best = *std::min_element(Cycles.begin(), Cycles.end());
        for (size_t I = 0; I < Cycles.size(); ++I)
          std::printf(" %9llu%c",
                      static_cast<unsigned long long>(Cycles[I]),
                      Cycles[I] == Best ? '*' : ' ');
        // How the adaptive column (last) compares against the best static.
        uint64_t Adapt = Cycles.back();
        std::printf(" %10s\n",
                    Adapt <= BestStatic
                        ? strFormat("<=%s", "static").c_str()
                        : strFormat("+%.1f%%",
                                    100.0 * (static_cast<double>(Adapt) -
                                             static_cast<double>(BestStatic)) /
                                        static_cast<double>(BestStatic))
                              .c_str());
      }
    }
  }
}

} // namespace

int main() {
  printTitle("Inlining-threshold ablation (paper section 3)");

  std::string BoyerSetup = std::string(BoyerCommonSource) + BoyerParallelArgs;
  sweep("parallel Boyer", BoyerSetup, "(boyer-test 1)", 1);
  sweep("parallel Boyer", BoyerSetup, "(boyer-test 1)", 8);
  sweep("mergesort 2048", MergesortSource, "(mergesort-test 2048)", 1);
  sweep("mergesort 2048", MergesortSource, "(mergesort-test 2048)", 8);

  printRule();
  std::printf("  paper: mergesort futures drop from 8191 (T=inf) to ~350 "
              "on 8 processors at T=1;\n"
              "  T=0 risks starvation/deadlock, T=1 buffers one task "
              "(section 3's recommendation).\n");

  adaptiveSweep();
  return 0;
}
