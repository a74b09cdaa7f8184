//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the section 2.2 claim about implicit-touch overhead:
/// "In several benchmarks the overhead without these optimizations was
/// about 100%; with the optimizations it ranges from under 20% to nearly
/// 100%; however, 65% seems to be a fairly typical number for programs
/// that do not heavily emphasize iterative loops."
///
/// For every benchmark program we compile it three ways (T3 / touches /
/// touches+opt) on one processor and report the overhead relative to T3.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "programs/BoyerProgram.h"
#include "programs/MergesortProgram.h"
#include "programs/MiniCompilerProgram.h"
#include "programs/PermuteProgram.h"
#include "programs/QueensProgram.h"

using namespace multbench;

namespace {

struct Workload {
  const char *Name;
  std::string Setup;
  std::string Expr;
  const char *Note;
};

double run(const Workload &W, bool Touches, bool Optimize) {
  EngineConfig C = machine(1, /*InlineT=*/0); // inline futures: measure
                                              // pure touch overhead
  C.EmitTouchChecks = Touches;
  C.OptimizeTouches = Optimize;
  Engine E(C);
  double Seconds = runVirtualSeconds(E, W.Setup, W.Expr);
  reportRun(E, strFormat("touch_%s_%s", W.Name,
                         !Touches ? "t3" : Optimize ? "opt" : "raw"));
  return Seconds;
}

} // namespace

int main() {
  std::vector<Workload> Workloads = {
      {"boyer", std::string(BoyerCommonSource) + BoyerSequentialArgs,
       "(boyer-test 1)", "rewrite-heavy, few loops"},
      {"queens", QueensSource, "(queens-seq 8)", "search, some loops"},
      {"compiler", MiniCompilerSource,
       "(mc-compile-program (mc-gen-program 21 6) #f)",
       "transformation passes"},
      {"mergesort", MergesortSource, "(mergesort-test 2048)",
       "tight loops (paper: stays near 100%)"},
      {"permute", PermuteSource, "(permute-run 32 20 10 8 8)",
       "vector loops"},
      {"arith-loop",
       "(define (spin n acc) (if (= n 0) acc (spin (- n 1) (+ acc n))))",
       "(spin 200000 0)", "pure iteration (best case for the optimizer)"},
  };

  printTitle("Implicit-touch overhead relative to T3 (section 2.2)");
  std::printf("  %-11s %10s %10s %10s %9s %9s   %s\n", "program", "T3",
              "no-opt", "opt", "ovh-raw", "ovh-opt", "note");
  double SumOpt = 0;
  int N = 0;
  for (const Workload &W : Workloads) {
    double T3 = run(W, false, false);
    double Raw = run(W, true, false);
    double Opt = run(W, true, true);
    double OvhRaw = (Raw / T3 - 1.0) * 100.0;
    double OvhOpt = (Opt / T3 - 1.0) * 100.0;
    SumOpt += OvhOpt;
    ++N;
    std::printf("  %-11s %10s %10s %10s %8.0f%% %8.0f%%   %s\n", W.Name,
                formatSeconds(T3).c_str(), formatSeconds(Raw).c_str(),
                formatSeconds(Opt).c_str(), OvhRaw, OvhOpt, W.Note);
  }
  printRule();
  std::printf("  mean optimized overhead: %.0f%%   (paper: <20%% to ~100%%, "
              "~65%% typical; ~100%% unoptimized)\n",
              SumOpt / N);
  return 0;
}
