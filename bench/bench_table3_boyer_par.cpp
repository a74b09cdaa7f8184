//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates paper Table 3: the parallel Boyer benchmark across
/// processor counts, with and without inlining. The paper's rows:
///
///   processors:          1    2    4    8
///   without inlining:   44   23   12   7.5   seconds
///   with inlining T=1:  25   13    7   4
///
/// The claims under test: (a) futures add real overhead on one processor
/// (44 vs the sequential 24), (b) speedup is substantial, beating the T3
/// sequential time by 4-8 processors, (c) inlining removes most of the
/// future overhead (44 -> 25 on one processor) while preserving speedup.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "programs/BoyerProgram.h"

using namespace multbench;

namespace {

double runParallelBoyer(unsigned Procs, std::optional<unsigned> T,
                        int Iterations, uint64_t *FuturesOut) {
  Engine E(machine(Procs, T));
  std::string Setup = std::string(BoyerCommonSource) + BoyerParallelArgs;
  std::string Result;
  double Secs = runVirtualSeconds(
      E, Setup, "(boyer-test " + std::to_string(Iterations) + ")", &Result);
  if (Result != "#t") {
    std::fprintf(stderr, "parallel boyer failed: %s\n", Result.c_str());
    std::exit(1);
  }
  if (FuturesOut)
    *FuturesOut = E.stats().FuturesCreated;
  reportRun(E, strFormat("boyer_par_p%u_%s", Procs,
                         T ? strFormat("t%u", *T).c_str() : "noinline"));
  return Secs / Iterations;
}

} // namespace

int main(int argc, char **argv) {
  int Iterations = argc > 1 ? std::atoi(argv[1]) : 1;
  static const unsigned Procs[] = {1, 2, 4, 8};
  static const char *PaperNoInline[] = {"44", "23", "12", "7.5"};
  static const char *PaperInline[] = {"25", "13", "7", "4"};

  printTitle("Table 3: parallel Boyer benchmark (virtual seconds)");
  std::printf("  %-26s", "processors:");
  for (unsigned P : Procs)
    std::printf(" %8u", P);
  std::printf("\n");

  std::printf("  %-26s", "without inlining (T=inf)");
  double NoInline1 = 0;
  for (unsigned P : Procs) {
    uint64_t Futures = 0;
    double S = runParallelBoyer(P, std::nullopt, Iterations, &Futures);
    if (P == 1)
      NoInline1 = S;
    std::printf(" %8s", formatSeconds(S).c_str());
  }
  std::printf("\n  %-26s", "  (paper)");
  for (const char *S : PaperNoInline)
    std::printf(" %8s", S);
  std::printf("\n");

  std::printf("  %-26s", "with inlining (T=1)");
  double Inline1 = 0;
  for (unsigned P : Procs) {
    uint64_t Futures = 0;
    double S = runParallelBoyer(P, 1u, Iterations, &Futures);
    if (P == 1)
      Inline1 = S;
    std::printf(" %8s", formatSeconds(S).c_str());
  }
  std::printf("\n  %-26s", "  (paper)");
  for (const char *S : PaperInline)
    std::printf(" %8s", S);
  std::printf("\n");

  printRule();
  std::printf("  inlining saves %.0f%% of the one-processor time "
              "(paper: 44 -> 25, i.e. 43%%)\n",
              (1.0 - Inline1 / NoInline1) * 100.0);
  return 0;
}
