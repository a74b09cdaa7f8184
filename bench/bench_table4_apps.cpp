//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates paper Table 4: execution time of the four application
/// benchmarks — permute, queens, the transformation-based compiler, and
/// destructive mergesort (measured and theoretical) — for a sequential
/// baseline and 1..12 processors.
///
/// Parameters are scaled down from the paper's (10,000-vector permute,
/// 11-queens, 8192-element mergesort) to interpreter-friendly sizes; the
/// claims under test are the *shapes*: near-linear speedup for permute and
/// queens, compiler speedup limited by its sequential phases and the
/// assembler lock, and mergesort tracking the t(k,l) model. The "seq" row
/// runs with touch checks off and every future inlined — the closest
/// expressible analogue of "the sequential version in T3".
///
/// The paper's own numbers (seconds): permute 8520/11554/5823/2995/1598/
/// 1293, queens 27.8/33.2/16.6/8.5/4.3/3.0, compiler 98/159/94/64/53/54,
/// mergesort .99/1.82/.99/.57/.45/.43.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "programs/MergesortProgram.h"
#include "programs/MiniCompilerProgram.h"
#include "programs/PermuteProgram.h"
#include "programs/QueensProgram.h"

#include <cmath>

using namespace multbench;

namespace {

struct Scale {
  int PermuteTarget = 48;
  int PermuteLen = 20;
  int PermuteDmin = 10;
  int PermuteChunk = 8;
  int PermuteBatch = 16;
  int QueensN = 8;
  int CompilerProcs = 21; // the paper's Pascal program had 21 procedures
  int CompilerDepth = 6;
  int MergesortK = 11; // 2^11 = 2048 elements
};

/// One engine per cell; Seq = the sequential-baseline configuration.
Engine makeEngine(unsigned Procs, bool Seq, std::optional<unsigned> T) {
  EngineConfig C = machine(Seq ? 1 : Procs, Seq ? std::optional<unsigned>(0)
                                                : T);
  C.EmitTouchChecks = !Seq;
  return Engine(C);
}

/// Cell tag for reportRun: "permute_seq", "permute_p4", ...
std::string cellTag(const char *App, unsigned Procs, bool Seq) {
  return Seq ? std::string(App) + "_seq" : strFormat("%s_p%u", App, Procs);
}

double permuteCell(unsigned Procs, bool Seq, const Scale &S) {
  // Paper: run with T = infinity ("plenty of parallelism ... even though
  // no inlining was used").
  Engine E = makeEngine(Procs, Seq, std::nullopt);
  double Secs = runVirtualSeconds(
      E, PermuteSource,
      strFormat("(permute-run %d %d %d %d %d)", S.PermuteTarget,
                S.PermuteLen, S.PermuteDmin, S.PermuteChunk,
                S.PermuteBatch));
  reportRun(E, cellTag("permute", Procs, Seq));
  return Secs;
}

double queensCell(unsigned Procs, bool Seq, const Scale &S) {
  // Large-granularity tasks; the paper used no inlining.
  Engine E = makeEngine(Procs, Seq, std::nullopt);
  double Secs = runVirtualSeconds(E, QueensSource,
                                  strFormat(Seq ? "(queens-seq %d)"
                                                : "(queens-par %d)",
                                            S.QueensN));
  reportRun(E, cellTag("queens", Procs, Seq));
  return Secs;
}

double compilerCell(unsigned Procs, bool Seq, const Scale &S) {
  Engine E = makeEngine(Procs, Seq, std::nullopt);
  double Secs = runVirtualSeconds(
      E, MiniCompilerSource,
      strFormat("(car (mc-compile-program (mc-gen-program %d %d) %s))",
                S.CompilerProcs, S.CompilerDepth, Seq ? "#f" : "#t"));
  reportRun(E, cellTag("compiler", Procs, Seq));
  return Secs;
}

double mergesortCell(unsigned Procs, bool Seq, const Scale &S) {
  // Paper: "Inlining (T = 1) is crucial to good performance".
  Engine E = makeEngine(Procs, Seq, 1u);
  double Secs = runVirtualSeconds(
      E, MergesortSource,
      strFormat("(mergesort-test %d)", 1 << S.MergesortK));
  reportRun(E, cellTag("msort", Procs, Seq));
  return Secs;
}

/// The paper's analytical model: t(k,l) = c[(k-l-2)2^(k-l-1) + 2^k],
/// with c fitted from the measured one-processor time (l = 0).
double mergesortTheory(double OneProcSeconds, int K, unsigned Procs) {
  auto Model = [&](int L) {
    return double(K - L - 2) * std::pow(2.0, K - L - 1) +
           std::pow(2.0, K);
  };
  double L = std::log2(double(Procs));
  if (std::abs(L - std::round(L)) > 1e-9)
    return -1.0; // the paper leaves non-powers-of-two blank
  double C = OneProcSeconds / Model(0);
  return C * Model(int(std::round(L)));
}

} // namespace

int main() {
  Scale S;

  printTitle("Table 4: execution time for Mul-T benchmarks "
             "(virtual seconds; paper sizes scaled down)");
  std::printf("  %-5s %9s %9s %9s %12s %12s\n", "n", "permute", "queens",
              "compiler", "msort-meas", "msort-theory");

  struct RowSpec {
    const char *Label;
    unsigned Procs;
    bool Seq;
  };
  static const RowSpec Rows[] = {
      {"seq", 1, true}, {"1", 1, false}, {"2", 2, false},
      {"4", 4, false},  {"8", 8, false}, {"12", 12, false},
  };

  double MsortOneProc = 0;
  for (const RowSpec &R : Rows) {
    double Permute = permuteCell(R.Procs, R.Seq, S);
    double Queens = queensCell(R.Procs, R.Seq, S);
    double Compiler = compilerCell(R.Procs, R.Seq, S);
    double Msort = mergesortCell(R.Procs, R.Seq, S);
    if (!R.Seq && R.Procs == 1)
      MsortOneProc = Msort;

    std::string Theory = "";
    if (!R.Seq && R.Procs > 1) {
      double T = mergesortTheory(MsortOneProc, S.MergesortK, R.Procs);
      Theory = T < 0 ? "" : formatSeconds(T);
    } else if (!R.Seq && R.Procs == 1) {
      Theory = strFormat("(%s)", formatSeconds(Msort).c_str());
    }
    std::printf("  %-5s %9s %9s %9s %12s %12s\n", R.Label,
                formatSeconds(Permute).c_str(),
                formatSeconds(Queens).c_str(),
                formatSeconds(Compiler).c_str(),
                formatSeconds(Msort).c_str(), Theory.c_str());
  }

  printRule();
  std::printf("  paper (full-size inputs, seconds):\n");
  std::printf("  %-5s %9s %9s %9s %12s %12s\n", "seq", "8520", "27.8", "98",
              ".99", "");
  std::printf("  %-5s %9s %9s %9s %12s %12s\n", "1", "11554", "33.2", "159",
              "1.82", "(1.82)");
  std::printf("  %-5s %9s %9s %9s %12s %12s\n", "2", "5823", "16.6", "94",
              ".99", ".98");
  std::printf("  %-5s %9s %9s %9s %12s %12s\n", "4", "2995", "8.5", "64",
              ".57", ".60");
  std::printf("  %-5s %9s %9s %9s %12s %12s\n", "8", "1598", "4.3", "53",
              ".45", ".42");
  std::printf("  %-5s %9s %9s %9s %12s %12s\n", "12", "1293", "3.0", "54",
              ".43", "");
  return 0;
}
