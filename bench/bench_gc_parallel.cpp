//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the parallel stop-and-copy collector of paper section 2.1.2.
///
/// The paper parallelized the collector so that collections triggered by
/// background jobs would not impose long pauses on interactive use, and
/// noted a weakness: an object's components are always moved by the
/// processor that moved the object, so work distribution can be uneven.
/// Both effects are measured here:
///   - pause time vs processor count for many-root heaps (good case),
///   - the imbalance on a single-big-structure heap (the paper's caveat).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace multbench;

namespace {

struct GcNumbers {
  uint64_t Pause;
  uint64_t Work;
  uint64_t MaxProcWork;
  uint64_t Copied;
};

/// Builds live data via \p SetupBody, then forces one collection.
GcNumbers collectOnce(const char *Key, unsigned Procs,
                      const std::string &Setup) {
  EngineConfig C = machine(Procs);
  C.HeapWords = size_t(1) << 20;
  Engine E(C);
  EvalResult R = E.eval(Setup);
  if (!R.ok()) {
    std::fprintf(stderr, "gc bench setup failed: %s\n", R.Error.c_str());
    std::exit(1);
  }
  E.resetStats();
  EvalResult G = E.eval("(%gc)");
  if (!G.ok())
    std::exit(1);
  reportRun(E, strFormat("gc_%s_p%u", Key, Procs));
  const Gc::Stats &S = E.gcStats();
  return GcNumbers{S.Last.PauseCycles, S.Last.WorkCycles,
                   S.Last.MaxProcWorkCycles, S.Last.WordsCopied};
}

/// Live data spread over many globals: many root segments to share.
std::string manyRootsSetup() {
  std::string Src =
      "(define (build n) (if (= n 0) '() (cons (make-vector 6 n) "
      "(build (- n 1)))))";
  for (int K = 0; K < 96; ++K)
    Src += "(define keep" + std::to_string(K) + " (build 40))";
  return Src;
}

/// One giant list: a single processor must copy it all (paper's caveat).
std::string oneRootSetup() {
  return "(define (build n) (if (= n 0) '() (cons (make-vector 6 n) "
         "(build (- n 1)))))"
         "(define keep (build 3840))";
}

void sweep(const char *Key, const char *Name, const std::string &Setup) {
  std::printf("\n  %s:\n", Name);
  std::printf("    %-6s %12s %10s %12s %10s\n", "procs", "pause(cyc)",
              "speedup", "work(cyc)", "balance");
  uint64_t Pause1 = 0;
  for (unsigned P : {1u, 2u, 4u, 8u}) {
    GcNumbers N = collectOnce(Key, P, Setup);
    if (P == 1)
      Pause1 = N.Pause;
    // balance = average per-processor work / busiest processor's work:
    // 100% is perfect, 1/P is one processor doing everything.
    double Balance =
        100.0 * (double(N.Work) / P) / double(N.MaxProcWork);
    std::printf("    %-6u %12llu %9.2fx %12llu %9.0f%%\n", P,
                static_cast<unsigned long long>(N.Pause),
                double(Pause1) / double(N.Pause),
                static_cast<unsigned long long>(N.Work), Balance);
  }
}

} // namespace

int main() {
  printTitle("Parallel stop-and-copy GC (paper section 2.1.2)");
  sweep("many_roots", "live data spread over 96 roots (background-job heap)",
        manyRootsSetup());
  sweep("one_root",
        "live data in one giant structure (the paper's imbalance caveat)",
        oneRootSetup());
  printRule();
  std::printf("  paper: \"once an object is moved by a particular "
              "processor all of its\n  components will be moved by the "
              "same processor. This might lead to an\n  uneven "
              "distribution of work.\" -- visible as the balance "
              "collapsing in\n  the second sweep.\n");
  return 0;
}
