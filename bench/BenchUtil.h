//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the table-regenerating benchmark harnesses.
///
/// Times are *virtual* seconds on the simulated Multimax (1 abstract
/// NS32332 instruction = 1.12 us, the paper's measured rate); see
/// DESIGN.md. Absolute numbers therefore share units with the paper's
/// tables, but the shape (ratios, crossovers) is the claim under test.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_BENCH_BENCHUTIL_H
#define MULT_BENCH_BENCHUTIL_H

#include "core/Engine.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/TraceExport.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace multbench {

using namespace mult;

/// Observability switches, environment-driven so the benchmark binaries
/// keep their argument-free table-regeneration interface:
///   MULT_TRACE=1       enable the event tracer for the timed region
///   MULT_METRICS=1     print the aggregated metrics report per run, plus
///                      one machine-readable ";; run-json: {...}" record
///                      per run (see writeRunJson; the regression
///                      dashboard's input)
///   MULT_PROFILE=1     enable tracing and print the critical-path profile
///                      (work, span, parallelism, per-future-site) per run
///   MULT_TRACE_DIR=D   write D/<tag>.trace.json per traced run
///   MULT_TRACE_MODE=M  trace sink: unbounded (default), ring:N, or
///                      stream[:PATH] (see Tracer::configureSink)
///   MULT_FAULTS=SPEC   arm the deterministic fault injector for every
///                      run (picked up by the Engine itself; see
///                      fault/FaultPlan.h for the spec grammar). With
///                      MULT_METRICS also set, the run-json record
///                      gains a "faults" section.
///   MULT_CHECKPOINT=N  arm the checkpointed-recovery policy (capture a
///                      whole task's resumable state every N busy
///                      cycles; picked up by the Engine itself). Changes
///                      virtual time, so like MULT_FAULTS it must stay
///                      off for golden runs; with MULT_METRICS set, the
///                      run-json record gains a "checkpoint" section
///   MULT_ADAPTIVE_T=1  switch every run from the static inlining
///                      threshold to the per-processor adaptive
///                      controller (sched/Adaptive.h); the static T
///                      passed by the bench becomes the starting point
///   MULT_SITE_POLICIES=F  load per-future-site policies from F (picked
///                      up by the Engine itself; see :profile FILE)
///   MULT_TELEMETRY=json:PATH  append each engine's always-on latency
///                      histograms and host-phase times to PATH when it
///                      is destroyed, one JSON object per line (see
///                      exportJson in obs/Telemetry.h). Recording itself
///                      needs no switch; this only chooses an export.
///
/// Always printed per run (no switch): one ";; host: <tag> ..." line of
/// host wall-clock phase times and the derived ns-per-virtual-cycle.
/// Host time is machine-dependent noise, so the golden comparator
/// (tools/collect_metrics.py) must never track it. The virtual-time
/// latency histograms in the run-json record, by contrast, ARE
/// golden-tracked.
inline bool traceRequested() { return std::getenv("MULT_TRACE") != nullptr; }
inline bool metricsRequested() {
  return std::getenv("MULT_METRICS") != nullptr;
}
inline bool profileRequested() {
  return std::getenv("MULT_PROFILE") != nullptr;
}
inline bool adaptiveRequested() {
  return std::getenv("MULT_ADAPTIVE_T") != nullptr;
}

/// Builds a machine configuration for one benchmark run.
inline EngineConfig machine(unsigned Procs,
                            std::optional<unsigned> InlineT = std::nullopt,
                            bool Lazy = false) {
  EngineConfig C;
  C.NumProcessors = Procs;
  C.InlineThreshold = InlineT;
  C.LazyFutures = Lazy;
  C.HeapWords = size_t(1) << 23;
  C.AdaptiveInline = adaptiveRequested();
  C.EnableTracing = traceRequested() || profileRequested();
  if (const char *Mode = std::getenv("MULT_TRACE_MODE"))
    C.TraceSink = Mode;
  return C;
}

/// The layer sections \p E's run-json records carry: one per armed layer.
inline RunLayers runLayers(Engine &E) {
  RunLayers L;
  L.Faults = E.faults().armed();
  L.Checkpoint = E.config().CheckpointEvery != 0;
  L.Tenant = E.tenantArmed();
  return L;
}

/// Post-run observability hook: metrics to stdout and/or a Chrome-trace
/// JSON file named after \p Tag, per the environment switches above.
inline void reportRun(Engine &E, const std::string &Tag) {
  if (metricsRequested()) {
    std::printf("\n;; metrics: %s\n", Tag.c_str());
    FileOutStream &OS = FileOutStream::stdoutStream();
    dumpMetrics(OS, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                                 E.tracer(), E.raceDetector(),
                                 &E.telemetry(), E.config().CheckpointEvery));
    // The stable parse target for tools/collect_metrics.py and its
    // per-bench oracle cases: one JSON record per run, deterministic per
    // commit, with a section per armed layer.
    writeRunJson(OS, Tag, E.stats(), E.telemetry(), E.raceDetector(),
                 runLayers(E));
    OS.flush();
  }
  if (profileRequested()) {
    std::printf("\n;; profile: %s\n", Tag.c_str());
    FileOutStream &OS = FileOutStream::stdoutStream();
    dumpProfile(OS, analyzeCriticalPath(E.tracer()),
                E.machine().numProcessors(), E.stats().ElapsedCycles);
    OS.flush();
  }
  if (const char *Dir = std::getenv("MULT_TRACE_DIR");
      Dir && E.tracer().enabled()) {
    std::string Path = std::string(Dir) + "/" + Tag + ".trace.json";
    std::string Err = writeFileChecked(Path, "w", [&](OutStream &OS) {
      writeChromeTrace(OS, E.tracer(), E.machine());
    });
    if (Err.empty())
      std::fprintf(stderr, ";; trace: %s (%zu events)\n", Path.c_str(),
                   E.tracer().size());
    else
      std::fprintf(stderr, ";; trace: %s\n", Err.c_str());
  }
  // Host wall-clock phases, printed for every run with no switch. These
  // are simulator self-times (steady_clock), noisy and machine-dependent:
  // tools/collect_metrics.py recognizes ";; host:" and refuses to let it
  // anywhere near the golden comparison. Run includes nested GC time;
  // setup is the engine's one-time construction, prelude included.
  {
    const Telemetry &T = E.telemetry();
    uint64_t RunNs = T.hostNs(Telemetry::Phase::Run);
    uint64_t Cycles = E.stats().ElapsedCycles;
    double NsPerCycle =
        Cycles ? static_cast<double>(RunNs) / static_cast<double>(Cycles)
               : 0.0;
    std::printf(";; host: %s setup-ns=%llu read-ns=%llu compile-ns=%llu "
                "run-ns=%llu gc-ns=%llu ns-per-vcycle=%.2f\n",
                Tag.c_str(),
                static_cast<unsigned long long>(
                    T.hostNs(Telemetry::Phase::Setup)),
                static_cast<unsigned long long>(
                    T.hostNs(Telemetry::Phase::Read)),
                static_cast<unsigned long long>(
                    T.hostNs(Telemetry::Phase::Compile)),
                static_cast<unsigned long long>(RunNs),
                static_cast<unsigned long long>(T.hostNs(Telemetry::Phase::Gc)),
                NsPerCycle);
  }
}

/// Evaluates \p Setup (library code), then times \p Expr. Exits loudly on
/// any error: a benchmark that silently fails is worse than a crash.
inline double runVirtualSeconds(Engine &E, const std::string &Setup,
                                const std::string &Expr,
                                std::string *ResultOut = nullptr) {
  if (!Setup.empty()) {
    EvalResult S = E.eval(Setup);
    if (!S.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n", S.Error.c_str());
      std::exit(1);
    }
  }
  E.resetStats();
  EvalResult R = E.eval(Expr);
  if (!R.ok()) {
    std::fprintf(stderr, "bench run failed: %s\n", R.Error.c_str());
    std::exit(1);
  }
  if (ResultOut)
    *ResultOut = valueToString(R.Val);
  return E.stats().elapsedSeconds();
}

/// Header/rule printing for the ASCII tables.
inline void printRule(unsigned Width = 72) {
  for (unsigned I = 0; I < Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

inline void printTitle(const char *Title) {
  std::printf("\n%s\n", Title);
  printRule();
}

} // namespace multbench

#endif // MULT_BENCH_BENCHUTIL_H
