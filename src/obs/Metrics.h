//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregated per-run metrics, built from the always-on counters and
/// rendered together with the always-on telemetry registry.
///
/// The report answers the paper's accounting questions directly: where did
/// each processor's virtual time go (busy / idle / GC), how well did work
/// stealing perform (success rate, per-processor steal counts), how deep
/// did the task queues get (high-water marks), and how long did tasks live
/// and wait (the registry's latency histograms, task lifetimes among them,
/// rendered by the same summary-line and bucket-row code as `:histo`).
///
//===----------------------------------------------------------------------===//

#ifndef MULT_OBS_METRICS_H
#define MULT_OBS_METRICS_H

#include "core/Stats.h"
#include "obs/Trace.h"
#include "runtime/Gc.h"
#include "sched/Machine.h"
#include "support/OutStream.h"

#include <string_view>
#include <vector>

namespace mult {

class RaceDetector;
class Telemetry;

/// One processor's share of the run.
struct ProcMetrics {
  unsigned Id = 0;
  uint64_t BusyCycles = 0;
  uint64_t IdleCycles = 0;
  uint64_t GcCycles = 0;
  uint64_t Instructions = 0;
  uint64_t Dispatches = 0;
  uint64_t Steals = 0;
  uint64_t StealAttempts = 0; ///< probes this processor made as a thief
  uint64_t StealsFailed = 0;  ///< of those, probes that found nothing
  uint64_t TasksStarted = 0;
  size_t NewQueueHighWater = 0;
  size_t SuspQueueHighWater = 0;
  /// This processor's inlining threshold at the end of the run
  /// (meaningful when MetricsReport::AdaptiveT).
  unsigned AdaptiveT = 0;
  /// This processor's steal success as a thief, 0 when it never probed.
  double stealSuccessRate() const {
    return StealAttempts == 0 ? 0.0
                              : static_cast<double>(Steals) /
                                    static_cast<double>(StealAttempts);
  }
};

/// The whole report.
struct MetricsReport {
  std::vector<ProcMetrics> Procs;

  /// The engine counters (core/Stats.h), rendered section by section.
  EngineStats Stats;
  /// Steals / StealAttempts, 0 when no attempts were made.
  double stealSuccessRate() const {
    return Stats.StealAttempts == 0
               ? 0.0
               : static_cast<double>(Stats.Steals) /
                     static_cast<double>(Stats.StealAttempts);
  }

  bool AdaptiveT = false; ///< the adaptive-T controller was enabled
  Gc::Stats GcStats;

  /// Config echoes for the recovery-bound line: the policy guarantees
  /// MaxTaskRecoveryCycles <= CheckpointEvery + QuantumCycles per
  /// restored task (a capture fires at the first quantum boundary past
  /// CheckpointEvery busy cycles).
  uint64_t CheckpointEvery = 0;
  uint64_t QuantumCycles = 0;

  // Determinacy-race detection (EngineConfig::RaceDetect / MULT_RACE).
  // When the detector is off, RaceDetectOn is false and the renderer
  // omits the races line entirely, keeping untraced output bit-identical.
  bool RaceDetectOn = false;
  uint64_t RacesDetected = 0;
  uint64_t AccessesChecked = 0;
  uint64_t CellsTracked = 0;

  /// The registry the latency and task-lifetime sections render from;
  /// null omits the latency section and measures no lifetimes. Points
  /// into the engine, so render the report before the engine goes.
  const Telemetry *Telem = nullptr;
};

/// Builds the report for the last measured run. Pass the engine's race
/// detector (may be null) to fold determinacy-race counters in, and the
/// engine's telemetry (may be null) for the latency and task-lifetime
/// sections. The tracer is not read: lifetimes come from the registry,
/// traced or not.
/// \p CheckpointEvery is EngineConfig::CheckpointEvery (0 = checkpoints
/// off), threaded through so the report can render the recovery bound.
MetricsReport buildMetrics(const Machine &M, const EngineStats &S,
                           const Gc::Stats &G, const Tracer &,
                           const RaceDetector *RD = nullptr,
                           const Telemetry *Telem = nullptr,
                           uint64_t CheckpointEvery = 0);

/// Renders \p R human-readably (benches, the REPL's :stats command).
void dumpMetrics(OutStream &OS, const MetricsReport &R);

/// Renders one section's line of \p S, "<prefix>: <v> <label>, ...\n",
/// whatever its rule says.
void renderStatSection(OutStream &OS, const EngineStats &S, StatSection Sec);

/// Renders every section of \p S that its StatRule admits, in table order.
void renderStats(OutStream &OS, const EngineStats &S);

/// The optional layers a run armed; each adds its run-json section.
struct RunLayers {
  bool Faults = false;     ///< a fault plan (MULT_FAULTS)
  bool Checkpoint = false; ///< EngineConfig::CheckpointEvery
  bool Tenant = false;     ///< quotas, supervisor or admission gate
};

/// Writes one bench run's machine-readable record as a single line,
/// ";; run-json: {...}\n": the tag, the "core" counters, the virtual-time
/// latency histograms, one section per armed layer ("faults",
/// "checkpoint", "tenant" with its own histograms) and "races" when \p RD
/// is given. tools/collect_metrics.py parses it: the per-bench oracle
/// cases compare the records of dormant and traced, race-armed runs.
void writeRunJson(OutStream &OS, std::string_view Tag, const EngineStats &S,
                  const Telemetry &T, const RaceDetector *RD, RunLayers L);

} // namespace mult

#endif // MULT_OBS_METRICS_H
