//===----------------------------------------------------------------------===//
///
/// \file
/// Metrics aggregation and rendering, and the renderers the engine
/// counter table (core/Stats.h) drives.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "analysis/RaceDetect.h"
#include "obs/Telemetry.h"
#include "support/StrUtil.h"

#include <initializer_list>
#include <iterator>

using namespace mult;

MetricsReport mult::buildMetrics(const Machine &M, const EngineStats &S,
                                 const Gc::Stats &G, const Tracer &,
                                 const RaceDetector *RD,
                                 const Telemetry *Telem,
                                 uint64_t CheckpointEvery) {
  MetricsReport R;
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    ProcMetrics PM;
    PM.Id = I;
    PM.BusyCycles = P.busyCycles();
    PM.IdleCycles = P.IdleCycles;
    PM.GcCycles = P.GcCycles;
    PM.Instructions = P.Instructions;
    PM.Dispatches = P.Dispatches;
    PM.Steals = P.Steals;
    PM.StealAttempts = P.StealAttempts;
    PM.StealsFailed = P.StealsFailed;
    PM.TasksStarted = P.TasksStarted;
    PM.NewQueueHighWater = P.Queues.newHighWater();
    PM.SuspQueueHighWater = P.Queues.suspendedHighWater();
    PM.AdaptiveT = P.Adapt.T;
    R.Procs.push_back(PM);
  }

  R.Stats = S;
  R.AdaptiveT = M.adaptiveEnabled();
  R.GcStats = G;
  R.CheckpointEvery = CheckpointEvery;
  R.QuantumCycles = M.quantum();
  if (RD) {
    R.RaceDetectOn = true;
    R.RacesDetected = RD->raceCount();
    R.AccessesChecked = RD->accessesChecked();
    R.CellsTracked = RD->cellsTracked();
  }

  R.Telem = Telem;
  return R;
}

void mult::dumpMetrics(OutStream &OS, const MetricsReport &R) {
  OS << "per-processor virtual time (cycles):\n";
  OS << "  proc       busy       idle         gc      insns  disp  steal"
        "/att(rate)  qhi(new/susp)";
  if (R.AdaptiveT)
    OS << "  T";
  OS << "\n";
  for (const ProcMetrics &P : R.Procs) {
    OS << strFormat(
        "  %4u %10llu %10llu %10llu %10llu %5llu %6llu/%llu",
        P.Id, static_cast<unsigned long long>(P.BusyCycles),
        static_cast<unsigned long long>(P.IdleCycles),
        static_cast<unsigned long long>(P.GcCycles),
        static_cast<unsigned long long>(P.Instructions),
        static_cast<unsigned long long>(P.Dispatches),
        static_cast<unsigned long long>(P.Steals),
        static_cast<unsigned long long>(P.StealAttempts));
    // A processor that never probed has no success rate, not a 0% one.
    if (P.StealAttempts == 0)
      OS << "(-)";
    else
      OS << strFormat("(%.0f%%)", P.stealSuccessRate() * 100.0);
    OS << strFormat("  %zu/%zu", P.NewQueueHighWater, P.SuspQueueHighWater);
    if (R.AdaptiveT)
      OS << strFormat("  %u", P.AdaptiveT);
    OS << "\n";
  }
  renderStats(OS, R.Stats);
  const EngineStats &S = R.Stats;
  if (S.StealAttempts == 0)
    OS << "stealing: no attempts\n";
  else
    OS << strFormat("stealing: %.1f%% of attempts succeeded\n",
                    R.stealSuccessRate() * 100.0);
  OS << strFormat("gc: %llu collections, %llu pause cycles",
                  static_cast<unsigned long long>(R.GcStats.Collections),
                  static_cast<unsigned long long>(R.GcStats.TotalPauseCycles));
  if (R.GcStats.Collections > 0)
    OS << strFormat(" (max %llu, mean %.1f)",
                    static_cast<unsigned long long>(R.GcStats.MaxPauseCycles),
                    static_cast<double>(R.GcStats.TotalPauseCycles) /
                        static_cast<double>(R.GcStats.Collections));
  OS << "\n";
  if (S.TasksRestored && R.CheckpointEvery) {
    // The proof line the checkpoint policy promises: no restored task
    // re-executed more than one capture interval plus one quantum.
    uint64_t Bound = R.CheckpointEvery + R.QuantumCycles;
    OS << strFormat("recovery-bound: max task recovery %llu cycles <= "
                    "checkpoint-every %llu + quantum %llu (%s)\n",
                    static_cast<unsigned long long>(S.MaxTaskRecoveryCycles),
                    static_cast<unsigned long long>(R.CheckpointEvery),
                    static_cast<unsigned long long>(R.QuantumCycles),
                    S.MaxTaskRecoveryCycles <= Bound ? "OK" : "VIOLATED");
  }
  if (R.RaceDetectOn)
    OS << strFormat("races: %llu (%llu accesses checked, %llu cells "
                    "tracked)\n",
                    static_cast<unsigned long long>(R.RacesDetected),
                    static_cast<unsigned long long>(R.AccessesChecked),
                    static_cast<unsigned long long>(R.CellsTracked));
  // The registry's sections, through :histo's summary-line and bucket-row
  // code: every non-empty unlabeled series, then the lifetime buckets.
  static const LatencyHistogram NoLifetimes;
  const LatencyHistogram *Life = &NoLifetimes;
  if (const Telemetry *T = R.Telem) {
    const char *Header = "latency (virtual cycles):\n";
    for (Telemetry::Id I = 0; I < T->size(); ++I) {
      const Telemetry::Metric &M = T->metric(I);
      if (!M.LabelKey.empty() || M.Hist.count() == 0)
        continue;
      OS << Header;
      Header = "";
      writeHistogramSummary(OS, M);
    }
    if (Telemetry::Id L = T->find("task_lifetime_cycles");
        L != Telemetry::InvalidId)
      Life = &T->metric(L).Hist;
  }
  if (Life->count() == 0) {
    OS << "task lifetimes: (no tasks measured)\n";
    return;
  }
  OS << strFormat("task lifetimes (%llu tasks, virtual cycles, log2 "
                  "buckets):\n",
                  static_cast<unsigned long long>(Life->count()));
  writeHistogramBuckets(OS, *Life);
}

namespace {

/// One row of MULT_ENGINE_COUNTERS.
struct StatRow {
  uint64_t EngineStats::*Field;
  const char *Key;
  const char *Label;
  StatSection Section;
};

constexpr StatRow StatRows[] = {
#define MULT_STAT_ROW(Field, Key, Label, Section)                              \
  {&EngineStats::Field, Key, Label, StatSection::Section},
    MULT_ENGINE_COUNTERS(MULT_STAT_ROW)
#undef MULT_STAT_ROW
};

/// One row of MULT_STAT_SECTIONS, indexed by StatSection.
struct SectionDef {
  const char *Prefix;
  StatRule Rule;
};

constexpr SectionDef Sections[] = {
#define MULT_STAT_SECTION_DEF(Name, Prefix, Rule) {Prefix, StatRule::Rule},
    MULT_STAT_SECTIONS(MULT_STAT_SECTION_DEF)
#undef MULT_STAT_SECTION_DEF
};

bool sectionNonZero(const EngineStats &S, StatSection Sec) {
  for (const StatRow &Row : StatRows)
    if (Row.Section == Sec && S.*Row.Field)
      return true;
  return false;
}

/// `"name":{"n":..,"sum":..,"p50":..,"p90":..,"p99":..,"max":..}` for each
/// of the named histograms the registry holds, comma-separated.
void writeHistosJson(OutStream &OS, const Telemetry &T,
                     std::initializer_list<const char *> Names) {
  const char *Sep = "";
  for (const char *Name : Names) {
    Telemetry::Id Id = T.find(Name);
    if (Id == Telemetry::InvalidId)
      continue;
    const LatencyHistogram &H = T.metric(Id).Hist;
    OS << Sep << '"' << Telemetry::displayName(Name) << "\":{\"n\":"
       << H.count() << ",\"sum\":" << H.sum() << ",\"p50\":"
       << H.percentile(50) << ",\"p90\":" << H.percentile(90)
       << ",\"p99\":" << H.percentile(99) << ",\"max\":" << H.max() << '}';
    Sep = ",";
  }
}

/// `,"<name>":{"key":value,...}` over the rows whose section rule is in
/// [\p First, \p Last]; the caller closes the object.
void writeCountersJson(OutStream &OS, const char *Name, const EngineStats &S,
                       StatRule First, StatRule Last) {
  OS << ",\"" << Name << "\":{";
  const char *Sep = "";
  for (const StatRow &Row : StatRows) {
    StatRule Rule = Sections[static_cast<unsigned>(Row.Section)].Rule;
    if (Rule < First || Rule > Last)
      continue;
    OS << Sep << '"' << Row.Key << "\":" << S.*Row.Field;
    Sep = ",";
  }
}

} // namespace

void mult::renderStatSection(OutStream &OS, const EngineStats &S,
                             StatSection Sec) {
  OS << Sections[static_cast<unsigned>(Sec)].Prefix << ':';
  const char *Sep = " ";
  for (const StatRow &Row : StatRows) {
    if (Row.Section != Sec)
      continue;
    OS << Sep << S.*Row.Field << ' ' << Row.Label;
    Sep = ", ";
  }
  OS << '\n';
}

void mult::renderStats(OutStream &OS, const EngineStats &S) {
  for (unsigned I = 0; I < std::size(Sections); ++I) {
    StatSection Sec = static_cast<StatSection>(I);
    if (Sections[I].Rule == StatRule::Always || sectionNonZero(S, Sec))
      renderStatSection(OS, S, Sec);
  }
}

void mult::writeRunJson(OutStream &OS, std::string_view Tag,
                        const EngineStats &S, const Telemetry &T,
                        const RaceDetector *RD, RunLayers L) {
  OS << ";; run-json: {\"tag\":\"" << jsonEscape(Tag) << '"';
  writeCountersJson(OS, "core", S, StatRule::Always, StatRule::NonZero);
  OS << "},\"histo\":{";
  writeHistosJson(OS, T, {"gc_pause_cycles", "touch_wait_cycles",
                          "task_lifetime_cycles"});
  OS << '}';
  if (L.Faults) {
    writeCountersJson(OS, "faults", S, StatRule::Faults, StatRule::Faults);
    OS << '}';
  }
  if (L.Checkpoint) {
    writeCountersJson(OS, "checkpoint", S, StatRule::Checkpoint,
                      StatRule::Checkpoint);
    OS << '}';
  }
  if (L.Tenant) {
    writeCountersJson(OS, "tenant", S, StatRule::Tenant, StatRule::Tenant);
    OS << ",\"histo\":{";
    writeHistosJson(OS, T, {"supervisor_restart_latency_cycles",
                            "admission_queue_wait_cycles"});
    OS << "}}";
  }
  if (RD)
    OS << ",\"races\":{\"races\":" << RD->raceCount()
       << ",\"accesses-checked\":" << RD->accessesChecked()
       << ",\"cells-tracked\":" << RD->cellsTracked() << '}';
  OS << "}\n";
}
