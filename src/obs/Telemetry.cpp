//===----------------------------------------------------------------------===//
///
/// \file
/// Telemetry registry and exporters.
///
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include "support/StrUtil.h"

#include <cstdio>

using namespace mult;

const char *Telemetry::phaseName(Phase P) {
  switch (P) {
  case Phase::Setup:
    return "setup";
  case Phase::Read:
    return "read";
  case Phase::Compile:
    return "compile";
  case Phase::Run:
    return "run";
  case Phase::Gc:
    return "gc";
  }
  return "?";
}

std::string Telemetry::displayName(std::string_view Name) {
  std::string_view Base = Name;
  constexpr std::string_view Suffix = "_cycles";
  if (Base.size() > Suffix.size() &&
      Base.substr(Base.size() - Suffix.size()) == Suffix)
    Base.remove_suffix(Suffix.size());
  std::string Out(Base);
  for (char &C : Out)
    if (C == '_')
      C = '-';
  return Out;
}

Telemetry::Id Telemetry::intern(std::string_view Name, std::string_view Help,
                                Kind K, std::string_view LabelKey,
                                std::string_view LabelValue) {
  auto Key = std::make_pair(std::string(Name), std::string(LabelValue));
  auto It = ByName.find(Key);
  if (It != ByName.end())
    return It->second;
  Id NewId = static_cast<Id>(Metrics.size());
  Metric M;
  M.Name = Key.first;
  M.Help = std::string(Help);
  M.LabelKey = std::string(LabelKey);
  M.LabelValue = Key.second;
  M.K = K;
  if (K == Kind::Counter)
    M.Shards.assign(NumShards, 0);
  else if (K == Kind::Histogram)
    M.Hists.assign(NumShards, LatencyHistogram());
  Metrics.push_back(std::move(M));
  ByName.emplace(std::move(Key), NewId);
  return NewId;
}

Telemetry::Id Telemetry::counter(std::string_view Name,
                                 std::string_view Help) {
  return intern(Name, Help, Kind::Counter, {}, {});
}

Telemetry::Id Telemetry::gauge(std::string_view Name, std::string_view Help) {
  return intern(Name, Help, Kind::Gauge, {}, {});
}

Telemetry::Id Telemetry::histogram(std::string_view Name,
                                   std::string_view Help,
                                   std::string_view LabelKey,
                                   std::string_view LabelValue) {
  return intern(Name, Help, Kind::Histogram, LabelKey, LabelValue);
}

Telemetry::Id Telemetry::find(std::string_view Name,
                              std::string_view LabelValue) const {
  auto It =
      ByName.find(std::make_pair(std::string(Name), std::string(LabelValue)));
  return It == ByName.end() ? InvalidId : It->second;
}

uint64_t Telemetry::counterValue(Id M) const {
  uint64_t Total = 0;
  for (uint64_t S : Metrics[M].Shards)
    Total += S;
  return Total;
}

LatencyHistogram Telemetry::merged(Id M) const {
  LatencyHistogram Out;
  for (const LatencyHistogram &H : Metrics[M].Hists)
    Out.merge(H);
  return Out;
}

void Telemetry::clear() {
  for (Metric &M : Metrics) {
    for (uint64_t &S : M.Shards)
      S = 0;
    for (LatencyHistogram &H : M.Hists)
      H.clear();
    M.GaugeValue = 0.0;
  }
  uint64_t SetupNs = hostNs(Phase::Setup);
  HostNs.fill(0);
  addHostNs(Phase::Setup, SetupNs);
}

//===----------------------------------------------------------------------===//
// Rendering and export
//===----------------------------------------------------------------------===//

namespace {

/// Matches a user-typed `:histo` argument against a metric: accepts the
/// registered name, the short display name, or either with '-' and '_'
/// interchanged.
bool nameMatches(const Telemetry::Metric &M, std::string_view Query) {
  std::string Q(Query);
  for (char &C : Q)
    if (C == '-')
      C = '_';
  std::string N = M.Name;
  if (Q == N)
    return true;
  std::string D = Telemetry::displayName(M.Name);
  for (char &C : D)
    if (C == '-')
      C = '_';
  return Q == D;
}

void summaryLine(OutStream &OS, const Telemetry::Metric &M,
                 const LatencyHistogram &H) {
  std::string Label = Telemetry::displayName(M.Name);
  if (!M.LabelValue.empty())
    Label += "[" + M.LabelValue + "]";
  OS << strFormat("  %-28s n=%-8llu mean=%-10.1f p50=%-8llu p90=%-8llu "
                  "p99=%-8llu max=%llu\n",
                  Label.c_str(), static_cast<unsigned long long>(H.count()),
                  H.mean(), static_cast<unsigned long long>(H.percentile(50)),
                  static_cast<unsigned long long>(H.percentile(90)),
                  static_cast<unsigned long long>(H.percentile(99)),
                  static_cast<unsigned long long>(H.max()));
}

std::string escapeLabel(const std::string &V) {
  std::string Out;
  for (char C : V) {
    if (C == '\\' || C == '"')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

std::string escapeHelp(const std::string &V) {
  std::string Out;
  for (char C : V) {
    if (C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

void mult::dumpHistogramIndex(OutStream &OS, const Telemetry &T) {
  bool Any = false;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    if (M.K != Telemetry::Kind::Histogram)
      continue;
    LatencyHistogram H = T.merged(I);
    if (H.count() == 0)
      continue;
    Any = true;
    summaryLine(OS, M, H);
  }
  if (!Any)
    OS << "  (no samples recorded yet)\n";
}

void mult::dumpHistogram(OutStream &OS, const Telemetry &T,
                         std::string_view Name) {
  bool Found = false;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    if (M.K != Telemetry::Kind::Histogram || !nameMatches(M, Name))
      continue;
    Found = true;
    LatencyHistogram H = T.merged(I);
    std::string Label = Telemetry::displayName(M.Name);
    if (!M.LabelValue.empty())
      Label += "[" + M.LabelValue + "]";
    OS << Label << " (virtual cycles, log2 buckets):\n";
    if (H.count() == 0) {
      OS << "  (empty)\n";
      continue;
    }
    OS << strFormat("  n=%llu sum=%llu min=%llu mean=%.1f p50=%llu p90=%llu "
                    "p99=%llu max=%llu\n",
                    static_cast<unsigned long long>(H.count()),
                    static_cast<unsigned long long>(H.sum()),
                    static_cast<unsigned long long>(H.min()), H.mean(),
                    static_cast<unsigned long long>(H.percentile(50)),
                    static_cast<unsigned long long>(H.percentile(90)),
                    static_cast<unsigned long long>(H.percentile(99)),
                    static_cast<unsigned long long>(H.max()));
    for (unsigned B = 0; B < LatencyHistogram::NumBuckets; ++B) {
      if (H.buckets()[B] == 0)
        continue;
      if (B + 1 >= LatencyHistogram::NumBuckets)
        OS << strFormat("  [%12llu,      +inf): %llu\n",
                        static_cast<unsigned long long>(
                            LatencyHistogram::bucketLow(B)),
                        static_cast<unsigned long long>(H.buckets()[B]));
      else
        OS << strFormat("  [%12llu, %9llu): %llu\n",
                        static_cast<unsigned long long>(
                            LatencyHistogram::bucketLow(B)),
                        static_cast<unsigned long long>(
                            LatencyHistogram::bucketHigh(B) + 1),
                        static_cast<unsigned long long>(H.buckets()[B]));
    }
  }
  if (!Found)
    OS << "no histogram named '" << Name << "' (bare :histo lists them)\n";
}

void mult::exportPrometheus(OutStream &OS, const Telemetry &T) {
  // One HELP/TYPE pair per metric family, emitted at the family's first
  // registered series; labeled children follow under the same family.
  std::map<std::string, bool> HeaderDone;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    std::string Full = "mult_" + M.Name;
    if (!HeaderDone[Full]) {
      HeaderDone[Full] = true;
      OS << "# HELP " << Full << " " << escapeHelp(M.Help) << "\n";
      OS << "# TYPE " << Full << " ";
      switch (M.K) {
      case Telemetry::Kind::Counter:
        OS << "counter\n";
        break;
      case Telemetry::Kind::Gauge:
        OS << "gauge\n";
        break;
      case Telemetry::Kind::Histogram:
        OS << "histogram\n";
        break;
      }
    }
    std::string Lbl; // `key="value",` fragment, empty when unlabeled
    if (!M.LabelKey.empty())
      Lbl = M.LabelKey + "=\"" + escapeLabel(M.LabelValue) + "\"";
    switch (M.K) {
    case Telemetry::Kind::Counter:
      OS << Full << (Lbl.empty() ? "" : "{" + Lbl + "}") << " "
         << strFormat("%llu",
                      static_cast<unsigned long long>(T.counterValue(I)))
         << "\n";
      break;
    case Telemetry::Kind::Gauge:
      OS << Full << (Lbl.empty() ? "" : "{" + Lbl + "}") << " "
         << strFormat("%g", T.gaugeValue(I)) << "\n";
      break;
    case Telemetry::Kind::Histogram: {
      LatencyHistogram H = T.merged(I);
      std::string Prefix = Lbl.empty() ? "" : Lbl + ",";
      uint64_t Cum = 0;
      unsigned Top = 0; // highest non-empty bucket, so the export is short
      for (unsigned B = 0; B < LatencyHistogram::NumBuckets; ++B)
        if (H.buckets()[B])
          Top = B;
      for (unsigned B = 0; B <= Top && B + 1 < LatencyHistogram::NumBuckets;
           ++B) {
        Cum += H.buckets()[B];
        OS << Full << "_bucket{" << Prefix << "le=\""
           << strFormat("%llu", static_cast<unsigned long long>(
                                    LatencyHistogram::bucketHigh(B)))
           << "\"} " << strFormat("%llu", static_cast<unsigned long long>(Cum))
           << "\n";
      }
      OS << Full << "_bucket{" << Prefix << "le=\"+Inf\"} "
         << strFormat("%llu", static_cast<unsigned long long>(H.count()))
         << "\n";
      OS << Full << "_sum" << (Lbl.empty() ? "" : "{" + Lbl + "}") << " "
         << strFormat("%llu", static_cast<unsigned long long>(H.sum()))
         << "\n";
      OS << Full << "_count" << (Lbl.empty() ? "" : "{" + Lbl + "}") << " "
         << strFormat("%llu", static_cast<unsigned long long>(H.count()))
         << "\n";
      break;
    }
    }
  }
  OS << "# HELP mult_host_ns host nanoseconds spent per simulator phase\n";
  OS << "# TYPE mult_host_ns gauge\n";
  for (unsigned P = 0; P < Telemetry::NumPhases; ++P)
    OS << "mult_host_ns{phase=\""
       << Telemetry::phaseName(static_cast<Telemetry::Phase>(P)) << "\"} "
       << strFormat("%llu", static_cast<unsigned long long>(
                                T.hostNs(static_cast<Telemetry::Phase>(P))))
       << "\n";
}

void mult::exportJson(OutStream &OS, const Telemetry &T) {
  OS << "{\n  \"metrics\": [\n";
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    OS << "    {\"name\": \"" << jsonEscape(M.Name) << "\"";
    if (!M.LabelKey.empty())
      OS << ", \"" << jsonEscape(M.LabelKey) << "\": \""
         << jsonEscape(M.LabelValue) << "\"";
    switch (M.K) {
    case Telemetry::Kind::Counter:
      OS << ", \"type\": \"counter\", \"value\": "
         << strFormat("%llu",
                      static_cast<unsigned long long>(T.counterValue(I)));
      break;
    case Telemetry::Kind::Gauge:
      OS << ", \"type\": \"gauge\", \"value\": "
         << strFormat("%g", T.gaugeValue(I));
      break;
    case Telemetry::Kind::Histogram: {
      LatencyHistogram H = T.merged(I);
      OS << ", \"type\": \"histogram\"";
      OS << strFormat(", \"count\": %llu, \"sum\": %llu, \"min\": %llu, "
                      "\"max\": %llu, \"p50\": %llu, \"p90\": %llu, "
                      "\"p99\": %llu",
                      static_cast<unsigned long long>(H.count()),
                      static_cast<unsigned long long>(H.sum()),
                      static_cast<unsigned long long>(H.min()),
                      static_cast<unsigned long long>(H.max()),
                      static_cast<unsigned long long>(H.percentile(50)),
                      static_cast<unsigned long long>(H.percentile(90)),
                      static_cast<unsigned long long>(H.percentile(99)));
      OS << ", \"buckets\": [";
      bool First = true;
      for (unsigned B = 0; B < LatencyHistogram::NumBuckets; ++B) {
        if (H.buckets()[B] == 0)
          continue;
        if (!First)
          OS << ", ";
        First = false;
        OS << strFormat("[%llu, %llu]",
                        static_cast<unsigned long long>(
                            LatencyHistogram::bucketLow(B)),
                        static_cast<unsigned long long>(H.buckets()[B]));
      }
      OS << "]";
      break;
    }
    }
    OS << "}" << (I + 1 < T.size() ? "," : "") << "\n";
  }
  OS << "  ],\n  \"host_ns\": {";
  for (unsigned P = 0; P < Telemetry::NumPhases; ++P) {
    if (P)
      OS << ", ";
    OS << "\"" << Telemetry::phaseName(static_cast<Telemetry::Phase>(P))
       << "\": "
       << strFormat("%llu", static_cast<unsigned long long>(
                                T.hostNs(static_cast<Telemetry::Phase>(P))));
  }
  OS << "}\n}\n";
}

bool mult::exportTelemetrySpec(const Telemetry &T, std::string_view Spec,
                               std::string &Err) {
  std::string_view Path;
  bool Prom;
  if (Spec.substr(0, 5) == "prom:") {
    Prom = true;
    Path = Spec.substr(5);
  } else if (Spec.substr(0, 5) == "json:") {
    Prom = false;
    Path = Spec.substr(5);
  } else {
    Err = "bad telemetry spec '" + std::string(Spec) +
          "' (want prom:PATH or json:PATH)";
    return false;
  }
  if (Path.empty()) {
    Err = "telemetry spec '" + std::string(Spec) + "' names no file";
    return false;
  }
  std::string PathS(Path);
  FILE *F = std::fopen(PathS.c_str(), "w");
  if (!F) {
    Err = "cannot open telemetry file " + PathS;
    return false;
  }
  FileOutStream FS(F);
  if (Prom)
    exportPrometheus(FS, T);
  else
    exportJson(FS, T);
  FS.flush();
  std::fclose(F);
  return true;
}
