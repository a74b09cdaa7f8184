//===----------------------------------------------------------------------===//
///
/// \file
/// Telemetry registry, its renderers and its JSON export.
///
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include "support/StrUtil.h"

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

Telemetry::Id Telemetry::histogram(std::string_view Name,
                                   std::string_view LabelKey,
                                   std::string_view LabelValue) {
  auto Key = std::make_pair(std::string(Name), std::string(LabelValue));
  auto It = ByName.find(Key);
  if (It != ByName.end())
    return It->second;
  Id NewId = static_cast<Id>(Metrics.size());
  Metrics.push_back({Key.first, std::string(LabelKey), Key.second, {}});
  ByName.emplace(std::move(Key), NewId);
  return NewId;
}

Telemetry::Id Telemetry::find(std::string_view Name,
                              std::string_view LabelValue) const {
  auto It =
      ByName.find(std::make_pair(std::string(Name), std::string(LabelValue)));
  return It == ByName.end() ? InvalidId : It->second;
}

void Telemetry::clear() {
  for (Metric &M : Metrics)
    M.Hist.clear();
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

/// "touch-wait[fib+3]": the display name plus the label value, if any.
std::string seriesLabel(const Telemetry::Metric &M) {
  std::string Label = Telemetry::displayName(M.Name);
  if (!M.LabelValue.empty())
    Label += "[" + M.LabelValue + "]";
  return Label;
}

} // namespace

void mult::writeHistogramSummary(OutStream &OS, const Telemetry::Metric &M) {
  const LatencyHistogram &H = M.Hist;
  OS << strFormat("  %-28s n=%-8llu mean=%-10.1f p50=%-8llu p90=%-8llu "
                  "p99=%-8llu max=%llu\n",
                  seriesLabel(M).c_str(),
                  static_cast<unsigned long long>(H.count()), H.mean(),
                  static_cast<unsigned long long>(H.percentile(50)),
                  static_cast<unsigned long long>(H.percentile(90)),
                  static_cast<unsigned long long>(H.percentile(99)),
                  static_cast<unsigned long long>(H.max()));
}

void mult::writeHistogramBuckets(OutStream &OS, const LatencyHistogram &H) {
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

void mult::dumpHistogramIndex(OutStream &OS, const Telemetry &T) {
  bool Any = false;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    if (M.Hist.count() == 0)
      continue;
    Any = true;
    writeHistogramSummary(OS, M);
  }
  if (!Any)
    OS << "  (no samples recorded yet)\n";
}

void mult::dumpHistogram(OutStream &OS, const Telemetry &T,
                         std::string_view Name) {
  bool Found = false;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    if (!nameMatches(M, Name))
      continue;
    Found = true;
    const LatencyHistogram &H = M.Hist;
    OS << seriesLabel(M) << " (virtual cycles, log2 buckets):\n";
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
    writeHistogramBuckets(OS, H);
  }
  if (!Found)
    OS << "no histogram named '" << Name << "' (bare :histo lists them)\n";
}

void mult::exportJson(OutStream &OS, const Telemetry &T) {
  OS << "{\"metrics\":[";
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    const LatencyHistogram &H = M.Hist;
    OS << (I ? "," : "") << "{\"name\":\"" << jsonEscape(M.Name) << '"';
    if (!M.LabelKey.empty())
      OS << ",\"" << jsonEscape(M.LabelKey) << "\":\""
         << jsonEscape(M.LabelValue) << '"';
    OS << ",\"count\":" << H.count() << ",\"sum\":" << H.sum()
       << ",\"min\":" << H.min() << ",\"max\":" << H.max()
       << ",\"p50\":" << H.percentile(50) << ",\"p90\":" << H.percentile(90)
       << ",\"p99\":" << H.percentile(99) << ",\"buckets\":[";
    const char *Sep = "";
    for (unsigned B = 0; B < LatencyHistogram::NumBuckets; ++B) {
      if (H.buckets()[B] == 0)
        continue;
      OS << Sep << '[' << LatencyHistogram::bucketLow(B) << ','
         << H.buckets()[B] << ']';
      Sep = ",";
    }
    OS << "]}";
  }
  OS << "],\"host_ns\":{";
  for (unsigned P = 0; P < Telemetry::NumPhases; ++P) {
    auto Ph = static_cast<Telemetry::Phase>(P);
    OS << (P ? "," : "") << '"' << Telemetry::phaseName(Ph)
       << "\":" << T.hostNs(Ph);
  }
  OS << "}}\n";
}

bool mult::exportTelemetrySpec(const Telemetry &T, std::string_view Spec,
                               std::string &Err) {
  if (Spec.substr(0, 5) != "json:") {
    Err = "bad telemetry spec '" + std::string(Spec) + "' (want json:PATH)";
    return false;
  }
  if (Spec.size() == 5) {
    Err = "telemetry spec '" + std::string(Spec) + "' names no file";
    return false;
  }
  Err = writeFileChecked(std::string(Spec.substr(5)), "a",
                         [&](OutStream &OS) { exportJson(OS, T); });
  return Err.empty();
}
