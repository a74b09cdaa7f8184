//===----------------------------------------------------------------------===//
///
/// \file
/// Always-on latency telemetry: a registry of named log2-bucketed
/// histograms, one per series, plus the simulator's host-time phases.
///
/// Two clock domains, never mixed:
///
///  * *Virtual-time* metrics (cycles) are recorded on the hot paths with
///    zero virtual cost -- no recorder ever calls Processor::charge -- so
///    every virtual cycle count is bit-identical whether anyone looks at
///    the histograms or not (the same invariant tracing and race
///    detection already keep).
///  * *Host-time* phases (std::chrono::steady_clock nanoseconds) measure
///    what the simulator itself costs: read, compile, run, GC. Host time
///    is noisy and machine-dependent, so it is reported but never golden-
///    compared and never feeds back into virtual time.
///
/// One host thread plays every virtual processor (sched/Machine.h), so a
/// series is a single histogram and recording is a plain increment: there
/// is nothing to shard or merge.
///
/// Every surface renders from this registry: `:histo` (the summary line
/// and bucket rows below), the latency and task-lifetime sections of
/// `:stats` (the same two renderers), the bench run-json "histo" sections
/// (obs/Metrics.h), and the one export, MULT_TELEMETRY=json:PATH.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_OBS_TELEMETRY_H
#define MULT_OBS_TELEMETRY_H

#include "support/OutStream.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mult {

/// Log2-bucketed histogram of non-negative integer samples (virtual
/// cycles). Bucket 0 counts values in [0, 2); bucket i counts [2^i,
/// 2^(i+1)); the top bucket saturates (counts everything >= 2^47).
class LatencyHistogram {
public:
  static constexpr unsigned NumBuckets = 48;

  void record(uint64_t V) {
    unsigned B = bucketFor(V);
    ++Buckets[B];
    ++Count;
    Sum += V;
    if (Count == 1 || V < MinV)
      MinV = V;
    if (V > MaxV)
      MaxV = V;
  }

  void clear() { *this = LatencyHistogram(); }

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? MinV : 0; }
  uint64_t max() const { return MaxV; }
  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0.0;
  }

  /// The value at percentile \p Pct (0..100) by exact-count rank
  /// selection: the sample of rank ceil(Count*Pct/100) lands in some
  /// bucket, and the bucket's inclusive upper edge -- clamped into
  /// [min, max], which are tracked exactly -- is returned. Resolution is
  /// therefore the bucket width; max() itself is always exact. 0 when
  /// empty.
  uint64_t percentile(unsigned Pct) const {
    if (Count == 0)
      return 0;
    uint64_t Rank = (Count * Pct + 99) / 100;
    if (Rank < 1)
      Rank = 1;
    if (Rank > Count)
      Rank = Count;
    uint64_t Seen = 0;
    for (unsigned B = 0; B < NumBuckets; ++B) {
      Seen += Buckets[B];
      if (Seen >= Rank) {
        uint64_t Hi = bucketHigh(B);
        if (Hi > MaxV)
          Hi = MaxV;
        if (Hi < MinV)
          Hi = MinV;
        return Hi;
      }
    }
    return MaxV;
  }

  static unsigned bucketFor(uint64_t V) {
    unsigned B = 0;
    while (B + 1 < NumBuckets && (V >> (B + 1)))
      ++B;
    return B;
  }
  /// Inclusive lower edge of bucket \p B.
  static uint64_t bucketLow(unsigned B) {
    return B == 0 ? 0 : (uint64_t(1) << B);
  }
  /// Inclusive upper edge of bucket \p B; ~0 for the saturating top
  /// bucket.
  static uint64_t bucketHigh(unsigned B) {
    return B + 1 >= NumBuckets ? ~uint64_t(0) : (uint64_t(1) << (B + 1)) - 1;
  }

  const std::array<uint64_t, NumBuckets> &buckets() const { return Buckets; }

private:
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t MinV = 0;
  uint64_t MaxV = 0;
};

/// The registry. Series are registered once (idempotently, keyed by
/// (name, label value)) and then addressed by dense integer id, so the
/// hot paths index a vector -- no string hashing per sample. clear()
/// zeroes every histogram but keeps the registrations and ids stable,
/// which is what Engine::resetStats needs between measured runs.
class Telemetry {
public:
  using Id = uint32_t;
  static constexpr Id InvalidId = ~Id(0);

  /// Host-time phases of the simulator itself (steady_clock ns). Setup
  /// is the whole Engine constructor, heap through prelude bootstrap, and
  /// its Read/Compile/Run time is not counted again in those phases. Run
  /// includes the GC phase nested inside it; subtract to isolate the
  /// mutator.
  enum class Phase : uint8_t { Setup, Read, Compile, Run, Gc };
  static constexpr unsigned NumPhases = 5;
  static const char *phaseName(Phase P);

  /// "gc_pause_cycles" -> "gc-pause": the short name used by `:histo`,
  /// the `:stats` latency lines and the bench run-json record.
  static std::string displayName(std::string_view Name);

  /// One series. Names are snake_case; a labeled series is a child of its
  /// base name, e.g. histogram("touch_wait_cycles", "site", "fib+3").
  struct Metric {
    std::string Name;
    std::string LabelKey; ///< empty for unlabeled series
    std::string LabelValue;
    LatencyHistogram Hist;
  };

  /// Registers a series (idempotent; returns the existing id on re-use).
  Id histogram(std::string_view Name, std::string_view LabelKey = {},
               std::string_view LabelValue = {});
  Id find(std::string_view Name, std::string_view LabelValue = {}) const;

  /// \name Recording (hot paths; never charges virtual time)
  /// @{
  void record(Id M, uint64_t V) { Metrics[M].Hist.record(V); }
  void addHostNs(Phase Ph, uint64_t Ns) {
    HostNs[static_cast<unsigned>(Ph)] += Ns;
  }
  /// @}

  size_t size() const { return Metrics.size(); }
  const Metric &metric(Id M) const { return Metrics[M]; }
  uint64_t hostNs(Phase Ph) const {
    return HostNs[static_cast<unsigned>(Ph)];
  }

  /// Zeroes all values and the per-run host-phase clocks; registrations,
  /// ids and the one-time Setup clock survive (Engine::resetStats).
  void clear();

private:
  std::vector<Metric> Metrics;
  std::map<std::pair<std::string, std::string>, Id> ByName;
  std::array<uint64_t, NumPhases> HostNs{};
};

/// RAII host-time scope: accumulates the elapsed steady_clock ns of its
/// lifetime into one phase. Host time only -- never touches any virtual
/// clock.
class HostPhaseTimer {
public:
  HostPhaseTimer(Telemetry &T, Telemetry::Phase Ph)
      : T(T), Ph(Ph), Start(std::chrono::steady_clock::now()) {}
  ~HostPhaseTimer() {
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    if (Ns > 0)
      T.addHostNs(Ph, static_cast<uint64_t>(Ns));
  }
  HostPhaseTimer(const HostPhaseTimer &) = delete;
  HostPhaseTimer &operator=(const HostPhaseTimer &) = delete;

private:
  Telemetry &T;
  Telemetry::Phase Ph;
  std::chrono::steady_clock::time_point Start;
};

/// \name Rendering and export
/// @{
/// \p M's one-line summary (n, mean, p50/p90/p99, max), as `:histo` lists
/// every series and `:stats` every unlabeled one.
void writeHistogramSummary(OutStream &OS, const Telemetry::Metric &M);
/// One "  [low, high): count" row per non-empty bucket of \p H.
void writeHistogramBuckets(OutStream &OS, const LatencyHistogram &H);
/// One histogram in full (the REPL's `:histo NAME`): count, sum, min,
/// mean, percentiles and buckets. Includes labeled children of \p Name.
void dumpHistogram(OutStream &OS, const Telemetry &T, std::string_view Name);
/// Every non-empty histogram's summary line (the REPL's bare `:histo`).
void dumpHistogramIndex(OutStream &OS, const Telemetry &T);
/// The whole registry as one compact JSON object on one line:
/// {"metrics":[{"name":..,["<label key>":..,]"count":..,"sum":..,
/// "min":..,"max":..,"p50":..,"p90":..,"p99":..,"buckets":[[low,n],..]},
/// ..],"host_ns":{"setup":..,"read":..,"compile":..,"run":..,"gc":..}}.
/// "buckets" lists the non-empty buckets by inclusive lower edge.
void exportJson(OutStream &OS, const Telemetry &T);
/// Parses \p Spec ("json:PATH", the MULT_TELEMETRY grammar) and appends
/// exportJson's line to PATH, so each engine that exports to one file
/// adds one record (JSON Lines). False and \p Err set on a bad spec or a
/// failed open, write or close.
bool exportTelemetrySpec(const Telemetry &T, std::string_view Spec,
                         std::string &Err);
/// @}

} // namespace mult

#endif // MULT_OBS_TELEMETRY_H
