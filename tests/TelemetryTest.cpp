//===----------------------------------------------------------------------===//
///
/// \file
/// The always-on latency telemetry: histogram bucket math, percentile
/// extraction, registry lifecycle, determinism of the virtual-time
/// histograms, the JSON export, and the `:histo`/`:stats` renderers.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "ui/Repl.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace mult;
using namespace mult::testutil;

namespace {

/// Futures + touches + (on >1 proc) steals + a semaphore handoff + enough
/// allocation to force collections: every always-on histogram records.
const char *FullProtocolProgram = R"lisp(
  (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
  (define (churn k acc)
    (if (= k 0) acc (churn (- k 1) (+ acc (length (build 600))))))
  (define (spawn n)
    (if (= n 0) '() (cons (future (churn 4 0)) (spawn (- n 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (define sem (make-semaphore))
  (define guarded (future (begin (semaphore-p sem) 7)))
  (define (busy n) (if (= n 0) 0 (busy (- n 1))))
  (busy 3000) ; on >1 proc, guarded reaches its P and blocks meanwhile
  (semaphore-v sem)
  (drain (spawn 16) (touch guarded))
)lisp";

EngineConfig smallHeapConfig(unsigned Procs,
                             size_t HeapWords = size_t(1) << 16) {
  EngineConfig C = config(Procs);
  C.HeapWords = HeapWords; // small enough to collect mid-run
  return C;
}

/// A comparable snapshot of one histogram.
struct HistSnap {
  uint64_t Count, Sum, Min, Max;
  std::vector<uint64_t> Buckets;
  bool operator==(const HistSnap &O) const {
    return Count == O.Count && Sum == O.Sum && Min == O.Min && Max == O.Max &&
           Buckets == O.Buckets;
  }
};

HistSnap snap(const LatencyHistogram &H) {
  return {H.count(), H.sum(), H.min(), H.max(),
          {H.buckets().begin(), H.buckets().end()}};
}

/// Runs FullProtocolProgram on a fresh engine and snapshots every
/// well-known virtual-time histogram.
std::vector<HistSnap> runAndSnapshot(unsigned Procs) {
  // Bigger heap than the 4-proc tests: 16 processors keep more tasks (and
  // their churn) live at once, and heap-exhaustion aborts the run.
  Engine E(smallHeapConfig(Procs, size_t(1) << 19));
  evalOk(E, FullProtocolProgram);
  std::vector<HistSnap> Out;
  for (const char *Name :
       {"gc_pause_cycles", "touch_wait_cycles", "steal_latency_cycles",
        "sem_wait_cycles", "task_lifetime_cycles", "eval_request_cycles"}) {
    Telemetry::Id Id = E.telemetry().find(Name);
    EXPECT_NE(Id, Telemetry::InvalidId) << Name;
    Out.push_back(snap(E.telemetry().metric(Id).Hist));
  }
  return Out;
}

/// The line of \p Text that starts with \p Prefix, or "" if none does.
std::string lineStartingWith(const std::string &Text,
                             const std::string &Prefix) {
  size_t At = ("\n" + Text).find("\n" + Prefix);
  if (At == std::string::npos)
    return "";
  return Text.substr(At, Text.find('\n', At) - At);
}

} // namespace

//===----------------------------------------------------------------------===//
// Bucket math
//===----------------------------------------------------------------------===//

TEST(LatencyHistogramTest, BucketBoundariesAtPowersOfTwo) {
  // Bucket 0 is [0, 2); bucket i is [2^i, 2^(i+1)).
  EXPECT_EQ(LatencyHistogram::bucketFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucketFor(1), 0u);
  for (unsigned K = 1; K < 47; ++K) {
    uint64_t Lo = uint64_t(1) << K;
    EXPECT_EQ(LatencyHistogram::bucketFor(Lo), K) << "2^" << K;
    EXPECT_EQ(LatencyHistogram::bucketFor(Lo - 1), K - 1) << "2^" << K << "-1";
    EXPECT_EQ(LatencyHistogram::bucketFor(2 * Lo - 1), K)
        << "2^" << K + 1 << "-1";
    EXPECT_EQ(LatencyHistogram::bucketLow(K), Lo);
    if (K + 1 < LatencyHistogram::NumBuckets) {
      EXPECT_EQ(LatencyHistogram::bucketHigh(K), 2 * Lo - 1);
    }
  }
  // Edges tile: every bucket starts right after the previous one ends.
  for (unsigned B = 0; B + 2 < LatencyHistogram::NumBuckets; ++B)
    EXPECT_EQ(LatencyHistogram::bucketHigh(B) + 1,
              LatencyHistogram::bucketLow(B + 1));
}

TEST(LatencyHistogramTest, EmptyPercentilesAreZero) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentile(0), 0u);
  EXPECT_EQ(H.percentile(50), 0u);
  EXPECT_EQ(H.percentile(99), 0u);
  EXPECT_EQ(H.percentile(100), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0.0);
}

TEST(LatencyHistogramTest, SingleSamplePercentilesAreExact) {
  LatencyHistogram H;
  H.record(1234);
  // One sample: every percentile is that sample, exactly (the bucket edge
  // is clamped into [min, max] and both are 1234).
  EXPECT_EQ(H.percentile(1), 1234u);
  EXPECT_EQ(H.percentile(50), 1234u);
  EXPECT_EQ(H.percentile(99), 1234u);
  EXPECT_EQ(H.percentile(100), 1234u);
  EXPECT_EQ(H.min(), 1234u);
  EXPECT_EQ(H.max(), 1234u);
  EXPECT_EQ(H.sum(), 1234u);
}

TEST(LatencyHistogramTest, OverflowBucketSaturates) {
  LatencyHistogram H;
  uint64_t Huge = uint64_t(1) << 60; // way past the 2^47 top bucket
  EXPECT_EQ(LatencyHistogram::bucketFor(Huge), LatencyHistogram::NumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucketFor(~uint64_t(0)),
            LatencyHistogram::NumBuckets - 1);
  H.record(Huge);
  H.record(~uint64_t(0));
  EXPECT_EQ(H.buckets()[LatencyHistogram::NumBuckets - 1], 2u);
  EXPECT_EQ(H.count(), 2u);
  // max is tracked exactly even though the bucket edge saturated.
  EXPECT_EQ(H.max(), ~uint64_t(0));
  EXPECT_EQ(H.percentile(99), ~uint64_t(0));
}

TEST(LatencyHistogramTest, PercentileRanksAcrossBuckets) {
  LatencyHistogram H;
  for (int I = 0; I < 90; ++I)
    H.record(3); // bucket 1: [2, 4)
  for (int I = 0; I < 10; ++I)
    H.record(1000); // bucket 9: [512, 1024)
  EXPECT_EQ(H.percentile(50), 3u);  // bucket edge clamped to max-in-range
  EXPECT_EQ(H.percentile(90), 3u);  // rank 90 is the last small sample
  EXPECT_EQ(H.percentile(91), 1000u);
  EXPECT_EQ(H.percentile(99), 1000u);
  EXPECT_EQ(H.max(), 1000u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, RegistrationIsIdempotentAndIdsAreStable) {
  Telemetry T;
  Telemetry::Id A = T.histogram("foo_cycles");
  Telemetry::Id B = T.histogram("foo_cycles");
  EXPECT_EQ(A, B);
  Telemetry::Id C = T.histogram("bar_cycles");
  EXPECT_NE(A, C);
  EXPECT_EQ(T.find("foo_cycles"), A);
  EXPECT_EQ(T.find("missing"), Telemetry::InvalidId);

  // Labeled children are distinct series under the same base name.
  Telemetry::Id L1 = T.histogram("foo_cycles", "site", "fib+3");
  Telemetry::Id L2 = T.histogram("foo_cycles", "site", "fib+9");
  EXPECT_NE(L1, A);
  EXPECT_NE(L1, L2);
  EXPECT_EQ(T.find("foo_cycles", "fib+3"), L1);

  // clear() zeroes values but keeps registrations and ids.
  T.record(A, 42);
  T.record(C, 5);
  T.clear();
  EXPECT_EQ(T.find("foo_cycles"), A);
  EXPECT_EQ(T.metric(A).Hist.count(), 0u);
  EXPECT_EQ(T.metric(C).Hist.count(), 0u);
}

//===----------------------------------------------------------------------===//
// Engine integration: always-on, deterministic, zero virtual cost
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, HistogramsAreDeterministicAcrossRunsAndProcCounts) {
  for (unsigned Procs : {1u, 4u, 16u}) {
    std::vector<HistSnap> First = runAndSnapshot(Procs);
    std::vector<HistSnap> Second = runAndSnapshot(Procs);
    ASSERT_EQ(First.size(), Second.size());
    for (size_t I = 0; I < First.size(); ++I)
      EXPECT_TRUE(First[I] == Second[I])
          << "histogram " << I << " not deterministic at " << Procs
          << " procs";
  }
}

TEST(TelemetryTest, FullProtocolPopulatesEveryHistogram) {
  Engine E(smallHeapConfig(4));
  evalOk(E, FullProtocolProgram);
  const Telemetry &T = E.telemetry();
  for (const char *Name :
       {"gc_pause_cycles", "touch_wait_cycles", "steal_latency_cycles",
        "sem_wait_cycles", "task_lifetime_cycles", "eval_request_cycles"}) {
    Telemetry::Id Id = T.find(Name);
    ASSERT_NE(Id, Telemetry::InvalidId) << Name;
    EXPECT_GT(T.metric(Id).Hist.count(), 0u) << Name << " recorded nothing";
  }
  // Per-site touch-wait children: at least one labeled series recorded.
  bool SawSite = false;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    if (M.Name == "touch_wait_cycles" && M.LabelKey == "site" &&
        M.Hist.count() > 0)
      SawSite = true;
  }
  EXPECT_TRUE(SawSite) << "no per-site touch-wait series recorded";
}

TEST(TelemetryTest, TaskLifetimesNoLongerNeedTracing) {
  Engine E(config(2));
  ASSERT_FALSE(E.tracer().enabled());
  evalOk(E, "(touch (future (+ 1 2)))");
  std::string Text;
  StringOutStream OS(Text);
  dumpMetrics(OS, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                               E.tracer(), nullptr, &E.telemetry()));
  EXPECT_NE(Text.find("latency (virtual cycles):\n"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("\n  task-lifetime "), std::string::npos) << Text;
  EXPECT_NE(Text.find("\ntask lifetimes ("), std::string::npos)
      << "lifetimes must not require the tracer:\n"
      << Text;
}

TEST(TelemetryTest, ResetStatsClearsValuesButKeepsSeries) {
  Engine E(config(2));
  evalOk(E, "(touch (future 1))");
  Telemetry::Id Id = E.telemetry().find("task_lifetime_cycles");
  ASSERT_NE(Id, Telemetry::InvalidId);
  ASSERT_GT(E.telemetry().metric(Id).Hist.count(), 0u);
  E.resetStats();
  EXPECT_EQ(E.telemetry().find("task_lifetime_cycles"), Id);
  EXPECT_EQ(E.telemetry().metric(Id).Hist.count(), 0u);
  // Recording still works on the surviving series.
  evalOk(E, "(touch (future 2))");
  EXPECT_GT(E.telemetry().metric(Id).Hist.count(), 0u);
}

TEST(TelemetryTest, HostPhaseTimersAccumulate) {
  Engine E(config(1));
  evalOk(E, "(let loop ((i 0)) (if (= i 10000) i (loop (+ i 1))))");
  // Host time is noisy but a real run is never free.
  EXPECT_GT(E.telemetry().hostNs(Telemetry::Phase::Run), 0u);
  EXPECT_GT(E.telemetry().hostNs(Telemetry::Phase::Read), 0u);
  EXPECT_GT(E.telemetry().hostNs(Telemetry::Phase::Compile), 0u);
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, JsonExportParsesAsOneObject) {
  Engine E(config(2));
  evalOk(E, "(touch (future (+ 1 2)))");
  std::string S;
  StringOutStream OS(S);
  exportJson(OS, E.telemetry());
  ASSERT_EQ(S.rfind("{\"metrics\":[{\"name\":\"gc_pause_cycles\"", 0), 0u)
      << S;
  EXPECT_EQ(S.find('\n'), S.size() - 1) << "one record is one line";
  EXPECT_NE(S.find("{\"name\":\"task_lifetime_cycles\",\"count\":"),
            std::string::npos)
      << S;
  EXPECT_NE(S.find("],\"host_ns\":{\"setup\":"), std::string::npos) << S;
  // Crude balance check (the CI job does a real json.loads per line).
  size_t Open = 0, Close = 0;
  for (char C : S) {
    Open += C == '{';
    Close += C == '}';
  }
  EXPECT_EQ(Open, Close);
}

TEST(TelemetryTest, ExportSpecParsesAndRejects) {
  Engine E(config(1));
  evalOk(E, "(+ 1 2)");
  std::string Err;
  EXPECT_FALSE(exportTelemetrySpec(E.telemetry(), "bogus", Err));
  EXPECT_NE(Err.find("json:PATH"), std::string::npos) << Err;
  EXPECT_FALSE(exportTelemetrySpec(E.telemetry(), "csv:/tmp/x", Err));
  // The Prometheus exposition is gone; its spec names the one export.
  Err.clear();
  EXPECT_FALSE(exportTelemetrySpec(E.telemetry(), "prom:/tmp/x", Err));
  EXPECT_NE(Err.find("json:PATH"), std::string::npos) << Err;
  EXPECT_FALSE(exportTelemetrySpec(E.telemetry(), "json:", Err));
  EXPECT_FALSE(
      exportTelemetrySpec(E.telemetry(), "json:/nonexistent-dir/x/y", Err));
  // A failed write or close is an error, not a silent success.
  Err.clear();
  EXPECT_FALSE(exportTelemetrySpec(E.telemetry(), "json:/dev/full", Err));
  EXPECT_NE(Err.find("/dev/full"), std::string::npos) << Err;
}

TEST(TelemetryTest, ExportAppendsOneLinePerEngine) {
  std::string Path = ::testing::TempDir() + "telemetry_append.jsonl";
  std::remove(Path.c_str());
  for (unsigned Procs : {1u, 2u, 4u}) {
    EngineConfig C = config(Procs);
    C.Telemetry = "json:" + Path;
    Engine E(C);
    evalOk(E, "(touch (future (+ 1 2)))");
  }
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  std::remove(Path.c_str());
  ASSERT_EQ(Lines.size(), 3u);
  for (const std::string &L : Lines)
    EXPECT_EQ(L.rfind("{\"metrics\":[", 0), 0u) << L;
}

//===----------------------------------------------------------------------===//
// REPL surface
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, ReplHistoCommand) {
  Engine E(config(2));
  std::string Buf;
  StringOutStream Out(Buf);
  Repl R(E, Out);
  EXPECT_TRUE(R.processLine("(touch (future (+ 20 22)))"));
  EXPECT_TRUE(R.processLine(":histo"));
  EXPECT_NE(Buf.find("task-lifetime"), std::string::npos);
  EXPECT_TRUE(R.processLine(":histo task-lifetime"));
  EXPECT_NE(Buf.find("n="), std::string::npos);
  // :stats renders the latency percentile section and the always-on
  // lifetime histogram without tracing.
  EXPECT_TRUE(R.processLine(":stats"));
  EXPECT_NE(Buf.find("latency (virtual cycles):"), std::string::npos);
  EXPECT_EQ(Buf.find("enable tracing to measure"), std::string::npos);
}

TEST(TelemetryTest, StatsAndHistoPrintTheSameSummaryLines) {
  Engine E(smallHeapConfig(4));
  evalOk(E, FullProtocolProgram);
  std::string Stats, Histo;
  StringOutStream StatsOut(Stats), HistoOut(Histo);
  Repl RS(E, StatsOut), RH(E, HistoOut);
  ASSERT_TRUE(RS.processLine(":stats"));
  ASSERT_TRUE(RH.processLine(":histo"));
  const Telemetry &T = E.telemetry();
  unsigned Compared = 0;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    if (!M.LabelKey.empty() || M.Hist.count() == 0)
      continue;
    std::string Prefix = "  " + Telemetry::displayName(M.Name) + " ";
    std::string Line = lineStartingWith(Stats, Prefix);
    EXPECT_NE(Line, "") << M.Name << " missing from :stats:\n" << Stats;
    EXPECT_EQ(Line, lineStartingWith(Histo, Prefix)) << M.Name;
    ++Compared;
  }
  EXPECT_GE(Compared, 6u) << "the full protocol fills six histograms";
}
