//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: event tracing, the Chrome-trace exporter, the
/// metrics report, and the accounting invariants they rely on
/// (busy + idle + gc tiles every processor clock; every steal probe lands
/// in exactly one of Steals or StealsFailed).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/CriticalPath.h"
#include "obs/Metrics.h"
#include "obs/TraceExport.h"
#include "sched/Scheduler.h"

#include <algorithm>
#include <cctype>
#include <map>

using namespace mult;
using namespace mult::testutil;

namespace {

/// Parallel workload with real futures, touches and (on >1 processor)
/// steals: the full protocol shows up in the trace.
const char *ParallelProgram = R"lisp(
  (define (spawn n)
    (if (= n 0) '()
        (cons (future (let loop ((i 0))
                        (if (= i 400) (* n n) (loop (+ i 1)))))
              (spawn (- n 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (drain (spawn 24) 0)
)lisp";

EngineConfig tracedConfig(unsigned Procs) {
  EngineConfig C = config(Procs);
  C.EnableTracing = true;
  return C;
}

/// Like ParallelProgram but allocation-heavy: each task repeatedly builds
/// and drops a list, so a small heap forces collections mid-run while the
/// live set stays well under a semispace.
const char *AllocatingProgram = R"lisp(
  (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
  (define (churn k acc)
    (if (= k 0) acc (churn (- k 1) (+ acc (length (build 1000))))))
  (define (spawn n)
    (if (= n 0) '() (cons (future (churn 5 0)) (spawn (- n 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (drain (spawn 16) 0)
)lisp";

size_t countKind(const Tracer &Tr, TraceEventKind K) {
  size_t N = 0;
  for (const TraceEvent &E : Tr.events())
    if (E.Kind == K)
      ++N;
  return N;
}

TEST(TraceTest, DisabledRecordsNothing) {
  Engine E(config(2)); // EnableTracing defaults to false
  evalOk(E, ParallelProgram);
  EXPECT_FALSE(E.tracer().enabled());
  EXPECT_EQ(E.tracer().size(), 0u);
}

TEST(TraceTest, LifecycleEventsPresent) {
  Engine E(tracedConfig(2));
  evalOk(E, ParallelProgram);
  const Tracer &Tr = E.tracer();
  EXPECT_GT(countKind(Tr, TraceEventKind::TaskCreate), 0u);
  EXPECT_GT(countKind(Tr, TraceEventKind::TaskStart), 0u);
  EXPECT_GT(countKind(Tr, TraceEventKind::TaskFinish), 0u);
  EXPECT_GT(countKind(Tr, TraceEventKind::FutureCreate), 0u);
  EXPECT_GT(countKind(Tr, TraceEventKind::FutureResolve), 0u);
  EXPECT_GT(countKind(Tr, TraceEventKind::InlineDecision), 0u);
  // 24 spawned tasks all created and all finished.
  EXPECT_GE(countKind(Tr, TraceEventKind::TaskCreate), 24u);
  EXPECT_GE(countKind(Tr, TraceEventKind::TaskFinish), 24u);
  // Touches happened, and every touch either hit or blocked.
  size_t Hits = countKind(Tr, TraceEventKind::TouchHit);
  size_t Blocks = countKind(Tr, TraceEventKind::TouchBlock);
  EXPECT_GT(Hits + Blocks, 0u);
  // Every block has a matching resume somewhere.
  EXPECT_EQ(countKind(Tr, TraceEventKind::TaskBlock),
            countKind(Tr, TraceEventKind::TaskResume));
}

TEST(TraceTest, PerProcessorTimestampsAreMonotone) {
  Engine E(tracedConfig(4));
  evalOk(E, ParallelProgram);
  std::map<unsigned, uint64_t> LastClock;
  for (const TraceEvent &Ev : E.tracer().events()) {
    auto [It, Fresh] = LastClock.try_emplace(Ev.Proc, Ev.Clock);
    if (!Fresh) {
      EXPECT_GE(Ev.Clock, It->second)
          << "clock regressed on processor " << unsigned(Ev.Proc) << " at "
          << traceEventKindName(Ev.Kind);
      It->second = Ev.Clock;
    }
  }
  EXPECT_GT(LastClock.size(), 1u) << "expected events from several processors";
}

TEST(TraceTest, StealProbesPartitionIntoSuccessAndFailure) {
  Engine E(tracedConfig(4));
  evalOk(E, ParallelProgram);
  const EngineStats &S = E.stats();
  EXPECT_GT(S.StealAttempts, 0u);
  EXPECT_GT(S.Steals, 0u);
  EXPECT_EQ(S.Steals + S.StealsFailed, S.StealAttempts)
      << "every probe must land in exactly one bucket";
  // The trace agrees with the counters event-for-event.
  size_t Probes = countKind(E.tracer(), TraceEventKind::StealAttempt);
  EXPECT_EQ(Probes, S.StealAttempts);
  size_t Successes = 0;
  for (const TraceEvent &Ev : E.tracer().events())
    if (Ev.Kind == TraceEventKind::StealAttempt && Ev.B == 1)
      ++Successes;
  EXPECT_EQ(Successes, S.Steals);
}

TEST(TraceTest, BusyIdleGcTileEveryProcessorClock) {
  // Small heap so collections interleave with the parallel run: the
  // invariant must survive GC pauses and run-start resynchronisation.
  EngineConfig C = tracedConfig(4);
  C.HeapWords = 1 << 16;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, AllocatingProgram), 16 * 5000);
  EXPECT_GT(E.gcStats().Collections, 0u) << "heap sized to force GC";
  for (unsigned I = 0; I < 4; ++I) {
    const Processor &P = E.machine().processor(I);
    EXPECT_EQ(P.ClockAtReset + P.BusyCycles + P.IdleCycles + P.GcCycles,
              P.Clock)
        << "cycle accounting leak on processor " << I;
  }
  // And again after an explicit reset + second run.
  E.resetStats();
  evalOk(E, "(+ 1 2)");
  for (unsigned I = 0; I < 4; ++I) {
    const Processor &P = E.machine().processor(I);
    EXPECT_EQ(P.ClockAtReset + P.BusyCycles + P.IdleCycles + P.GcCycles,
              P.Clock);
  }
}

TEST(TraceTest, GcAndIdleIntervalsArePaired) {
  EngineConfig C = tracedConfig(2);
  C.HeapWords = 1 << 16;
  Engine E(C);
  evalOk(E, AllocatingProgram);
  const Tracer &Tr = E.tracer();
  EXPECT_EQ(countKind(Tr, TraceEventKind::GcBegin),
            countKind(Tr, TraceEventKind::GcEnd));
  EXPECT_GT(countKind(Tr, TraceEventKind::GcBegin), 0u);
  // Idle intervals: every end has a begin; at most one interval per
  // processor can still be open (the machine stops as soon as the root
  // resolves).
  size_t IdleBegins = countKind(Tr, TraceEventKind::IdleBegin);
  size_t IdleEnds = countKind(Tr, TraceEventKind::IdleEnd);
  EXPECT_GE(IdleBegins, IdleEnds);
  EXPECT_LE(IdleBegins - IdleEnds, 2u);
}

//===----------------------------------------------------------------------===//
// Sink modes and drop accounting (Recorded + Dropped == Emitted, always)
//===----------------------------------------------------------------------===//

TEST(TraceSinkTest, RingKeepsNewestAndCountsDrops) {
  Tracer T;
  T.setEnabled(true);
  T.setRingCapacity(4);
  for (uint64_t I = 0; I < 10; ++I)
    T.record(TraceEventKind::TaskStart, 0, /*Clock=*/I, /*A=*/I);
  EXPECT_EQ(T.emitted(), 10u);
  EXPECT_EQ(T.dropped(), 6u);
  EXPECT_EQ(T.recorded(), 4u);
  EXPECT_EQ(T.size(), 4u);
  // The survivors are the newest four, in emission order.
  ASSERT_EQ(T.events().size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(T.events()[I].A, 6u + I);
  // Accounting holds under capacity too.
  T.clear();
  EXPECT_EQ(T.emitted(), 0u);
  T.record(TraceEventKind::TaskStart, 0, 0, 1);
  EXPECT_EQ(T.recorded() + T.dropped(), T.emitted());
  EXPECT_EQ(T.dropped(), 0u);
  EXPECT_EQ(T.ringCapacity(), 4u) << "clear() keeps the configured sink";
}

TEST(TraceSinkTest, RingCapsEngineTraceMemory) {
  EngineConfig C = tracedConfig(2);
  C.TraceSink = "ring:256";
  Engine E(C);
  evalOk(E, ParallelProgram);
  const Tracer &Tr = E.tracer();
  EXPECT_LE(Tr.size(), 256u);
  EXPECT_GT(Tr.dropped(), 0u) << "workload sized to overflow the ring";
  EXPECT_EQ(Tr.recorded() + Tr.dropped(), Tr.emitted());
  // The linearized ring is still monotone per processor.
  std::map<unsigned, uint64_t> LastClock;
  for (const TraceEvent &Ev : Tr.events()) {
    auto [It, Fresh] = LastClock.try_emplace(Ev.Proc, Ev.Clock);
    if (!Fresh) {
      EXPECT_GE(Ev.Clock, It->second);
      It->second = Ev.Clock;
    }
  }
}

TEST(TraceSinkTest, StreamWritesLoadableFile) {
  std::string Path = ::testing::TempDir() + "mult_stream_trace.bin";
  {
    Tracer T;
    T.setEnabled(true);
    std::string Err;
    ASSERT_TRUE(T.configureSink("stream:" + Path, Err)) << Err;
    EXPECT_EQ(T.mode(), TraceSinkMode::Stream);
    EXPECT_EQ(T.size(), 0u) << "stream buffers nothing in memory";
    for (uint64_t I = 0; I < 100; ++I)
      T.record(TraceEventKind::TouchHit, I % 3, 1000 + I, I, I * 2, I * 3);
    EXPECT_EQ(T.emitted(), 100u);
    T.flushStream();
    // ~Tracer patches the final counters and closes the file.
  }
  TraceFile F;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, F, Err)) << Err;
  EXPECT_EQ(F.Emitted, 100u);
  EXPECT_EQ(F.Dropped, 0u);
  ASSERT_EQ(F.Events.size(), 100u);
  for (uint64_t I = 0; I < 100; ++I) {
    EXPECT_EQ(F.Events[I].Clock, 1000 + I);
    EXPECT_EQ(F.Events[I].A, I);
    EXPECT_EQ(F.Events[I].B, I * 2);
    EXPECT_EQ(F.Events[I].C, I * 3);
    EXPECT_EQ(F.Events[I].Proc, I % 3);
    EXPECT_EQ(static_cast<int>(F.Events[I].Kind),
              static_cast<int>(TraceEventKind::TouchHit));
  }
  // The loaded trace feeds the analyzer path used for stream-mode runs.
  std::remove(Path.c_str());
}

TEST(TraceSinkTest, ReadTraceFileRejectsGarbage) {
  std::string Path = ::testing::TempDir() + "mult_not_a_trace.bin";
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("definitely not a trace file", F);
  std::fclose(F);
  TraceFile Out;
  std::string Err;
  EXPECT_FALSE(readTraceFile(Path, Out, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(readTraceFile(Path + ".missing", Out, Err));
  std::remove(Path.c_str());
}

TEST(TraceSinkTest, ConfigureSinkRejectsMalformedSpecs) {
  Tracer T;
  std::string Err;
  EXPECT_FALSE(T.configureSink("ring:0", Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(T.configureSink("ring:abc", Err));
  EXPECT_FALSE(T.configureSink("ring:", Err));
  EXPECT_FALSE(T.configureSink("bogus", Err));
  EXPECT_EQ(T.mode(), TraceSinkMode::Unbounded) << "bad specs change nothing";
  EXPECT_TRUE(T.configureSink("ring:8", Err)) << Err;
  EXPECT_EQ(T.ringCapacity(), 8u);
  EXPECT_TRUE(T.configureSink("unbounded", Err)) << Err;
  EXPECT_EQ(T.mode(), TraceSinkMode::Unbounded);
}

TEST(TraceSinkTest, SwitchingSinksStartsAFreshRecording) {
  // A sink switch discards the buffer, so it must also reset the
  // counters: a stream header claiming events recorded under the
  // previous sink would break Recorded + Dropped == Emitted.
  Tracer T;
  T.setEnabled(true);
  for (uint64_t I = 0; I < 5; ++I)
    T.record(TraceEventKind::TaskStart, 0, I);
  EXPECT_EQ(T.emitted(), 5u);
  std::string Err;
  ASSERT_TRUE(T.configureSink("ring:4", Err)) << Err;
  EXPECT_EQ(T.emitted(), 0u);
  EXPECT_EQ(T.dropped(), 0u);
  EXPECT_EQ(T.size(), 0u);
  for (uint64_t I = 0; I < 6; ++I)
    T.record(TraceEventKind::TaskStart, 0, I);
  EXPECT_EQ(T.dropped(), 2u);
  std::string Path = ::testing::TempDir() + "mult_switch_trace.bin";
  ASSERT_TRUE(T.configureSink("stream:" + Path, Err)) << Err;
  EXPECT_EQ(T.emitted(), 0u);
  EXPECT_EQ(T.dropped(), 0u);
  T.record(TraceEventKind::TaskStart, 0, 0);
  ASSERT_TRUE(T.configureSink("unbounded", Err)) << Err;
  EXPECT_EQ(T.emitted(), 0u);
  TraceFile F;
  ASSERT_TRUE(readTraceFile(Path, F, Err)) << Err;
  EXPECT_EQ(F.Emitted, 1u) << "header counts only this sink's events";
  EXPECT_EQ(F.Events.size(), 1u);
  std::remove(Path.c_str());
}

TEST(TraceSinkTest, ResolveSerialsSurviveClear) {
  // Serials must never repeat within an engine: a cleared buffer does not
  // license reusing a serial a stale future stamp may still carry.
  Tracer T;
  T.setEnabled(true);
  uint64_t S1 = T.newResolveSerial();
  T.clear();
  uint64_t S2 = T.newResolveSerial();
  EXPECT_GT(S2, S1);
}

//===----------------------------------------------------------------------===//
// Exporter
//===----------------------------------------------------------------------===//

/// Minimal JSON syntax checker (objects, arrays, strings, numbers, the
/// three literals). Returns true when \p S is one complete JSON value.
class JsonChecker {
public:
  explicit JsonChecker(std::string_view S) : S(S) {}
  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{': return object();
    case '[': return array();
    case '"': return string();
    case 't': return literal("true");
    case 'f': return literal("false");
    case 'n': return literal("null");
    default: return number();
    }
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') { ++Pos; return true; }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') { ++Pos; continue; }
      if (peek() == '}') { ++Pos; return true; }
      return false;
    }
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') { ++Pos; return true; }
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') { ++Pos; continue; }
      if (peek() == ']') { ++Pos; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\')
        ++Pos;
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos;
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }
  bool literal(std::string_view L) {
    if (S.substr(Pos, L.size()) != L)
      return false;
    Pos += L.size();
    return true;
  }
  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  void skipWs() {
    while (Pos < S.size() &&
           std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  std::string_view S;
  size_t Pos = 0;
};

TEST(TraceExportTest, EmitsValidChromeTraceJson) {
  Engine E(tracedConfig(2));
  evalOk(E, ParallelProgram);
  std::string Json = chromeTraceJson(E.tracer(), E.machine());
  ASSERT_FALSE(Json.empty());
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json.substr(0, 400);
  // The pieces Perfetto needs: the event array, thread-name metadata for
  // each virtual processor, duration slices, and the cycle counters.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"vcpu 0\""), std::string::npos);
  EXPECT_NE(Json.find("\"vcpu 1\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"cycles\""), std::string::npos);
  EXPECT_NE(Json.find("\"busy\""), std::string::npos);
}

TEST(TraceExportTest, EmptyTraceStillValid) {
  Engine E(config(1));
  evalOk(E, "(+ 1 2)");
  std::string Json = chromeTraceJson(E.tracer(), E.machine());
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json.substr(0, 400);
}

/// One line per CriticalPathReport field, sites in report order.
std::string renderReport(const CriticalPathReport &R) {
  std::string Out;
  StringOutStream OS(Out);
  OS << "ok " << static_cast<int>(R.Ok) << "\nerror " << R.Error
     << "\nwork " << R.Work << "\nspan " << R.Span << "\ntasks " << R.Tasks
     << "\nsegments " << R.Segments << "\njoins " << R.JoinEdges
     << "\nunknown " << R.UnknownJoins << "\n";
  for (const FutureSiteProfile &S : R.Sites)
    OS << "site " << S.Name << ' ' << S.Inlined << ' ' << S.Queued << ' '
       << S.LazySeams << ' ' << S.SeamSplits << ' ' << S.StolenStarts << ' '
       << S.ChildWork << ' ' << S.ChildOnPath << "\n";
  return Out;
}

/// Counts the chunks an exporter hands its sink.
class ChunkSink final : public OutStream {
public:
  void write(const char *Data, size_t Size) override {
    Joined.append(Data, Size);
    ++Writes;
    LargestWrite = std::max(LargestWrite, Size);
  }
  std::string Joined;
  size_t Writes = 0;
  size_t LargestWrite = 0;
};

/// Seven allocating futures on four processors: the last ones leave
/// processors idle while the heap is still filling.
const char *UnevenAllocatingProgram = R"lisp(
  (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
  (define (churn k acc)
    (if (= k 0) acc (churn (- k 1) (+ acc (length (build 300))))))
  (define (spawn n)
    (if (= n 0) '() (cons (future (churn 5 0)) (spawn (- n 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (drain (spawn 7) 0)
)lisp";

/// The exporter and the analyzer are pinned byte for byte on one fixed
/// traced run: 4 processors, lazy futures, and a heap small enough that
/// collections split run and idle slices.
TEST(TraceExportTest, OutputIsPinnedByteForByte) {
  EngineConfig C = tracedConfig(4);
  C.LazyFutures = true;
  C.HeapWords = 1 << 15;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, UnevenAllocatingProgram), 7 * 5 * 300);
  ASSERT_GT(E.gcStats().Collections, 0u) << "heap sized to force GC";
  ASSERT_GT(countKind(E.tracer(), TraceEventKind::SeamSteal), 0u);
  // Some pause must land inside a run slice and some inside an idle one,
  // so the pinned bytes cover the exporter's slice splitting.
  size_t RunSplits = 0, IdleSplits = 0;
  bool Running[4] = {}, Idle[4] = {};
  for (const TraceEvent &Ev : E.tracer().events()) {
    switch (Ev.Kind) {
    case TraceEventKind::TaskStart:
      Running[Ev.Proc] = true;
      break;
    case TraceEventKind::TaskBlock:
    case TraceEventKind::TaskFinish:
    case TraceEventKind::TaskStopped:
      Running[Ev.Proc] = false;
      break;
    case TraceEventKind::IdleBegin:
    case TraceEventKind::IdleEnd:
      Idle[Ev.Proc] = Ev.Kind == TraceEventKind::IdleBegin;
      break;
    case TraceEventKind::GcBegin:
      RunSplits += Running[Ev.Proc];
      IdleSplits += !Running[Ev.Proc] && Idle[Ev.Proc];
      break;
    default:
      break;
    }
  }
  ASSERT_GT(RunSplits, 0u);
  ASSERT_GT(IdleSplits, 0u);

  std::string Json = chromeTraceJson(E.tracer(), E.machine());
  CriticalPathReport R = analyzeCriticalPath(E.tracer());
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Report = renderReport(R);
  EXPECT_EQ(fnv1a64(Json), 0xb278ec066f29bdfULL) << Json.size() << " bytes";
  EXPECT_EQ(fnv1a64(Report), 0xc89b061919f832bbULL) << Report;

  // The exporter streams: the document is larger than its buffer, so it
  // reaches the sink in several bounded chunks that join to the string.
  ChunkSink Sink;
  writeChromeTrace(Sink, E.tracer(), E.machine());
  EXPECT_GT(Json.size(), ChromeTraceChunkBytes);
  EXPECT_GT(Sink.Writes, 1u);
  EXPECT_LE(Sink.LargestWrite, ChromeTraceChunkBytes);
  EXPECT_EQ(Sink.Joined, Json);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, ReportMatchesCountersAndTrace) {
  Engine E(tracedConfig(4));
  evalOk(E, ParallelProgram);
  MetricsReport R =
      buildMetrics(E.machine(), E.stats(), E.gcStats(), E.tracer());
  ASSERT_EQ(R.Procs.size(), 4u);
  EXPECT_EQ(R.Stats.Steals + R.Stats.StealsFailed, R.Stats.StealAttempts);
  EXPECT_GT(R.stealSuccessRate(), 0.0);
  EXPECT_LE(R.stealSuccessRate(), 1.0);
  uint64_t Started = 0;
  for (const ProcMetrics &P : R.Procs)
    Started += P.TasksStarted;
  EXPECT_GT(Started, 0u);
  // The backlog of 24 futures must have shown up in some queue.
  size_t MaxHighWater = 0;
  for (const ProcMetrics &P : R.Procs)
    MaxHighWater = std::max(MaxHighWater, P.NewQueueHighWater);
  EXPECT_GT(MaxHighWater, 0u);
  // Trace-derived lifetimes: every spawned task measured.
  EXPECT_GE(R.TasksMeasured, 24u);
  uint64_t Bucketed = 0;
  for (uint64_t N : R.TaskLifetimeLog2)
    Bucketed += N;
  EXPECT_EQ(Bucketed, R.TasksMeasured);
  // Rendering never crashes and mentions the key sections.
  std::string Text;
  StringOutStream OS(Text);
  dumpMetrics(OS, R);
  EXPECT_NE(Text.find("steal"), std::string::npos);
  EXPECT_NE(Text.find("busy"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Group-stop vetting (the dispatch-side bugfix paths)
//===----------------------------------------------------------------------===//

/// Two real futures are queued, then the root task raises before touching
/// them: the group stops with Ready tasks still sitting in the new queue.
const char *StopWithBacklog = R"lisp(
  (begin (future (let loop ((i 0)) (if (= i 50000) 1 (loop (+ i 1)))))
         (future (let loop ((i 0)) (if (= i 50000) 2 (loop (+ i 1)))))
         (car 5))
)lisp";

TEST(SchedulerVetTest, StoppedGroupTasksAreParkedOnDispatch) {
  Engine E(tracedConfig(1));
  EvalResult R = E.eval(StopWithBacklog);
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  Group *G = E.findGroup(R.StoppedGroup);
  ASSERT_NE(G, nullptr);
  ASSERT_EQ(static_cast<int>(G->State),
            static_cast<int>(GroupState::Stopped));
  Processor &P = E.machine().processor(0);
  ASSERT_GT(P.Queues.newCount(), 0u) << "backlog should still be queued";
  size_t Before = G->Parked.size();
  // Drain the queue by hand: every popped member of the stopped group must
  // be parked (state Stopped, on the group's parked list), not run or lost.
  while (dispatchNextTask(E, E.machine(), P) != InvalidTask) {
  }
  EXPECT_EQ(P.Queues.newCount(), 0u);
  EXPECT_GE(G->Parked.size(), Before + 2);
  for (TaskId Id : G->Parked) {
    Task *T = E.liveTask(Id);
    if (!T)
      continue;
    EXPECT_EQ(static_cast<int>(T->State),
              static_cast<int>(TaskState::Stopped));
  }
  EXPECT_GE(countKind(E.tracer(), TraceEventKind::TaskParked), 2u);
  // Parked tasks survive: resuming the group reruns them to completion.
  EvalResult RR = E.resumeGroup(R.StoppedGroup, Value::nil());
  EXPECT_TRUE(RR.ok()) << RR.Error;
}

TEST(SchedulerVetTest, KilledGroupTasksAreDroppedOnDispatch) {
  Engine E(tracedConfig(1));
  EvalResult R = E.eval(StopWithBacklog);
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  Group *G = E.findGroup(R.StoppedGroup);
  ASSERT_NE(G, nullptr);
  Processor &P = E.machine().processor(0);
  ASSERT_GT(P.Queues.newCount(), 0u);
  // Flip the group to Killed directly: Engine::killGroup finishes live
  // members eagerly, so the dispatch-side drop path only runs when a
  // kill races a queued id — which this simulates.
  G->State = GroupState::Killed;
  size_t Queued = P.Queues.newCount();
  while (dispatchNextTask(E, E.machine(), P) != InvalidTask) {
  }
  EXPECT_EQ(P.Queues.newCount(), 0u);
  EXPECT_GE(countKind(E.tracer(), TraceEventKind::TaskDropped), Queued);
  // Dropped tasks are gone for good: their slots were recycled.
  for (TaskId Id : G->Members) {
    if (Task *T = E.liveTask(Id)) {
      EXPECT_NE(static_cast<int>(T->State),
                static_cast<int>(TaskState::Ready));
    }
  }
}

//===----------------------------------------------------------------------===//
// Steal-order ablation at the queue level
//===----------------------------------------------------------------------===//

TEST(TaskQueuesTest, OwnerPopsLifoThiefObeysStealOrder) {
  auto Id = [](uint32_t N) { return makeTaskId(N, 1); };
  uint64_t Cycles = 0;
  {
    TaskQueues Q;
    Q.pushNew(Id(1), 0);
    Q.pushNew(Id(2), 0);
    Q.pushNew(Id(3), 0);
    EXPECT_EQ(Q.newHighWater(), 3u);
    // The owner always takes the newest (paper: LIFO selection).
    EXPECT_EQ(Q.popNew(0, Cycles), Id(3));
    // A LIFO thief takes the newest remaining...
    EXPECT_EQ(Q.stealNew(0, Cycles, StealOrder::Lifo), Id(2));
    Q.pushNew(Id(4), 0);
    // ...a FIFO thief the oldest.
    EXPECT_EQ(Q.stealNew(0, Cycles, StealOrder::Fifo), Id(1));
    EXPECT_EQ(Q.stealNew(0, Cycles, StealOrder::Fifo), Id(4));
    EXPECT_EQ(Q.stealNew(0, Cycles, StealOrder::Fifo), InvalidTask);
  }
  {
    TaskQueues Q;
    Q.pushSuspended(Id(7), 0);
    Q.pushSuspended(Id(8), 0);
    EXPECT_EQ(Q.suspendedHighWater(), 2u);
    EXPECT_EQ(Q.stealSuspended(0, Cycles, StealOrder::Fifo), Id(7));
    EXPECT_EQ(Q.popSuspended(0, Cycles), Id(8));
    Q.resetHighWater();
    EXPECT_EQ(Q.suspendedHighWater(), 0u);
  }
}

TEST(TaskQueuesTest, StealOrderChangesWhichTasksMove) {
  // End-to-end ablation: both orders complete the backlog with steals;
  // the schedules differ (different total cycles is the usual symptom,
  // but the hard guarantee is simply that both are correct).
  for (StealOrder O : {StealOrder::Lifo, StealOrder::Fifo}) {
    EngineConfig C = config(4);
    C.StealPolicy = O;
    C.EnableTracing = true;
    Engine E(C);
    EXPECT_EQ(evalFixnum(E, ParallelProgram), 4900); // sum n^2, n=1..24
    EXPECT_GT(E.stats().Steals, 0u);
    EXPECT_EQ(E.stats().Steals + E.stats().StealsFailed,
              E.stats().StealAttempts);
  }
}

} // namespace
