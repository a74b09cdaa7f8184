//===----------------------------------------------------------------------===//
///
/// \file
/// Chrome trace-event JSON exporter implementation.
///
/// Duration slices are reconstructed per processor from the event stream:
/// a task-start opens a run slice which the next block/finish/stop on the
/// same processor closes; idle-begin/idle-end and gc-begin/gc-end pair up
/// directly. A GC pause interrupting a run or idle slice splits it — the
/// interrupted slice closes at gc-begin and reopens at gc-end — so slices
/// on one row never overlap except for proper nesting.
///
//===----------------------------------------------------------------------===//

#include "obs/TraceExport.h"

#include "core/Stats.h"
#include "core/Task.h"

#include <charconv>
#include <cstring>
#include <optional>

using namespace mult;

namespace {

/// Upper bound on one serialized record, separator included. The longest,
/// an instant, stays under 200 bytes: a kind name, a 20-digit payload and
/// a timestamp of at most 24 characters.
constexpr size_t MaxRecordBytes = 512;

/// A timestamp or duration in virtual cycles, rendered as microseconds.
struct Micros {
  uint64_t Cycles;
};

/// Serializes JSON event objects into one fixed buffer on the stack and
/// hands it to the sink whenever the next record might not fit. The
/// document streams out in chunks of at most ChromeTraceChunkBytes and is
/// never held whole: a bench-sized trace renders to tens of megabytes.
class ChunkWriter {
public:
  explicit ChunkWriter(OutStream &OS) : OS(OS) {}

  /// Appends text outside any record (the document head and tail).
  void raw(std::string_view S) {
    makeRoom();
    append(S);
  }

  void processName() {
    record("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"mul-t virtual machine\"}}");
  }

  void threadName(unsigned Tid) {
    record("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":", Tid,
           ",\"args\":{\"name\":\"vcpu ", Tid, "\"}}");
  }

  /// A duration slice named by the concatenation of \p Name.
  template <class... NameParts>
  void slice(unsigned Tid, uint64_t StartCycles, uint64_t EndCycles,
             const NameParts &...Name) {
    record("{\"name\":\"", Name..., "\",\"ph\":\"X\",\"pid\":0,\"tid\":", Tid,
           ",\"ts\":", Micros{StartCycles}, ",\"dur\":",
           Micros{EndCycles - StartCycles}, "}");
  }

  void instant(std::string_view Name, unsigned Tid, uint64_t Cycles,
               uint64_t A, uint64_t B) {
    record("{\"name\":\"", Name,
           "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":", Tid,
           ",\"ts\":", Micros{Cycles}, ",\"args\":{\"a\":", A, ",\"b\":", B,
           "}}");
  }

  void counter(unsigned Tid, uint64_t Cycles, uint64_t Busy, uint64_t Idle,
               uint64_t Gc) {
    record("{\"name\":\"cycles\",\"ph\":\"C\",\"pid\":0,\"tid\":", Tid,
           ",\"ts\":", Micros{Cycles}, ",\"args\":{\"busy\":", Busy,
           ",\"idle\":", Idle, ",\"gc\":", Gc, "}}");
  }

  /// Hands the buffered tail to the sink.
  void flush() {
    if (Len)
      OS.write(Buf, Len);
    Len = 0;
  }

private:
  /// Writes one record and its separator. Room for MaxRecordBytes is made
  /// up front, so the appends need no bounds checks.
  template <class... Parts> void record(const Parts &...Ps) {
    makeRoom();
    if (!First)
      append(",\n ");
    First = false;
    (append(Ps), ...);
  }

  void makeRoom() {
    if (Len > sizeof(Buf) - MaxRecordBytes)
      flush();
  }

  void append(std::string_view S) {
    std::memcpy(Buf + Len, S.data(), S.size());
    Len += S.size();
  }

  void append(uint64_t N) { Len = formatDecimal(Buf + Len, N) - Buf; }

  void append(Micros T) { Len = formatTraceMicros(Buf + Len, T.Cycles) - Buf; }

  OutStream &OS;
  bool First = true;
  size_t Len = 0;
  char Buf[ChromeTraceChunkBytes];
};

/// Rebuilds the duration slices of one processor's row.
class RowBuilder {
public:
  RowBuilder(ChunkWriter &W, unsigned Proc) : W(W), Proc(Proc) {}

  void feed(const TraceEvent &E) {
    switch (E.Kind) {
    case TraceEventKind::TaskStart:
      closeTask(E.Clock);
      OpenTask = Span{E.A, E.Clock};
      break;
    case TraceEventKind::TaskBlock:
    case TraceEventKind::TaskFinish:
    case TraceEventKind::TaskStopped:
      closeTask(E.Clock);
      break;
    case TraceEventKind::IdleBegin:
      OpenIdle = E.Clock;
      break;
    case TraceEventKind::IdleEnd:
      closeIdle(E.Clock);
      break;
    case TraceEventKind::GcBegin:
      // A pause interrupts whatever the processor was doing; split the
      // interrupted slice around the pause.
      if (OpenTask) {
        Interrupted = OpenTask;
        closeTask(E.Clock);
      } else if (OpenIdle) {
        IdleInterrupted = true;
        closeIdle(E.Clock);
      }
      GcStart = E.Clock;
      break;
    case TraceEventKind::GcEnd:
      if (GcStart) {
        W.slice(Proc, *GcStart, E.Clock, "gc");
        GcStart.reset();
      }
      if (Interrupted) {
        OpenTask = Span{Interrupted->Task, E.Clock};
        Interrupted.reset();
      } else if (IdleInterrupted) {
        OpenIdle = E.Clock;
        IdleInterrupted = false;
      }
      break;
    default:
      break;
    }
  }

  void finish(uint64_t EndClock) {
    closeTask(EndClock);
    closeIdle(EndClock);
    if (GcStart) {
      W.slice(Proc, *GcStart, EndClock, "gc");
      GcStart.reset();
    }
  }

private:
  struct Span {
    uint64_t Task;
    uint64_t Start;
  };

  void closeTask(uint64_t End) {
    if (!OpenTask)
      return;
    W.slice(Proc, OpenTask->Start, End, "task ", taskIndex(OpenTask->Task));
    OpenTask.reset();
  }

  void closeIdle(uint64_t End) {
    if (!OpenIdle)
      return;
    W.slice(Proc, *OpenIdle, End, "idle");
    OpenIdle.reset();
  }

  ChunkWriter &W;
  unsigned Proc;
  std::optional<Span> OpenTask;
  std::optional<Span> Interrupted;
  std::optional<uint64_t> OpenIdle;
  std::optional<uint64_t> GcStart;
  bool IdleInterrupted = false;
};

/// True for kinds the exporter renders as instants (everything that is not
/// a slice boundary consumed by RowBuilder).
bool isInstantKind(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::TaskStart:
  case TraceEventKind::IdleBegin:
  case TraceEventKind::IdleEnd:
  case TraceEventKind::GcBegin:
  case TraceEventKind::GcEnd:
    return false;
  default:
    return true;
  }
}

} // namespace

char *mult::formatTraceMicros(char *Out, uint64_t Cycles) {
  constexpr uint64_t HundredthsPerCycle = 112;
  static_assert(HundredthsPerCycle / 100.0 ==
                EngineStats::MicrosecondsPerCycle);
  if (Cycles < (uint64_t(1) << 40)) {
    uint64_t H = Cycles * HundredthsPerCycle;
    Out = formatDecimal(Out, H / 100);
    unsigned Frac = unsigned(H % 100);
    Out[0] = '.';
    Out[1] = char('0' + Frac / 10);
    Out[2] = char('0' + Frac % 10);
    Out[3] = '0';
    return Out + 4;
  }
  // to_chars rounds exactly, as printf's "%.3f" does.
  double Us = static_cast<double>(Cycles) * EngineStats::MicrosecondsPerCycle;
  return std::to_chars(Out, Out + TraceMicrosMaxChars, Us,
                       std::chars_format::fixed, 3)
      .ptr;
}

void mult::writeChromeTrace(OutStream &OS, const Tracer &Tr,
                            const Machine &M) {
  unsigned N = M.numProcessors();
  ChunkWriter W(OS);
  W.raw("{\"traceEvents\":[\n ");
  W.processName();
  for (unsigned P = 0; P < N; ++P)
    W.threadName(P);

  std::vector<RowBuilder> Rows;
  Rows.reserve(N);
  for (unsigned P = 0; P < N; ++P)
    Rows.emplace_back(W, P);

  for (const TraceEvent &E : Tr.events()) {
    if (E.Proc < N)
      Rows[E.Proc].feed(E);
    if (isInstantKind(E.Kind))
      W.instant(traceEventKindName(E.Kind), E.Proc, E.Clock, E.A, E.B);
  }
  for (unsigned P = 0; P < N; ++P) {
    const Processor &Proc = M.processor(P);
    Rows[P].finish(Proc.Clock);
    W.counter(P, Proc.Clock, Proc.busyCycles(), Proc.IdleCycles, Proc.GcCycles);
  }
  W.raw("\n],\"displayTimeUnit\":\"ms\"}\n");
  W.flush();
}

std::string mult::chromeTraceJson(const Tracer &Tr, const Machine &M) {
  std::string Out;
  StringOutStream OS(Out);
  writeChromeTrace(OS, Tr, M);
  return Out;
}
