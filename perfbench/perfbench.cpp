//===----------------------------------------------------------------------===//
///
/// \file
/// Host-time benchmark of the Mul-T simulator.
///
/// One run executes one workload in repeated passes for a fixed number of
/// host seconds, checks every result, and prints its metrics, the last
/// line being one JSON object. An untraced run (--trace 0) reports the
/// end-to-end metrics; a traced run (--trace 1) alternates untraced and
/// traced passes and reports the per-layer metrics plus the tracing
/// overhead. README.md lists the workloads and what each metric should
/// move.
///
/// Every layer is measured from outside the library: spans around calls
/// into its public API and its public counters. Virtual cycles are the
/// simulator's semantics, so they are checked here and never rewarded.
///
//===----------------------------------------------------------------------===//

#include "Provenance.h"

#include "analysis/RaceDetect.h"
#include "core/Engine.h"
#include "lib/Prelude.h"
#include "obs/CriticalPath.h"
#include "obs/Metrics.h"
#include "obs/TraceExport.h"
#include "reader/Reader.h"
#include "runtime/Printer.h"
#include "support/Prng.h"
#include "support/StrUtil.h"

#include "programs/BoyerProgram.h"
#include "programs/MergesortProgram.h"
#include "programs/MiniCompilerProgram.h"
#include "programs/PermuteProgram.h"
#include "programs/QueensProgram.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

extern char **environ;

using namespace mult;

namespace {

using Clock = std::chrono::steady_clock;

/// Operations whose inputs come from the seed have their virtual-cycle
/// counts pinned on this seed only; the others are pinned on every seed.
constexpr uint64_t DefaultSeed = 1;

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed call into the library. Times are ns since the run began;
/// Parent indexes the enclosing span (-1 for a pass); Request names the
/// engine session the call served (0 = the pass itself).
struct Span {
  const char *Name;
  uint64_t Start;
  uint64_t End;
  int Parent;
  uint32_t Request;
};

/// Times calls. Always measures; keeps the span only while Recording
/// (the traced passes), in memory until the run ends.
class SpanLog {
public:
  bool Recording = false;
  std::vector<Span> Spans;

  template <class Fn>
  uint64_t time(const char *Name, uint32_t Request, Fn &&F) {
    int Id = -1;
    uint64_t Start = now();
    if (Recording) {
      Id = static_cast<int>(Spans.size());
      Spans.push_back({Name, Start, 0, Open, Request});
      Open = Id;
    }
    F();
    uint64_t End = now();
    if (Id >= 0) {
      Spans[Id].End = End;
      Open = Spans[Id].Parent;
    }
    return End - Start;
  }

  /// Total and self time per span name; self = span minus its children.
  std::map<std::string, std::pair<uint64_t, uint64_t>> selfTimes() const {
    std::vector<uint64_t> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += S.End - S.Start;
    std::map<std::string, std::pair<uint64_t, uint64_t>> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      uint64_t D = Spans[I].End - Spans[I].Start;
      auto &[Total, Self] = Out[Spans[I].Name];
      Total += D;
      Self += D - Child[I];
    }
    return Out;
  }

private:
  uint64_t now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }
  Clock::time_point Epoch = Clock::now();
  int Open = -1;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One engine session: construct an engine from Cfg, load Program, then
/// make one timed top-level eval of Expr: the operation. Its printed value
/// must equal Want, a reference from outside the timed run (a known count,
/// a value the benchmark computes itself, or one recorded from a
/// sequential elaboration). A session whose engine traces is observed
/// afterwards: critical path, trace export and metrics report.
struct Session {
  std::string Label;
  EngineConfig Cfg;
  std::string Program;
  std::string Expr;
  std::string Want;
  /// Inputs drawn from the seed: the cycle pin applies on DefaultSeed only.
  bool Seeded = false;
};

struct Workload {
  std::vector<Session> Sessions;
  /// The seed-derived inputs, printed so two seeds can be compared.
  std::string Inputs;
};

EngineConfig defaultEngine(unsigned Procs,
                           std::optional<unsigned> T = std::nullopt) {
  EngineConfig C;
  C.NumProcessors = Procs;
  C.InlineThreshold = T;
  return C;
}

/// (permute-run Target Len Dmin Chunk Batch), replayed on the engine's
/// PRNG: every draw happens in the root task in program order, so the
/// number of candidates tested is a pure function of the seed.
uint64_t permuteTested(uint64_t RandomSeed, int Target, int Len, int Dmin,
                       int Batch) {
  Prng R(RandomSeed);
  std::vector<std::vector<uint64_t>> Accepted;
  uint64_t Tested = 0;
  while (static_cast<int>(Accepted.size()) < Target) {
    std::vector<std::vector<uint64_t>> Cands(Batch,
                                             std::vector<uint64_t>(Len));
    for (auto &C : Cands)
      for (uint64_t &X : C)
        X = R.nextBelow(32);
    size_t Old = Accepted.size();
    for (const auto &C : Cands) {
      bool Far = true;
      for (size_t I = 0; I < Old && Far; ++I) {
        int D = 0;
        for (int J = 0; J < Len; ++J)
          D += C[J] != Accepted[I][J];
        Far = D >= Dmin;
      }
      if (Far && static_cast<int>(Accepted.size()) < Target)
        Accepted.push_back(C);
    }
    Tested += Batch;
  }
  return Tested;
}

std::string permuteExpr(int Target, int Len, int Dmin, int Chunk,
                        int Batch) {
  return strFormat("(permute-run %d %d %d %d %d)", Target, Len, Dmin, Chunk,
                   Batch);
}

/// The printed result of sorting (mergesort-input N Seed): the benchmark
/// generates the same input and sorts it itself.
std::string sortedInput(int N, int64_t Seed) {
  std::vector<int64_t> V;
  int64_t X = Seed;
  for (int I = 0; I < N; ++I) {
    X = (X * 75 + 74) % 65537;
    V.push_back(X);
  }
  std::sort(V.begin(), V.end());
  std::string S = "(";
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      S += ' ';
    S += std::to_string(V[I]);
  }
  return S + ")";
}

std::string mergesortExpr(int N, int64_t Seed) {
  return strFormat("(sort! (mergesort-input %d %lld) %d)", N,
                   static_cast<long long>(Seed), N);
}

/// The mini-compiler's result, recorded from its sequential (#f)
/// elaboration; --record recomputes it.
constexpr const char MiniCompilerRef[] = "(37562 37562 597408722)";

// apps-p12: Table 4's four applications at 12 processors.
constexpr unsigned AppsProcs = 12;
constexpr int PermuteTarget = 400, PermuteLen = 20, PermuteDmin = 10,
              PermuteChunk = 8, PermuteBatch = 16;
constexpr int QueensN = 10;
constexpr const char QueensCount[] = "724";
constexpr int CompilerProcs = 21, CompilerDepth = 7;
constexpr int MergesortN = 16384;

std::string miniCompilerExpr(bool Parallel) {
  return strFormat("(mc-compile-program (mc-gen-program %d %d) %s)",
                   CompilerProcs, CompilerDepth, Parallel ? "#t" : "#f");
}

Workload appsP12(uint64_t Seed) {
  Prng Draw(Seed);
  uint64_t PermuteSeed = Draw.next();
  int64_t MsortSeed = 1 + static_cast<int64_t>(Draw.nextBelow(65536));
  Workload W;
  EngineConfig Permute = defaultEngine(AppsProcs);
  Permute.RandomSeed = PermuteSeed;
  W.Sessions.push_back(
      {"permute", Permute, PermuteSource,
       permuteExpr(PermuteTarget, PermuteLen, PermuteDmin, PermuteChunk,
                   PermuteBatch),
       std::to_string(permuteTested(PermuteSeed, PermuteTarget, PermuteLen,
                                    PermuteDmin, PermuteBatch)),
       true});
  W.Sessions.push_back({"queens", defaultEngine(AppsProcs), QueensSource,
                        strFormat("(queens-par %d)", QueensN), QueensCount});
  W.Sessions.push_back({"mini-compiler", defaultEngine(AppsProcs),
                        MiniCompilerSource, miniCompilerExpr(true),
                        MiniCompilerRef});
  W.Sessions.push_back({"mergesort", defaultEngine(AppsProcs, 1u),
                        MergesortSource, mergesortExpr(MergesortN, MsortSeed),
                        sortedInput(MergesortN, MsortSeed), true});
  W.Inputs = strFormat("permute-random-seed=%llu mergesort-seed=%lld",
                       static_cast<unsigned long long>(PermuteSeed),
                       static_cast<long long>(MsortSeed));
  return W;
}

// boyer-seq: Table 2's Boyer, touch checks on, one processor, a heap small
// enough to collect several times per pass.
constexpr int BoyerSeqRounds = 4;
constexpr size_t BoyerSeqHeapWords = size_t(1) << 18;

Workload boyerSeq(uint64_t) {
  EngineConfig C = defaultEngine(1);
  C.HeapWords = BoyerSeqHeapWords;
  Workload W;
  W.Sessions.push_back({"boyer", C,
                        std::string(BoyerCommonSource) + BoyerSequentialArgs,
                        strFormat("(boyer-test %d)", BoyerSeqRounds), "#t"});
  W.Inputs = "none";
  return W;
}

// boyer-par-traced: Table 3's Boyer at 4 processors, dormant, then armed
// (tracing and race detection) and observed.
constexpr unsigned BoyerParProcs = 4;
constexpr int BoyerParRounds = 1;

Workload boyerParTraced(uint64_t) {
  std::string Program = std::string(BoyerCommonSource) + BoyerParallelArgs;
  std::string Expr = strFormat("(boyer-test %d)", BoyerParRounds);
  EngineConfig Armed = defaultEngine(BoyerParProcs);
  Armed.EnableTracing = true;
  Armed.RaceDetect = true;
  Workload W;
  W.Sessions.push_back(
      {"boyer-dormant", defaultEngine(BoyerParProcs), Program, Expr, "#t"});
  W.Sessions.push_back({"boyer-armed", Armed, Program, Expr, "#t"});
  W.Inputs = "none";
  return W;
}

// session-churn: short sessions on fresh default engines, one per
// (program, processor count) pair, in an order and with inputs drawn from
// the seed. Every pass holds the same mix, so the seed moves inputs, not
// the amount of work.
constexpr unsigned ChurnProcs[] = {1, 2, 4, 8};
constexpr int ChurnVectorLen = 512, ChurnSortN = 512, ChurnQueensN = 6;
constexpr const char ChurnQueensCount[] = "4";
constexpr int ChurnPermuteTarget = 8, ChurnPermuteLen = 12,
              ChurnPermuteDmin = 6, ChurnPermuteChunk = 4,
              ChurnPermuteBatch = 4;

constexpr const char ParallelSumSource[] = R"lisp(
(define (psum v lo hi)
  (if (< (- hi lo) 32)
      (let loop ((i lo) (acc 0))
        (if (= i hi) acc (loop (+ i 1) (+ acc (vector-ref v i)))))
      (let ((mid (quotient (+ lo hi) 2)))
        (let ((a (future (psum v lo mid))))
          (+ (psum v mid hi) (touch a))))))
)lisp";

/// One short session: its whole program, definitions and call, is the
/// timed eval, as at the REPL.
Session churnSession(int Kind, unsigned Procs, Prng &Draw) {
  Session S;
  S.Cfg = defaultEngine(Procs);
  S.Seeded = true;
  std::string Tag = strFormat(" p%u", Procs);
  switch (Kind) {
  case 0: {
    std::string Vec = "'#(";
    uint64_t Sum = 0;
    for (int I = 0; I < ChurnVectorLen; ++I) {
      uint64_t X = Draw.nextBelow(1000);
      Sum += X;
      if (I)
        Vec += ' ';
      Vec += std::to_string(X);
    }
    Vec += ")";
    S.Label = "psum" + Tag;
    S.Expr = ParallelSumSource +
             strFormat("(psum %s 0 %d)", Vec.c_str(), ChurnVectorLen);
    S.Want = std::to_string(Sum);
    break;
  }
  case 1: {
    int64_t Seed = 1 + static_cast<int64_t>(Draw.nextBelow(65536));
    S.Label = "mergesort" + Tag;
    S.Expr = MergesortSource + mergesortExpr(ChurnSortN, Seed);
    S.Want = sortedInput(ChurnSortN, Seed);
    break;
  }
  case 2: {
    S.Cfg.RandomSeed = Draw.next();
    S.Label = "permute" + Tag;
    S.Expr = PermuteSource + permuteExpr(ChurnPermuteTarget, ChurnPermuteLen,
                                         ChurnPermuteDmin, ChurnPermuteChunk,
                                         ChurnPermuteBatch);
    S.Want = std::to_string(permuteTested(S.Cfg.RandomSeed,
                                          ChurnPermuteTarget, ChurnPermuteLen,
                                          ChurnPermuteDmin,
                                          ChurnPermuteBatch));
    break;
  }
  default: // queens takes nothing from the seed
    S.Label = "queens" + Tag;
    S.Expr = QueensSource + strFormat("(queens-par %d)", ChurnQueensN);
    S.Want = ChurnQueensCount;
    S.Seeded = false;
    break;
  }
  return S;
}

Workload sessionChurn(uint64_t Seed) {
  Prng Draw(Seed);
  Workload W;
  for (unsigned P : ChurnProcs)
    for (int Kind = 0; Kind < 4; ++Kind)
      W.Sessions.push_back(churnSession(Kind, P, Draw));
  for (size_t I = W.Sessions.size() - 1; I > 0; --I)
    std::swap(W.Sessions[I], W.Sessions[Draw.nextBelow(I + 1)]);
  uint64_t Digest = 1469598103934665603ULL; // FNV-1a over the op sources
  for (const Session &S : W.Sessions)
    for (char Ch : S.Label + S.Expr)
      Digest = (Digest ^ static_cast<unsigned char>(Ch)) * 1099511628211ULL;
  W.Inputs = strFormat("sessions=%zu digest=%016llx", W.Sessions.size(),
                       static_cast<unsigned long long>(Digest));
  return W;
}

struct WorkloadDef {
  const char *Name;
  Workload (*Make)(uint64_t Seed);
};

constexpr WorkloadDef Workloads[] = {
    {"apps-p12", appsP12},
    {"boyer-seq", boyerSeq},
    {"session-churn", sessionChurn},
    {"boyer-par-traced", boyerParTraced},
};

//===----------------------------------------------------------------------===//
// Virtual-cycle pins: the elapsed virtual cycles of every operation,
// recorded with --record. A run whose count differs from its pin is a
// change of semantics, counted as a failed operation.
//===----------------------------------------------------------------------===//

struct Pin {
  const char *Workload;
  const char *Op;
  uint64_t VCycles;
};

constexpr Pin Pins[] = {
#include "pins.inc"
};

const Pin *findPin(const std::string &Workload, const std::string &Op) {
  for (const Pin &P : Pins)
    if (Workload == P.Workload && Op == P.Op)
      return &P;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// Counts and host times of one pass. Counts come from the engines'
/// public counters, read after each timed eval (stats are reset before
/// it); times are span durations in ns.
struct PassRecord {
  uint64_t WallNs = 0;
  uint64_t PeakRssKb = 0;
  /// Time of the traced pass's extra probes, left out of the overhead.
  uint64_t ExtraNs = 0;
  std::vector<uint64_t> SetupNs, HeapInitNs;
  uint64_t EvalNs = 0, GcNs = 0, DormantNs = 0, ArmedNs = 0;
  uint64_t Evals = 0, VCycles = 0, ProcCycles = 0;
  uint64_t Collections = 0, WordsCopied = 0;
  uint64_t Instructions = 0, Touches = 0, TouchesBlocked = 0;
  uint64_t Dispatches = 0, StealAttempts = 0, Steals = 0, TasksCreated = 0;
  uint64_t IdleCycles = 0;
  uint64_t TraceEvents = 0, Accesses = 0, Cells = 0, Races = 0;
  uint64_t CriticalPathNs = 0, ExportNs = 0, MetricsNs = 0;
  uint64_t ReadNs = 0, Forms = 0, CompileNs = 0;
  uint64_t TouchesEmitted = 0, TouchesEliminated = 0;
  uint64_t Attempted = 0, Failed = 0;
};

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// peakRssKb() reads the peak since now. False where the kernel refuses;
/// the peak then covers the whole process.
bool resetPeakRss() {
  FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

uint64_t peakRssKb() {
  unsigned long Kb = 0;
  if (FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %lu kB", &Kb) == 1)
        break;
    std::fclose(F);
  }
  if (!Kb) {
    rusage Use{};
    getrusage(RUSAGE_SELF, &Use);
    Kb = static_cast<unsigned long>(Use.ru_maxrss);
  }
  return Kb;
}

/// An OutStream that only counts: export and report cost without I/O.
class CountingStream final : public OutStream {
public:
  uint64_t Bytes = 0;
  void write(const char *, size_t Size) override { Bytes += Size; }
};

/// What one operation did in the latest pass.
struct OpOutcome {
  std::string Label;
  std::string Printed;
  uint64_t VCycles = 0;
  std::string Why; ///< Empty when the operation passed.
};

class Runner {
public:
  Runner(std::string Name, Workload W, uint64_t Seed, SpanLog &Log,
         bool Record)
      : Name(std::move(Name)), W(std::move(W)), Seed(Seed), Log(Log),
        Record(Record) {}

  PassRecord pass(bool Traced) {
    PassRecord R;
    Log.Recording = Traced;
    Outcomes.clear();
    resetPeakRss();
    R.WallNs = Log.time("pass", 0, [&] {
      for (size_t I = 0; I < W.Sessions.size(); ++I)
        runSession(W.Sessions[I], R, Traced, static_cast<uint32_t>(I + 1));
      if (Traced)
        R.ExtraNs += Log.time("probe", 0, [&] { probeReadCompile(R); });
    });
    R.PeakRssKb = peakRssKb();
    Log.Recording = false;
    if (FirstCycles.empty())
      for (const OpOutcome &O : Outcomes)
        FirstCycles.push_back(O.VCycles);
    return R;
  }

  const std::vector<OpOutcome> &outcomes() const { return Outcomes; }
  const char *dispatcher() const { return Dispatcher; }

private:
  void runSession(const Session &S, PassRecord &R, bool Traced,
                  uint32_t Req) {
    std::unique_ptr<Engine> E;
    R.SetupNs.push_back(Log.time(
        "core.setup", Req, [&] { E = std::make_unique<Engine>(S.Cfg); }));
    vetEngine(*E);
    EvalResult Load;
    if (!S.Program.empty())
      Log.time("core.load", Req, [&] { Load = E->eval(S.Program); });
    OpOutcome Out{S.Label, "", 0, "program failed to load: " + Load.Error};
    if (Load.ok()) {
      Out = runOp(*E, S, R, Req);
      if (S.Cfg.EnableTracing) {
        if (!observe(*E, R, Req) && Out.Why.empty())
          Out.Why = "observability outputs incomplete";
      } else if (Traced) {
        R.ExtraNs += Log.time("probe", Req, [&] { observe(*E, R, Req); });
      }
    }
    E.reset();
    R.Attempted += 1;
    R.Failed += !Out.Why.empty();
    Outcomes.push_back(std::move(Out));
    if (Traced)
      R.ExtraNs += Log.time("probe", Req, [&] {
        EngineConfig C = S.Cfg;
        C.LoadPrelude = false;
        std::unique_ptr<Engine> Bare;
        R.HeapInitNs.push_back(Log.time("runtime.heap_init", Req, [&] {
          Bare = std::make_unique<Engine>(C);
        }));
      });
  }

  /// The benchmark measures one program: refuse an engine that resolved
  /// an armed fault plan or tenant layer from somewhere.
  void vetEngine(const Engine &E) {
    if (E.tenantArmed() || E.faults().armed())
      fatal("engine came up with a fault plan or tenant layer armed");
    if (!Dispatcher)
      Dispatcher = E.dispatchName();
    else if (std::strcmp(Dispatcher, E.dispatchName()) != 0)
      fatal("engines resolved different dispatchers");
  }

  OpOutcome runOp(Engine &E, const Session &S, PassRecord &R, uint32_t Req) {
    E.resetStats();
    EvalResult Res;
    uint64_t Ns = Log.time("core.eval", Req, [&] { Res = E.eval(S.Expr); });
    OpOutcome Out{S.Label, "", E.stats().ElapsedCycles, ""};
    Log.time("check", Req, [&] {
      PrintOptions Wide;
      Wide.MaxLength = 1u << 20;
      if (!Res.ok())
        Out.Why = "eval failed: " + Res.Error;
      else if (Out.Printed = valueToString(Res.Val, Wide); Out.Printed != S.Want)
        Out.Why = "wrong value";
    });
    const EngineStats &St = E.stats();
    const Gc::Stats &G = E.gcStats();
    R.EvalNs += Ns;
    (S.Cfg.RaceDetect ? R.ArmedNs : R.DormantNs) += Ns;
    R.GcNs += E.telemetry().hostNs(Telemetry::Phase::Gc);
    R.Evals += 1;
    R.VCycles += St.ElapsedCycles;
    R.ProcCycles += St.ElapsedCycles * S.Cfg.NumProcessors;
    R.IdleCycles += St.IdleCycles;
    R.Collections += G.Collections;
    R.WordsCopied += G.TotalWordsCopied;
    R.Instructions += St.Instructions;
    R.Touches += St.TouchesExecuted;
    R.TouchesBlocked += St.TouchesBlocked;
    R.Dispatches += St.Dispatches;
    R.StealAttempts += St.StealAttempts;
    R.Steals += St.Steals;
    R.TasksCreated += St.TasksCreated;
    R.TraceEvents += E.tracer().events().size();
    if (const RaceDetector *RD = E.raceDetector()) {
      R.Accesses += RD->accessesChecked();
      R.Cells += RD->cellsTracked();
      R.Races += RD->raceCount();
      if (RD->raceCount() && Out.Why.empty())
        Out.Why = "race reported on a race-free program";
    }
    size_t Index = Outcomes.size();
    if (Out.Why.empty() && Index < FirstCycles.size() &&
        FirstCycles[Index] != Out.VCycles)
      Out.Why = "virtual cycles differ from the first pass";
    if (Out.Why.empty() && !Record && (!S.Seeded || Seed == DefaultSeed)) {
      const Pin *P = findPin(Name, S.Label);
      if (!P)
        Out.Why = "no virtual-cycle pin recorded";
      else if (P->VCycles != Out.VCycles)
        Out.Why = strFormat("virtual cycles %llu, pinned %llu",
                            static_cast<unsigned long long>(Out.VCycles),
                            static_cast<unsigned long long>(P->VCycles));
    }
    return Out;
  }

  /// Critical-path analysis, Chrome trace export (to a counting sink) and
  /// the metrics report. True when a traced engine produced all three.
  bool observe(Engine &E, PassRecord &R, uint32_t Req) {
    CriticalPathReport CP;
    R.CriticalPathNs += Log.time("obs.critical_path", Req,
                                 [&] { CP = analyzeCriticalPath(E.tracer()); });
    CountingStream Trace, Report;
    R.ExportNs += Log.time("obs.trace_export", Req, [&] {
      writeChromeTrace(Trace, E.tracer(), E.machine());
    });
    R.MetricsNs += Log.time("obs.metrics_report", Req, [&] {
      dumpMetrics(Report, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                                       E.tracer(), E.raceDetector(),
                                       &E.telemetry()));
    });
    return CP.Ok && CP.Span > 0 && CP.Span <= CP.Work && Trace.Bytes > 0 &&
           Report.Bytes > 0 && !E.tracer().events().empty();
  }

  /// Reads the prelude plus the workload's sources and compiles every
  /// form on an engine without the prelude, so nothing executes.
  void probeReadCompile(PassRecord &R) {
    std::string Source = PreludeSource;
    std::set<std::string> Seen;
    for (const Session &S : W.Sessions) {
      if (Seen.insert(S.Program).second)
        Source += "\n" + S.Program;
      Source += "\n" + S.Expr;
    }
    EngineConfig C = W.Sessions.front().Cfg;
    C.LoadPrelude = false;
    Engine E(C);
    std::vector<Value> Forms;
    std::string Err;
    R.ReadNs = Log.time("reader.read", 0, [&] {
      Reader Rd(E.builder(), Source);
      Forms = Rd.readAll(Err);
    });
    if (!Err.empty())
      fatal(Name + ": read failed: " + Err);
    R.Forms = Forms.size();
    std::string CompileErr;
    R.CompileNs = Log.time("compiler.compile", 0, [&] {
      E.compiler().prescanDefines(Forms);
      for (Value F : Forms)
        if (Compiler::Result CR = E.compiler().compile(F); !CR.ok())
          CompileErr = CR.Error;
    });
    if (!CompileErr.empty())
      fatal(Name + ": compile failed: " + CompileErr);
    R.TouchesEmitted = E.compileStats().TouchesEmitted;
    R.TouchesEliminated = E.compileStats().TouchesEliminated;
  }

  std::string Name;
  Workload W;
  uint64_t Seed;
  SpanLog &Log;
  bool Record;
  const char *Dispatcher = nullptr;
  std::vector<OpOutcome> Outcomes;
  std::vector<uint64_t> FirstCycles;
};

//===----------------------------------------------------------------------===//
// Metrics and output
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

template <class Fn>
double medianOf(const std::vector<PassRecord> &Passes, Fn &&F) {
  std::vector<double> V;
  for (const PassRecord &P : Passes)
    V.push_back(static_cast<double>(F(P)));
  return median(V);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  bool Integral;
};

/// Pass times are averaged, not medians: passes move over CPUs whose
/// speeds differ on a shared host, and the median of such a mixture jumps
/// between the CPUs' modes while the mean moves with their shares.
std::vector<Metric> endToEnd(const std::vector<PassRecord> &Passes,
                             size_t &SetupSamples) {
  std::vector<double> Setup;
  double WallNs = 0, EvalNs = 0, VCycles = 0;
  for (const PassRecord &P : Passes) {
    for (uint64_t Ns : P.SetupNs)
      Setup.push_back(Ns * 1e-9);
    WallNs += P.WallNs;
    EvalNs += P.EvalNs;
    VCycles += P.VCycles;
  }
  SetupSamples = Setup.size();
  return {
      {"setup_s", median(Setup), "s", false},
      {"wall_s", WallNs * 1e-9 / Passes.size(), "s", false},
      {"vcycles_per_s", ratio(VCycles, EvalNs * 1e-9), "1/s", false},
      {"peak_rss_mb", medianOf(Passes, [](const PassRecord &P) {
         return P.PeakRssKb / 1024.0;
       }), "MB", false},
  };
}

std::vector<Metric> perLayer(const std::vector<PassRecord> &Traced,
                             const std::vector<PassRecord> &Untraced) {
  const PassRecord &C = Traced.back(); // counts repeat in every pass
  auto sec = [&](uint64_t PassRecord::*Field) {
    return medianOf(Traced, [&](const PassRecord &P) { return P.*Field; }) *
           1e-9;
  };
  // Bootstrap is what a session's construction costs beyond a bare
  // engine of the same configuration built right after it.
  std::vector<double> HeapInit, Bootstrap;
  for (const PassRecord &P : Traced)
    for (size_t I = 0; I < P.HeapInitNs.size(); ++I) {
      HeapInit.push_back(P.HeapInitNs[I] * 1e-9);
      Bootstrap.push_back((double(P.SetupNs[I]) - double(P.HeapInitNs[I])) *
                          1e-9);
    }
  double EvalS = sec(&PassRecord::EvalNs);
  double HeapInitS = median(HeapInit);
  double TracedWall = medianOf(Traced, [](const PassRecord &P) {
    return P.WallNs - P.ExtraNs;
  });
  double UntracedWall =
      medianOf(Untraced, [](const PassRecord &P) { return P.WallNs; });
  auto n = [](uint64_t V) { return static_cast<double>(V); };
  return {
      {"runtime.heap_init_s", HeapInitS, "s", false},
      {"runtime.gc_s", sec(&PassRecord::GcNs), "s", false},
      {"runtime.collections", n(C.Collections), "count", true},
      {"runtime.words_copied", n(C.WordsCopied), "count", true},
      {"core.bootstrap_s", median(Bootstrap), "s", false},
      {"core.eval_s", EvalS, "s", false},
      {"core.evals", n(C.Evals), "count", true},
      {"reader.read_s", sec(&PassRecord::ReadNs), "s", false},
      {"reader.forms", n(C.Forms), "count", true},
      {"compiler.compile_s", sec(&PassRecord::CompileNs), "s", false},
      {"compiler.touches_emitted", n(C.TouchesEmitted), "count", true},
      {"compiler.touches_eliminated", n(C.TouchesEliminated), "count", true},
      {"vm.instructions", n(C.Instructions), "count", true},
      {"vm.ns_per_insn", ratio(EvalS * 1e9, n(C.Instructions)), "ns", false},
      {"vm.touches", n(C.Touches), "count", true},
      {"vm.touches_blocked", n(C.TouchesBlocked), "count", true},
      {"sched.dispatches", n(C.Dispatches), "count", true},
      {"sched.steal_attempts", n(C.StealAttempts), "count", true},
      {"sched.tasks_created", n(C.TasksCreated), "count", true},
      {"sched.steal_hit_ratio", ratio(n(C.Steals), n(C.StealAttempts)),
       "ratio", false},
      {"sched.idle_ratio", ratio(n(C.IdleCycles), n(C.ProcCycles)), "ratio",
       false},
      // An upper bound: all eval time charged to probes. With no probes
      // (one processor) it is the whole eval time.
      {"sched.ns_per_probe_upper",
       EvalS * 1e9 / n(std::max<uint64_t>(C.StealAttempts, 1)), "ns", false},
      {"obs.trace_events", n(C.TraceEvents), "count", true},
      {"obs.armed_ratio",
       ratio(sec(&PassRecord::ArmedNs), sec(&PassRecord::DormantNs)), "ratio",
       false},
      {"obs.critical_path_s", sec(&PassRecord::CriticalPathNs), "s", false},
      {"obs.trace_export_s", sec(&PassRecord::ExportNs), "s", false},
      {"obs.metrics_report_s", sec(&PassRecord::MetricsNs), "s", false},
      {"analysis.accesses_checked", n(C.Accesses), "count", true},
      {"analysis.cells_tracked", n(C.Cells), "count", true},
      {"analysis.races", n(C.Races), "count", true},
      {"sim.vcycles", n(C.VCycles), "count", true},
      {"bench.tracing_overhead", ratio(TracedWall, UntracedWall), "ratio",
       false},
  };
}

std::string formatValue(const Metric &M) {
  return M.Integral ? strFormat("%.0f", M.Value) : strFormat("%.17g", M.Value);
}

void writeSpans(const std::string &Path, const SpanLog &Log,
                const std::string &Header) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    fatal("cannot write spans to " + Path);
  std::fprintf(F, "{%s,\n\"self_ns\": {", Header.c_str());
  bool First = true;
  for (const auto &[Name, TS] : Log.selfTimes()) {
    std::fprintf(F, "%s\n  \"%s\": {\"total\": %llu, \"self\": %llu}",
                 First ? "" : ",", Name.c_str(),
                 static_cast<unsigned long long>(TS.first),
                 static_cast<unsigned long long>(TS.second));
    First = false;
  }
  std::fprintf(F, "},\n\"spans\": [");
  for (size_t I = 0; I < Log.Spans.size(); ++I) {
    const Span &S = Log.Spans[I];
    std::fprintf(F,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start\": %llu, "
                 "\"end\": %llu, \"parent\": %d, \"request\": %u}",
                 I ? "," : "", I, S.Name,
                 static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End), S.Parent, S.Request);
  }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

/// Host numbers from a debug or sanitizer build measure a different
/// program; refuse them.
void refuseUnfitBuild() {
  std::string Type = PERFBENCH_BUILD_TYPE;
  bool Sanitized = std::strstr(PERFBENCH_FLAGS, "-fsanitize") != nullptr;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Sanitized = true;
#endif
#ifndef NDEBUG
  fatal("refusing a build with assertions on (build type '" + Type + "')");
#endif
  if (Sanitized)
    fatal("refusing a sanitizer build");
  if (Type != "Release" && Type != "RelWithDebInfo" && Type != "MinSizeRel")
    fatal("refusing build type '" + Type + "'");
}

/// EngineConfig picks up MULT_* variables (dispatcher, faults, checkpoints,
/// quotas, supervision, race detection, telemetry); an inherited one
/// would make the run measure another program.
void refuseEngineEnvironment() {
  std::string Set;
  for (char **Env = environ; *Env; ++Env)
    if (std::strncmp(*Env, "MULT_", 5) == 0)
      Set += std::string(" ") +
             std::string(*Env, std::strcspn(*Env, "="));
  if (!Set.empty())
    fatal("refusing to run with engine environment variables set:" + Set);
}

/// The CPUs this process may run on. Passes rotate over them: on a
/// shared host one CPU can run a pass much slower than another for tens
/// of seconds, and a run that stayed on one CPU would measure that CPU.
std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

void moveToCpu(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

struct Args {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansPath;
  bool Record = false;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--record") {
      A.Record = true;
      continue;
    }
    if (I + 1 >= Argc)
      fatal("missing value for " + K);
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--spans")
      A.SpansPath = V;
    else
      fatal("unknown argument " + K);
    if (End && *End)
      fatal("malformed value for " + K + ": " + V);
  }
  if (!(A.Seconds > 0))
    fatal("--seconds must be positive");
  return A;
}

/// --record: one pass on the default seed, printing each operation's
/// value and virtual cycles as pins.inc lines, plus the mini-compiler's
/// sequential reference.
int record(const WorkloadDef &Def) {
  SpanLog Log;
  Runner Run(Def.Name, Def.Make(DefaultSeed), DefaultSeed, Log, true);
  Run.pass(false);
  for (const OpOutcome &O : Run.outcomes())
    std::printf("    {\"%s\", \"%s\", %llu}, // %s%s\n", Def.Name,
                O.Label.c_str(), static_cast<unsigned long long>(O.VCycles),
                O.Printed.substr(0, 40).c_str(),
                O.Why.empty() ? "" : (" FAILED: " + O.Why).c_str());
  if (std::string(Def.Name) == "apps-p12") {
    Engine E(defaultEngine(1, 0u));
    EvalResult L = E.eval(MiniCompilerSource);
    EvalResult R = E.eval(miniCompilerExpr(false));
    if (!L.ok() || !R.ok())
      fatal("sequential mini-compiler failed");
    std::printf("    // mini-compiler sequential reference: %s\n",
                valueToString(R.Val).c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  refuseEngineEnvironment();
  refuseUnfitBuild();
  Args A = parseArgs(Argc, Argv);
  const WorkloadDef *Def = nullptr;
  for (const WorkloadDef &D : Workloads)
    if (A.Workload == D.Name)
      Def = &D;
  if (!Def)
    fatal("unknown workload '" + A.Workload + "'");
  if (A.Record)
    return record(*Def);

  SpanLog Log;
  Workload W = Def->Make(A.Seed);
  std::string Inputs = W.Inputs;
  size_t OpsPerPass = W.Sessions.size();
  Runner Run(Def->Name, std::move(W), A.Seed, Log, false);

  // Untraced runs time every pass; traced runs alternate an untraced pass
  // (the overhead baseline) with a traced one.
  std::vector<PassRecord> Untraced, Traced;
  const unsigned MinPasses = A.Trace ? 4 : 3;
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(A.Seconds));
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  const std::vector<int> Cpus = allowedCpus();
  // Pass 0 warms the allocator and caches: checked, but not timed.
  for (unsigned Pass = 0;
       Pass <= MinPasses || Clock::now() < Deadline; ++Pass) {
    bool IsTraced = A.Trace && Pass % 2 == 0 && Pass > 0;
    if (!Cpus.empty()) // a traced pass shares its CPU with the pass before
      moveToCpu(Cpus[(Pass + 1) / 2 % Cpus.size()]);
    PassRecord R = Run.pass(IsTraced);
    Attempted += R.Attempted;
    Failed += R.Failed;
    for (const OpOutcome &O : Run.outcomes())
      if (!O.Why.empty() && Failures.size() < 8)
        Failures.push_back(strFormat("pass %u %s: %s (got %s)", Pass,
                                     O.Label.c_str(), O.Why.c_str(),
                                     O.Printed.substr(0, 60).c_str()));
    if (Pass > 0)
      (IsTraced ? Traced : Untraced).push_back(std::move(R));
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              Def->Name, static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  std::printf("build: compiler=\"%s\" type=%s flags=\"%s\" dispatcher=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
              Run.dispatcher());
  std::printf("inputs: %s\n", Inputs.c_str());
  std::printf("passes: untraced=%zu traced=%zu ops-per-pass=%zu "
              "attempted=%llu failed=%llu\n",
              Untraced.size(), Traced.size(), OpsPerPass,
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  std::printf("pass-wall-s:");
  for (const PassRecord &P : Untraced)
    std::printf(" %.4f", P.WallNs * 1e-9);
  std::printf("\npass-peak-rss-mb:");
  for (const PassRecord &P : Untraced)
    std::printf(" %.1f", P.PeakRssKb / 1024.0);
  std::printf("\n");
  for (const OpOutcome &O : Run.outcomes())
    std::printf("op: %-14s vcycles=%llu %s\n", O.Label.c_str(),
                static_cast<unsigned long long>(O.VCycles),
                O.Why.empty() ? "ok" : O.Why.c_str());
  for (const std::string &F : Failures)
    std::printf("FAIL %s\n", F.c_str());

  std::vector<Metric> Metrics;
  if (A.Trace) {
    Metrics = perLayer(Traced, Untraced);
  } else {
    size_t Samples = 0;
    Metrics = endToEnd(Untraced, Samples);
    std::printf("setup_s samples: %zu engine constructions\n", Samples);
  }
  std::string Json;
  for (const Metric &M : Metrics) {
    std::string V = formatValue(M);
    std::printf("metric: %-28s %s %s\n", M.Name.c_str(), V.c_str(), M.Unit);
    Json += strFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      Json.empty() ? "" : ", ", M.Name.c_str(), V.c_str(),
                      M.Unit);
  }
  if (A.Trace && !A.SpansPath.empty()) {
    writeSpans(A.SpansPath, Log,
               strFormat("\"workload\": \"%s\", \"seed\": %llu, "
                         "\"build\": \"%s %s %s\"",
                         Def->Name, static_cast<unsigned long long>(A.Seed),
                         PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                         PERFBENCH_FLAGS));
    std::printf("spans: %zu written to %s\n", Log.Spans.size(),
                A.SpansPath.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Failed ? "false" : "true",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Json.c_str());
  return 0;
}
