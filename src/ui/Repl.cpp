//===----------------------------------------------------------------------===//
///
/// \file
/// REPL implementation.
///
//===----------------------------------------------------------------------===//

#include "ui/Repl.h"

#include "analysis/RaceDetect.h"
#include "core/Tenancy.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/TraceExport.h"
#include "reader/Reader.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>

using namespace mult;

std::string Repl::prompt() const {
  if (!Pending.empty())
    return "...> ";
  size_t Depth = E.stoppedGroups().size();
  if (Depth == 0)
    return "mul-t> ";
  return strFormat("mul-t[%zu]> ", Depth);
}

static std::string_view trimmed(std::string_view S) {
  return trim(S, " \t\n\v\f\r");
}

bool Repl::processLine(std::string_view Line) {
  if (!Pending.empty()) {
    Pending += '\n';
    Pending += Line;
    evalAndPrint(/*AtEnd=*/false);
    return true;
  }
  std::string_view L = trimmed(Line);
  if (L.empty())
    return true;
  if (L == ":exit" || L == ":quit" || L == "(exit)")
    return false;
  // ':' is the native command prefix; ',' is accepted as an alias for
  // T/Mul-T muscle memory (",stats", ",trace out.json").
  if (L[0] == ':' || L[0] == ',') {
    size_t Space = L.find(' ');
    std::string_view Cmd = L.substr(1, Space == std::string_view::npos
                                           ? std::string_view::npos
                                           : Space - 1);
    std::string_view Arg =
        Space == std::string_view::npos ? "" : trimmed(L.substr(Space + 1));
    if (Cmd == "help")
      cmdHelp();
    else if (Cmd == "groups")
      cmdGroups();
    else if (Cmd == "tasks")
      cmdTasks(Arg);
    else if (Cmd == "bt")
      cmdBacktrace();
    else if (Cmd == "resume" || Cmd == "ret")
      cmdResume(Arg);
    else if (Cmd == "kill")
      cmdKill(Arg);
    else if (Cmd == "stats")
      cmdStats();
    else if (Cmd == "histo")
      cmdHisto(Arg);
    else if (Cmd == "procs")
      cmdProcs();
    else if (Cmd == "races")
      cmdRaces();
    else if (Cmd == "trace")
      cmdTrace(Arg);
    else if (Cmd == "profile")
      cmdProfile(Arg);
    else if (Cmd == "faults")
      cmdFaults(Arg);
    else if (Cmd == "quota")
      cmdQuota(Arg);
    else if (Cmd == "supervise")
      cmdSupervise(Arg);
    else if (Cmd == "exit" || Cmd == "quit")
      return false;
    else
      Out << "unknown command " << L.substr(0, Space) << "; try :help\n";
    return true;
  }
  Pending = L;
  evalAndPrint(/*AtEnd=*/false);
  return true;
}

void Repl::finish() {
  if (!Pending.empty())
    evalAndPrint(/*AtEnd=*/true);
}

void Repl::evalAndPrint(bool AtEnd) {
  EvalResult R = E.eval(Pending);
  if (R.Incomplete && !AtEnd)
    return;
  Pending.clear();
  Out << E.takeOutput();
  switch (R.K) {
  case EvalResult::Kind::Value:
    printValue(Out, R.Val);
    Out << '\n';
    return;
  case EvalResult::Kind::RuntimeError:
  case EvalResult::Kind::HeapExhausted: {
    // A heap-exhausted stop lands in the breakloop like any other
    // exception (the group is inspectable and killable); a wedged-heap
    // exhaustion has no stopped group and reports like a plain error.
    Out << ";; exception: " << R.Error << '\n';
    if (Group *G = E.findGroup(R.StoppedGroup)) {
      Out << ";; group " << G->Id << " stopped (" << G->Banner << ")\n";
      Out << ";; current task " << taskIndex(G->CurrentTask)
          << "; :bt for a backtrace, :resume <value> to continue, "
             ":kill to discard\n";
    }
    return;
  }
  default:
    Out << ";; error: " << R.Error << '\n';
    return;
  }
}

void Repl::cmdHelp() {
  Out << "REPL commands (':' or the T-style ',' prefix, e.g. \",stats\"):\n"
         "  :groups          list all groups and their states\n"
         "  :tasks <group>   list a stopped group's tasks\n"
         "  :bt              backtrace of the current task\n"
         "  :resume [value]  resume the current group; the erring\n"
         "                   operation returns the value (default #f)\n"
         "  :kill [group]    kill the current (or named) group\n"
         "  :stats           execution statistics and metrics report\n"
         "                   (latency percentiles are always on)\n"
         "  :histo [NAME]    latency histogram index, or one histogram's\n"
         "                   full log2 buckets (e.g. :histo touch-wait)\n"
         "  :procs           per-processor liveness, clocks and queue\n"
         "                   depths (dead = fail-stopped by proc-kill)\n"
         "  :races           determinacy races found so far (needs the\n"
         "                   detector: MULT_RACE=1)\n"
         "  :trace on|off    toggle the virtual-time event tracer\n"
         "  :trace ring:N|stream[:PATH]|unbounded\n"
         "                   choose the trace sink (stream writes binary\n"
         "                   events to PATH as they happen)\n"
         "  :trace FILE      write the trace as Chrome/Perfetto JSON\n"
         "  :profile         critical-path profile of the last traced run\n"
         "                   (work, span, parallelism, per-future-site)\n"
         "  :profile FILE    derive per-future-site policies (eager/\n"
         "                   inline/lazy) from that profile and write them\n"
         "                   to FILE (next run: MULT_SITE_POLICIES=FILE)\n"
         "  :faults [SPEC]   show, arm (SPEC, see DESIGN.md), or disarm\n"
         "                   (:faults off) the deterministic fault injector\n"
         "  :quota [SPEC]    show, set (SPEC as for MULT_QUOTA below), or\n"
         "                   disarm (:quota off) per-group resource quotas\n"
         "  :supervise [POLICY]\n"
         "                   show (config + decision transcript), set (as\n"
         "                   for MULT_SUPERVISE below), or disarm (off)\n"
         "  :exit            leave the REPL\n"
         "anything else evaluates as a Mul-T expression (its own group);\n"
         "a form may span lines\n"
         "environment variables (a setting made in code wins):\n";
#define MULT_HELP_VAR(Type, Field, Default, Var, Parse, Min, Max, Doc)       \
  if (ConfigParse::Parse != ConfigParse::None)                                \
    Out << strFormat("  %-19s %s\n", Var, Doc);
  MULT_ENGINE_CONFIG(MULT_HELP_VAR)
#undef MULT_HELP_VAR
}

void Repl::cmdGroups() {
  // The tenant columns appear only when the quota/supervision layer is
  // armed, keeping the dormant output bit-identical (cmdProcs does the
  // same for its checkpoint columns).
  Tenancy *Ten = E.tenancy();
  for (const Group &G : E.allGroups()) {
    if (G.Internal)
      continue; // prelude bootstrap
    Out << "  group " << G.Id << " [" << groupStateName(G.State) << "] "
        << G.Banner << " (" << G.TasksCreated << " tasks)";
    if (Ten) {
      const Tenancy::Envelope &V = Ten->envelope(G.Id);
      Out << strFormat("  heap ~%llu", static_cast<unsigned long long>(
                                           Ten->heapAccount(G.Id)));
      if (V.HeapQuotaWords)
        Out << strFormat("/%llu",
                         static_cast<unsigned long long>(V.HeapQuotaWords));
      Out << strFormat(" words, %llu",
                       static_cast<unsigned long long>(V.CyclesUsed));
      if (V.CycleBudget)
        Out << strFormat("/%llu", static_cast<unsigned long long>(V.CycleBudget));
      Out << " cycles";
      if (V.Priority)
        Out << strFormat(", prio %d", V.Priority);
      if (Ten->supervising())
        Out << ", policy "
            << Supervisor::formatPolicy(Ten->supervisor().policyFor(G.Id));
    }
    Out << "\n";
  }
}

void Repl::cmdTasks(std::string_view Arg) {
  GroupId Id = E.currentStoppedGroup();
  if (!Arg.empty())
    Id = static_cast<GroupId>(std::atoi(std::string(Arg).c_str()));
  Group *G = E.findGroup(Id);
  if (!G) {
    Out << "no such group\n";
    return;
  }
  for (TaskId T : G->Members) {
    Task *Live = E.liveTask(T);
    if (!Live)
      continue;
    const char *State = "?";
    switch (Live->State) {
    case TaskState::Ready: State = "ready"; break;
    case TaskState::Running: State = "running"; break;
    case TaskState::BlockedFuture: State = "blocked-on-future"; break;
    case TaskState::BlockedSemaphore: State = "blocked-on-semaphore"; break;
    case TaskState::Stopped: State = "stopped"; break;
    case TaskState::Done: State = "done"; break;
    }
    Out << "  task " << taskIndex(T) << " [" << State << "]"
        << (T == G->CurrentTask ? " <- current" : "") << "\n";
  }
}

void Repl::cmdBacktrace() {
  GroupId Id = E.currentStoppedGroup();
  Group *G = E.findGroup(Id);
  if (!G || G->State != GroupState::Stopped) {
    Out << "no stopped group\n";
    return;
  }
  Out << ";; " << G->Condition << '\n';
  Out << E.backtrace(G->CurrentTask);
}

void Repl::cmdResume(std::string_view Arg) {
  GroupId Id = E.currentStoppedGroup();
  if (Id == InvalidGroup) {
    Out << "no stopped group\n";
    return;
  }
  Value V = Value::falseV();
  if (!Arg.empty()) {
    Reader Rd(E.builder(), Arg);
    ReadResult RR = Rd.read();
    if (!RR.ok()) {
      Out << "bad resume value\n";
      return;
    }
    V = RR.Datum;
  }
  EvalResult R = E.resumeGroup(Id, V);
  Out << E.takeOutput();
  if (R.ok()) {
    printValue(Out, R.Val);
    Out << '\n';
  } else {
    Out << ";; " << R.Error << '\n';
  }
}

void Repl::cmdKill(std::string_view Arg) {
  GroupId Id = E.currentStoppedGroup();
  if (!Arg.empty())
    Id = static_cast<GroupId>(std::atoi(std::string(Arg).c_str()));
  if (Id == InvalidGroup) {
    Out << "no stopped group\n";
    return;
  }
  E.killGroup(Id);
  Out << ";; group " << Id << " killed\n";
}

void Repl::cmdStats() {
  dumpMetrics(Out, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                                E.tracer(), E.raceDetector(), &E.telemetry(),
                                E.config().CheckpointEvery));
}

void Repl::cmdHisto(std::string_view Arg) {
  if (Arg.empty())
    dumpHistogramIndex(Out, E.telemetry());
  else
    dumpHistogram(Out, E.telemetry(), Arg);
}

void Repl::cmdRaces() {
  const RaceDetector *D = E.raceDetector();
  if (!D) {
    Out << ";; race detection off (restart with MULT_RACE=1 or set "
           "EngineConfig::RaceDetect)\n";
    return;
  }
  Out << strFormat(";; races: %llu (%llu accesses checked, %llu cells "
                   "tracked)\n",
                   static_cast<unsigned long long>(D->raceCount()),
                   static_cast<unsigned long long>(D->accessesChecked()),
                   static_cast<unsigned long long>(D->cellsTracked()));
  for (const RaceDetector::Race &R : D->races())
    Out << D->describe(R, E.tracer().siteNames());
  if (D->raceCount() > D->races().size())
    Out << strFormat(";; (%llu more races not stored; first %zu shown)\n",
                     static_cast<unsigned long long>(D->raceCount() -
                                                     D->races().size()),
                     D->races().size());
}

void Repl::cmdProcs() {
  const Machine &M = E.machine();
  // The checkpoint columns appear only when the policy is armed, keeping
  // the dormant output bit-identical.
  bool ShowCkpt = E.config().CheckpointEvery != 0;
  Out << "  proc  state       clock  queue(new/susp)  busy/idle/gc";
  if (ShowCkpt)
    Out << "  ckpts@last";
  Out << "\n";
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    Out << strFormat("  %4u  %-5s %11llu  %zu/%zu  %llu/%llu/%llu", P.Id,
                     P.Dead ? "dead" : "live",
                     static_cast<unsigned long long>(P.Clock),
                     P.Queues.newCount(), P.Queues.suspendedCount(),
                     static_cast<unsigned long long>(P.busyCycles()),
                     static_cast<unsigned long long>(P.IdleCycles),
                     static_cast<unsigned long long>(P.GcCycles));
    if (ShowCkpt) {
      if (P.CheckpointsTaken)
        Out << strFormat("  %llu@%llu",
                         static_cast<unsigned long long>(P.CheckpointsTaken),
                         static_cast<unsigned long long>(
                             P.LastCheckpointClock));
      else
        Out << "  0@-";
    }
    Out << "\n";
  }
  if (E.stats().ProcsKilled) {
    Out << ";; ";
    renderStatSection(Out, E.stats(), StatSection::Recovery);
  }
}

void Repl::cmdProfile(std::string_view Arg) {
  if (!E.tracer().enabled() && E.tracer().size() == 0) {
    Out << ";; tracing is off (:trace on, rerun, then :profile)\n";
    return;
  }
  CriticalPathReport R = analyzeCriticalPath(E.tracer());
  if (Arg.empty()) {
    dumpProfile(Out, R, E.machine().numProcessors(),
                E.stats().ElapsedCycles);
    return;
  }
  // `:profile FILE` closes the feedback loop: derive a site-policy table
  // from the critical path and write it where MULT_SITE_POLICIES (or
  // EngineConfig::SitePolicies) can load it on the next run.
  if (!R.Ok) {
    Out << ";; profile unavailable: " << R.Error << '\n';
    return;
  }
  SitePolicyTable T = deriveSitePolicies(R);
  std::string Path(Arg);
  std::string Err;
  if (!T.saveFile(Path, Err)) {
    Out << ";; " << Err << '\n';
    return;
  }
  Out << ";; wrote " << T.size() << " site policies to " << Path
      << " (load with MULT_SITE_POLICIES)\n";
}

void Repl::cmdFaults(std::string_view Arg) {
  if (Arg.empty()) {
    const FaultInjector &FI = E.faults();
    if (!FI.armed()) {
      Out << ";; fault injection off\n";
      return;
    }
    Out << ";; fault plan: " << FI.plan().format() << '\n';
    Out << ";; ";
    renderStatSection(Out, E.stats(), StatSection::Robustness);
    return;
  }
  if (Arg == "off") {
    std::string Err;
    E.configureFaults("", Err);
    Out << ";; fault injection off\n";
    return;
  }
  std::string Err;
  if (!E.configureFaults(Arg, Err)) {
    Out << ";; bad fault plan: " << Err << '\n';
    return;
  }
  Out << ";; fault plan armed: " << E.faults().plan().format() << '\n';
}

void Repl::cmdQuota(std::string_view Arg) {
  if (Arg.empty()) {
    if (!E.tenantArmed()) {
      Out << ";; quotas off\n";
      return;
    }
    const EngineConfig &C = E.config();
    Out << strFormat(";; quota defaults: heap=%llu words, cycles=%llu "
                     "(0 = unlimited)\n",
                     static_cast<unsigned long long>(C.GroupHeapQuotaWords),
                     static_cast<unsigned long long>(C.GroupCycleBudget));
    Out << strFormat(";; admission gate: live=%u, queue=%u (0 = unlimited)\n",
                     C.MaxLiveGroups, C.MaxQueuedGroups);
    Out << ";; ";
    renderStatSection(Out, E.stats(), StatSection::TenantQuota);
    return;
  }
  std::string Err;
  if (!E.configureQuota(Arg, Err)) {
    Out << ";; bad quota spec: " << Err << '\n';
    return;
  }
  if (Arg == "off")
    Out << ";; quotas off\n";
  else
    Out << ";; quotas armed (see :quota)\n";
}

void Repl::cmdSupervise(std::string_view Arg) {
  if (Arg.empty()) {
    if (!E.tenancy() || !E.tenancy()->supervising()) {
      Out << ";; supervisor off\n";
      return;
    }
    const Supervisor &Super = E.tenancy()->supervisor();
    Out << ";; supervisor policy: "
        << Supervisor::formatPolicy(Super.defaultPolicy()) << '\n';
    const std::vector<std::string> &T = Super.transcript();
    if (T.empty()) {
      Out << ";; no decisions yet\n";
      return;
    }
    for (const std::string &Line : T)
      Out << ";;   " << Line << '\n';
    return;
  }
  std::string Err;
  if (!E.configureSupervisor(Arg, Err)) {
    Out << ";; bad supervise policy: " << Err << '\n';
    return;
  }
  if (Arg == "off")
    Out << ";; supervisor off\n";
  else
    Out << ";; supervisor armed: "
        << Supervisor::formatPolicy(E.tenancy()->supervisor().defaultPolicy())
        << '\n';
}

void Repl::cmdTrace(std::string_view Arg) {
  if (Arg.empty() || Arg == "on" || Arg == "off") {
    if (!Arg.empty())
      E.tracer().setEnabled(Arg == "on");
    Tracer &Tr = E.tracer();
    Out << ";; tracing " << (Tr.enabled() ? "on" : "off");
    switch (Tr.mode()) {
    case TraceSinkMode::Unbounded:
      Out << " (" << Tr.size() << " events buffered)\n";
      break;
    case TraceSinkMode::Ring:
      Out << strFormat(" (ring of %zu: %zu buffered, %llu dropped)\n",
                       Tr.ringCapacity(), Tr.size(),
                       static_cast<unsigned long long>(Tr.dropped()));
      break;
    case TraceSinkMode::Stream:
      Out << strFormat(" (streaming to %s: %llu emitted",
                       Tr.streamPath().c_str(),
                       static_cast<unsigned long long>(Tr.emitted()));
      if (Tr.dropped())
        Out << strFormat(", %llu dropped",
                         static_cast<unsigned long long>(Tr.dropped()));
      Out << ")\n";
      if (!Tr.streamError().empty())
        Out << ";; " << Tr.streamError() << '\n';
      break;
    }
    return;
  }
  if (Arg == "unbounded" || Arg.substr(0, 5) == "ring:" || Arg == "stream" ||
      Arg.substr(0, 7) == "stream:") {
    std::string Err;
    if (E.tracer().configureSink(std::string(Arg), Err))
      Out << ";; trace sink set to " << Arg << '\n';
    else
      Out << ";; " << Err << '\n';
    return;
  }
  std::string Path(Arg);
  std::string Err = writeFileChecked(Path, "w", [&](OutStream &OS) {
    writeChromeTrace(OS, E.tracer(), E.machine());
  });
  if (!Err.empty())
    Out << ";; " << Err << '\n';
  else
    Out << ";; wrote " << E.tracer().size() << " events to " << Path << '\n';
}
