//===----------------------------------------------------------------------===//
///
/// \file
/// Tenant fault-domain layer implementation: quotas, budgets, the
/// supervisor, admission control and multi-group runs.
///
//===----------------------------------------------------------------------===//

#include "core/Tenancy.h"

#include "core/Engine.h"
#include "reader/Reader.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace mult;

namespace {

bool quotaConfigured(const EngineConfig &C) {
  return C.GroupHeapQuotaWords || C.GroupCycleBudget || C.MaxLiveGroups ||
         C.MaxQueuedGroups;
}

} // namespace

Tenancy::Tenancy(Engine &E) : E(E), QuotaShards(E.Cfg.NumProcessors) {}

Tenancy &Tenancy::arm(Engine &E) {
  if (!E.Ten)
    E.Ten = std::make_unique<Tenancy>(E);
  E.Ten->Transient = false;
  return *E.Ten;
}

void Tenancy::armFromConfig(Engine &E) {
  if (quotaConfigured(E.Cfg))
    arm(E);
  if (const char *Env = std::getenv("MULT_QUOTA")) {
    std::string Err;
    if (!configureQuota(E, Env, Err))
      std::fprintf(stderr, "mult: ignoring MULT_QUOTA: %s\n", Err.c_str());
  }
  std::string SuperSpec = E.Cfg.Supervise;
  if (SuperSpec.empty())
    if (const char *Env = std::getenv("MULT_SUPERVISE"))
      SuperSpec = Env;
  if (!SuperSpec.empty()) {
    std::string Err;
    if (!configureSupervisor(E, SuperSpec, Err))
      std::fprintf(stderr, "mult: ignoring MULT_SUPERVISE: %s\n", Err.c_str());
  }
}

bool Tenancy::configureQuota(Engine &E, std::string_view Spec,
                             std::string &Err) {
  EngineConfig &Cfg = E.Cfg;
  std::string_view S = trim(Spec);
  if (S == "off") {
    Cfg.GroupHeapQuotaWords = 0;
    Cfg.GroupCycleBudget = 0;
    Cfg.MaxLiveGroups = 0;
    Cfg.MaxQueuedGroups = 0;
    if (E.Ten && !E.Ten->Supervising)
      E.Ten.reset();
    return true;
  }
  // heap, cycles, live, queue: the gate sizes are capped at 100000.
  uint64_t Vals[] = {Cfg.GroupHeapQuotaWords, Cfg.GroupCycleBudget,
                     Cfg.MaxLiveGroups, Cfg.MaxQueuedGroups};
  const std::string_view Keys[] = {"heap", "cycles", "live", "queue"};
  bool Any = false;
  for (std::string_view Part : splitAny(S, ";,")) {
    std::string_view C = trim(Part);
    if (C.empty())
      continue;
    size_t Eq = C.find('=');
    uint64_t V = 0;
    bool Ok = Eq != std::string_view::npos &&
              parseU64(trim(C.substr(Eq + 1)), V);
    size_t K = std::find(Keys, Keys + 4, trim(C.substr(0, Eq))) - Keys;
    if (!Ok || K == 4 || (K >= 2 && V > 100000)) {
      Err = strFormat("bad quota clause '%.*s' (want heap=WORDS, "
                      "cycles=N, live=N, queue=N, or off)",
                      int(C.size()), C.data());
      return false;
    }
    Vals[K] = V;
    Any = true;
  }
  if (!Any) {
    Err = "empty quota spec";
    return false;
  }
  Cfg.GroupHeapQuotaWords = Vals[0];
  Cfg.GroupCycleBudget = Vals[1];
  Cfg.MaxLiveGroups = unsigned(Vals[2]);
  Cfg.MaxQueuedGroups = unsigned(Vals[3]);
  arm(E);
  return true;
}

bool Tenancy::configureSupervisor(Engine &E, std::string_view Spec,
                                  std::string &Err) {
  std::string_view S = trim(Spec);
  if (S == "off") {
    if (E.Ten) {
      E.Ten->Supervising = false;
      if (!quotaConfigured(E.Cfg))
        E.Ten.reset();
    }
    return true;
  }
  Supervisor::Policy Pol;
  if (!Supervisor::parsePolicy(S, Pol, Err))
    return false;
  Tenancy &T = arm(E);
  T.Super.setDefaultPolicy(Pol);
  T.Supervising = true;
  return true;
}

void Tenancy::applyQuotaSqueeze(Engine &E, unsigned Gid) {
  // A plan's group id is authored against one program; when it names no
  // live user group (REPL group ids drift with the prelude), fall back to
  // the lowest-id running user group so the clause still bites — the
  // choice is a pure function of group state at the clause's mark, so
  // replays stay bit-identical.
  const std::vector<Group> &Groups = E.Groups;
  if (Gid >= Groups.size() || Groups[Gid].Internal ||
      (Groups[Gid].State != GroupState::Running &&
       Groups[Gid].State != GroupState::Stopped)) {
    Gid = InvalidGroup;
    for (GroupId I = 0; I < Groups.size(); ++I)
      if (!Groups[I].Internal && Groups[I].State == GroupState::Running) {
        Gid = I;
        break;
      }
    if (Gid == InvalidGroup)
      return;
  }
  Tenancy &T = arm(E);
  Envelope &V = T.envelope(Gid);
  V.HeapQuotaWords = std::max<uint64_t>(64, T.heapAccount(Gid) / 2);
  V.QuotaGraceUsed = false;
  T.Super.note(strFormat("squeeze: group %u quota clamped to %llu words", Gid,
                         (unsigned long long)V.HeapQuotaWords));
}

void Tenancy::admitSyntheticBurst(Engine &E, unsigned N) {
  Tenancy &T = arm(E);
  EngineStats &S = E.Stats;
  unsigned AdmittedHere = 0;
  unsigned QueuedHere = 0;
  size_t QueueDepth = T.Queue.size() - T.QueueHead;
  // Outside a multi-group run, every running user group holds a slot.
  bool Multi = !T.Launches.empty();
  unsigned Live = Multi ? T.Live : 0;
  for (const Group &G : E.Groups)
    Live += !Multi && !G.Internal && G.State == GroupState::Running;
  for (unsigned I = 0; I < N; ++I) {
    // Earlier probes of the same burst occupy gate slots: the burst
    // models N launches arriving at once, not N independent singletons.
    if (E.Cfg.MaxLiveGroups == 0 || Live + AdmittedHere < E.Cfg.MaxLiveGroups)
      ++AdmittedHere, ++S.GroupsAdmitted;
    else if (QueueDepth + QueuedHere < E.Cfg.MaxQueuedGroups) {
      ++QueuedHere;
      ++S.GroupsQueued;
    } else {
      ++S.GroupsRejected;
    }
  }
}

Tenancy::Envelope &Tenancy::envelope(GroupId Id) {
  // Sized with the group table, so a reference survives everything short
  // of creating a group.
  if (Envelopes.size() < E.Groups.size())
    Envelopes.resize(E.Groups.size());
  return Envelopes[Id];
}

uint64_t Tenancy::heapAccount(GroupId Id) const {
  if (Id >= Envelopes.size())
    return 0;
  const Envelope &V = Envelopes[Id];
  uint64_t Acct = V.LiveWords + V.AllocWords;
  for (const std::vector<uint64_t> &Shard : QuotaShards)
    if (Id < Shard.size())
      Acct += Shard[Id];
  return Acct;
}

GroupId Tenancy::largestHeapGroup(uint64_t &Words) const {
  Words = 0;
  GroupId Best = InvalidGroup;
  for (const Group &G : E.Groups) {
    if (G.Internal ||
        (G.State != GroupState::Running && G.State != GroupState::Stopped))
      continue;
    uint64_t Acct = heapAccount(G.Id);
    if (Acct > Words) {
      Words = Acct;
      Best = G.Id;
    }
  }
  return Best;
}

void Tenancy::onGroupCreated(const Group &G) {
  if (G.Internal)
    return;
  Envelope &V = envelope(G.Id);
  V.HeapQuotaWords = E.Cfg.GroupHeapQuotaWords;
  V.CycleBudget = E.Cfg.GroupCycleBudget;
}

uint16_t Tenancy::allocOwner(const Processor &P) const {
  // The allocating group, stamped into the header's spare halfword so the
  // collector can tile live words per group exactly.
  if (P.current() == InvalidTask)
    return 0;
  GroupId Gid = E.task(P.current()).Group;
  if (Gid >= E.Groups.size() || E.Groups[Gid].Internal || Gid + 1 > 0xffff)
    return 0;
  return static_cast<uint16_t>(Gid + 1);
}

void Tenancy::chargeAlloc(unsigned Proc, uint16_t Owner, uint64_t Words) {
  // Perfbook-style sharded charge: a private per-processor counter bump,
  // flushed to the group at a coarse threshold and exact-merged from the
  // survivor tally at every collection.
  std::vector<uint64_t> &Shard = QuotaShards[Proc];
  if (Shard.size() < E.Groups.size())
    Shard.resize(E.Groups.size(), 0);
  uint64_t &S = Shard[Owner - 1];
  S += Words;
  constexpr uint64_t kQuotaShardFlush = 1024;
  if (S >= kQuotaShardFlush) {
    envelope(Owner - 1).AllocWords += S;
    S = 0;
  }
}

void Tenancy::beginTally() { LiveTally.assign(E.Groups.size(), 0); }

void Tenancy::noteLive(uint16_t Owner, uint32_t Words) {
  if (Owner && size_t(Owner - 1) < LiveTally.size())
    LiveTally[Owner - 1] += Words;
}

void Tenancy::commitTally() {
  // The survivor tally replaces the allocation-charged upper bound
  // (whatever was charged since the last collection either got copied —
  // and tallied — or was garbage), so a group is only ever stopped for
  // words it truly holds live.
  for (GroupId I = 0; I < E.Groups.size(); ++I) {
    Envelope &V = envelope(I);
    V.LiveWords = I < LiveTally.size() ? LiveTally[I] : 0;
    V.AllocWords = 0;
    if (!V.HeapQuotaWords || V.LiveWords <= V.HeapQuotaWords)
      V.QuotaGraceUsed = false;
  }
  for (std::vector<uint64_t> &Shard : QuotaShards)
    std::fill(Shard.begin(), Shard.end(), 0);
}

void Tenancy::chargeCycles(const Task &T, uint64_t BusyDelta) {
  if (T.Group < E.Groups.size() && !E.Groups[T.Group].Internal)
    envelope(T.Group).CyclesUsed += BusyDelta;
}

bool Tenancy::poll(Processor &P, Task &T) {
  if (T.Group >= E.Groups.size()) // InvalidGroup included
    return false;
  Group &G = E.Groups[T.Group];
  if (G.Internal || G.State != GroupState::Running)
    return false;
  Envelope &V = envelope(G.Id);
  Tracer &Tr = E.TheTracer;
  if (V.CycleBudget && V.CyclesUsed > V.CycleBudget) {
    ++E.Stats.BudgetStops;
    Tr.record(TraceEventKind::GroupBudgetStop, P.Id, P.Clock, G.Id,
              V.CyclesUsed, V.CycleBudget);
    E.stopGroupRestartable(
        P, T,
        strFormat("group-cycle-budget: group %u (\"%s\") used %llu of %llu "
                  "budgeted cycles",
                  G.Id, G.Banner.c_str(), (unsigned long long)V.CyclesUsed,
                  (unsigned long long)V.CycleBudget));
    return true;
  }
  if (!V.HeapQuotaWords)
    return false;
  uint64_t Acct = heapAccount(G.Id);
  if (Acct <= V.HeapQuotaWords)
    return false;
  if (!V.QuotaGraceUsed) {
    // The account is allocation-charged, an upper bound on live: grant one
    // free collection so garbage never trips a quota. The merge makes the
    // account exact; only truly held words are judged below.
    V.QuotaGraceUsed = true;
    ++E.Stats.QuotaGraceGcs;
    if (E.collectGarbage()) {
      Acct = heapAccount(G.Id);
      if (Acct <= V.HeapQuotaWords)
        return false; // garbage, not live data: the merge cleared the flag
      V.QuotaGraceUsed = true;
    }
    // A wedged collector cannot refine the account; judge it as it stands.
  }
  ++E.Stats.QuotaStops;
  Tr.record(TraceEventKind::GroupQuotaStop, P.Id, P.Clock, G.Id, Acct,
            V.HeapQuotaWords);
  E.stopGroupRestartable(
      P, T,
      strFormat("group-heap-quota: group %u (\"%s\") holds ~%llu live words "
                "of %llu quota",
                G.Id, G.Banner.c_str(), (unsigned long long)Acct,
                (unsigned long long)V.HeapQuotaWords));
  return true;
}

GroupId Tenancy::shedForPressure(Processor &P) {
  // Victim order: lowest priority first, then largest account, then
  // lowest group id — fully deterministic. Only quota-violating launches
  // are eligible; a group within its envelope is never shed.
  GroupId Victim = InvalidGroup;
  uint64_t VictimAcct = 0;
  int VictimPrio = 0;
  for (const Launch &L : Launches) {
    // A stopped one-shot launch is Terminal but still holds its heap
    // until killed or resumed — exactly the memory a shed must reclaim.
    // The state check below excludes Done/Killed groups.
    if (!L.Admitted || L.Gid == InvalidGroup)
      continue;
    GroupState State = E.Groups[L.Gid].State;
    if (State != GroupState::Running && State != GroupState::Stopped)
      continue;
    const Envelope &V = envelope(L.Gid);
    uint64_t Acct = heapAccount(L.Gid);
    if (!V.HeapQuotaWords || Acct <= V.HeapQuotaWords)
      continue;
    if (Victim == InvalidGroup || V.Priority < VictimPrio ||
        (V.Priority == VictimPrio && Acct > VictimAcct)) {
      Victim = L.Gid;
      VictimAcct = Acct;
      VictimPrio = V.Priority;
    }
  }
  if (Victim == InvalidGroup)
    return InvalidGroup;
  Group &G = E.Groups[Victim];
  ++E.Stats.GroupsShed;
  G.Condition = strFormat(
      "group-shed: over heap quota (~%llu of %llu words) under global "
      "memory pressure",
      (unsigned long long)VictimAcct,
      (unsigned long long)envelope(Victim).HeapQuotaWords);
  Super.note(strFormat("shed: group %u \"%s\" priority %d", Victim,
                       G.Banner.c_str(), VictimPrio));
  E.TheTracer.record(TraceEventKind::GroupShed, P.Id, P.Clock, Victim,
                     VictimAcct, uint64_t(VictimPrio));
  E.killGroup(Victim); // finalizes the launch via the termination seam
  return Victim;
}

void Tenancy::onGroupTerminated(unsigned ProcId, uint64_t Clock,
                                GroupId Gid) {
  auto L = std::find_if(Launches.begin(), Launches.end(),
                        [&](const Launch &C) { return C.Gid == Gid; });
  if (L == Launches.end() || L->Terminal)
    return;
  // The multi-run "root" resolves when the last launch terminates; keep
  // its clock current so ElapsedCycles measures to the final event.
  E.RootClock = std::max(E.RootClock, Clock);
  Group &G = E.Groups[Gid];
  if (G.State == GroupState::Stopped && Supervising) {
    switch (Super.onGroupStopped(Gid, Clock, G.Banner, G.Condition)) {
    case Supervisor::Verdict::RestartScheduled:
      return; // not terminal: the launch stays outstanding until it fires
    case Supervisor::Verdict::GaveUp:
      G.Condition = "supervisor-gave-up: " + G.Condition;
      ++E.Stats.SupervisorGaveUp;
      E.TheTracer.record(TraceEventKind::SupervisorGaveUp, ProcId, Clock,
                         Gid, Super.restartsTaken(Gid), 0);
      break;
    case Supervisor::Verdict::Escalate:
      ++E.Stats.SupervisorEscalations;
      Escalated = true;
      break;
    case Supervisor::Verdict::LeaveStopped:
      break;
    }
  }
  finalizeLaunch(Gid);
}

void Tenancy::supervisorTick(Processor &P) {
  if (!Supervising || Launches.empty())
    return;
  while (std::optional<Supervisor::Pending> Due = Super.takeDue(P.Clock)) {
    GroupId Gid = Due->G;
    if (Gid >= E.Groups.size() || E.Groups[Gid].State != GroupState::Stopped)
      continue; // shed, killed or resumed since the stop: the event is moot
    if (restartGroup(P, Gid)) {
      ++E.Stats.SupervisorRestarts;
      E.Telem.record(E.TelemIds.RestartLatency,
                     P.Clock > Due->StopClock ? P.Clock - Due->StopClock : 0);
      E.TheTracer.record(TraceEventKind::SupervisorRestart, P.Id, P.Clock,
                         Gid, Due->Attempt, 0);
    } else {
      Group &G = E.Groups[Gid];
      Super.note(strFormat("gave-up: group %u \"%s\" (no restartable state)",
                           Gid, G.Banner.c_str()));
      G.Condition =
          "supervisor-gave-up: no restartable state (" + G.Condition + ")";
      ++E.Stats.SupervisorGaveUp;
      E.TheTracer.record(TraceEventKind::SupervisorGaveUp, P.Id, P.Clock,
                         Gid, Due->Attempt, 0);
      E.RootClock = std::max(E.RootClock, P.Clock);
      finalizeLaunch(Gid);
    }
  }
}

bool Tenancy::nextSupervisorEvent(uint64_t &Due) const {
  if (!Supervising || Launches.empty())
    return false;
  return Super.nextEventClock(Due);
}

bool Tenancy::restartGroup(Processor &P, GroupId Gid) {
  Group &G = E.Groups[Gid];
  Task *T = E.liveTask(G.CurrentTask);
  if (!T || T->State != TaskState::Stopped)
    return false;
  Processor &Home = E.TheMachine.homeFor(T->LastProc);
  if (T->StopRestartable) {
    // The faulting instruction never executed (quota/budget stops always
    // land here): make the task runnable again at the same pc.
    T->StopRestartable = false;
    T->State = TaskState::Ready;
    Home.Queues.pushSuspended(T->Id, Home.Clock);
  } else {
    auto It = G.Checkpoints.find(taskIndex(T->Id));
    if (It == G.Checkpoints.end() || It->second.Epoch != T->SideEffectEpoch)
      return false;
    // Restore from the newest epoch-valid record, exactly as fail-stop
    // recovery does.
    E.Recov.restore(P, *T, It->second, Home, Gid);
  }
  E.requeueParked(G);
  G.Condition.clear();
  // A restart opens a fresh envelope: the cycle budget and the quota
  // grace collection both reset. The heap account does not — live words
  // are facts, and a group restarted over quota will trip again (and
  // eventually exhaust its restarts) unless it frees memory.
  Envelope &V = envelope(Gid);
  V.CyclesUsed = 0;
  V.QuotaGraceUsed = false;
  return true;
}

void Tenancy::finalizeLaunch(GroupId Gid) {
  for (Launch &L : Launches) {
    if (L.Gid != Gid || L.Terminal)
      continue;
    L.Terminal = true;
    if (L.Admitted && Live)
      --Live;
    if (Outstanding)
      --Outstanding;
    drainAdmissions();
    // A multi-group run has no single root future: it ends here.
    if (Outstanding == 0 || Escalated)
      E.RootDone = true;
    return;
  }
}

void Tenancy::drainAdmissions() {
  // Admitting a queued launch is one queue push — the task, group and
  // future were all created at evalGroups time, so this never allocates
  // no matter how deep in the scheduler the freed slot appeared.
  while (QueueHead < Queue.size() &&
         (E.Cfg.MaxLiveGroups == 0 || Live < E.Cfg.MaxLiveGroups)) {
    Launch &L = Launches[Queue[QueueHead++]];
    if (L.Terminal)
      continue;
    Task *T = E.liveTask(L.Root);
    if (!T) {
      L.Terminal = true;
      if (Outstanding)
        --Outstanding;
      continue;
    }
    L.Admitted = true;
    ++Live;
    ++E.Stats.GroupsAdmitted;
    Processor &Home = E.TheMachine.homeFor(T->LastProc);
    Home.Queues.pushNew(L.Root, Home.Clock);
    uint64_t Wait = Home.Clock > L.EnqueuedAt ? Home.Clock - L.EnqueuedAt : 0;
    E.Telem.record(E.TelemIds.AdmissionWait, Wait);
    Super.note(strFormat("admit: group %u \"%s\" from queue", L.Gid,
                         E.Groups[L.Gid].Banner.c_str()));
    E.TheTracer.record(TraceEventKind::GroupAdmitted, Home.Id, Home.Clock,
                       L.Gid, Wait, 0);
  }
}

bool Tenancy::noteRootResolved(Object *Fut, uint64_t Clock) {
  for (const Launch &L : Launches) {
    if (L.Terminal || L.Gid == InvalidGroup)
      continue;
    Group &G = E.Groups[L.Gid];
    if (!G.RootFuture.isFuture() || G.RootFuture.pointee() != Fut)
      continue;
    G.State = GroupState::Done;
    Super.note(strFormat("done: group %u \"%s\"", L.Gid, G.Banner.c_str()));
    E.RootClock = std::max(E.RootClock, Clock);
    finalizeLaunch(L.Gid);
    return true;
  }
  return false;
}

std::vector<EvalResult>
Tenancy::evalGroups(Engine &E, const std::vector<GroupLaunch> &Launches) {
  if (Launches.empty())
    return {};
  bool Enveloped = false;
  for (const GroupLaunch &L : Launches)
    Enveloped |= L.HeapQuotaWords || L.CycleBudget || !L.Supervise.empty();
  bool Held = E.Ten != nullptr;
  Tenancy &T = arm(E);
  T.Transient = !Held && !Enveloped;
  std::vector<EvalResult> Results = T.runLaunches(Launches);
  if (E.Ten->Transient)
    E.Ten.reset();
  return Results;
}

std::vector<EvalResult>
Tenancy::runLaunches(const std::vector<GroupLaunch> &Sources) {
  std::vector<EvalResult> Results(Sources.size());
  Super.beginRun();
  Live = 0;
  Outstanding = 0;
  Escalated = false;

  // Create every group, root future and root task up front. The admission
  // drain is then a single queue push from arbitrarily deep in the
  // scheduler — it never allocates mid-run.
  unsigned NP = E.TheMachine.numProcessors();
  for (size_t I = 0; I < Sources.size(); ++I) {
    const GroupLaunch &L = Sources[I];
    Launch TL;
    // A launch that cannot start is terminal from the outset.
    auto Fail = [&](EvalResult::Kind K, std::string Error) {
      Results[I].K = K;
      Results[I].Error = std::move(Error);
      TL.Terminal = true;
      Launches.push_back(TL);
    };
    Reader Rd(E.Builder, L.Source);
    std::string Err;
    std::vector<Value> Forms = [&] {
      HostPhaseTimer HostRead(E.Telem, Telemetry::Phase::Read);
      return Rd.readAll(Err);
    }();
    if (!Err.empty() || Forms.size() != 1) {
      Fail(EvalResult::Kind::ReadError,
           !Err.empty() ? Err
                        : (Forms.empty() ? "empty launch source"
                                         : "a launch must be a single form"));
      continue;
    }
    Compiler::Result CR = [&] {
      HostPhaseTimer HostCompile(E.Telem, Telemetry::Phase::Compile);
      return E.TheCompiler.compile(Forms[0]);
    }();
    if (!CR.ok()) {
      Fail(EvalResult::Kind::CompileError, CR.Error);
      continue;
    }

    GroupId Gid = E.newGroup(valueToString(Forms[0]));
    Envelope &V = envelope(Gid);
    if (L.HeapQuotaWords)
      V.HeapQuotaWords = L.HeapQuotaWords;
    if (L.CycleBudget)
      V.CycleBudget = L.CycleBudget;
    V.Priority = L.Priority;
    if (!L.Supervise.empty()) {
      Supervisor::Policy Pol;
      std::string PErr;
      if (Supervisor::parsePolicy(L.Supervise, Pol, PErr)) {
        Super.setGroupPolicy(Gid, Pol);
        Supervising = true;
      } else {
        std::fprintf(stderr, "mult: ignoring launch policy: %s\n",
                     PErr.c_str());
      }
    }

    // Home processors round-robin so a single-tenant hot spot cannot
    // starve the others' root launches.
    TaskId Root = E.newRootTask(Gid, CR.TopCode, unsigned(I % NP), Err);
    if (Root == InvalidTask) {
      E.Groups[Gid].State = GroupState::Killed;
      Fail(EvalResult::Kind::HeapExhausted, Err);
      continue;
    }
    TL.Gid = Gid;
    TL.Root = Root;
    Processor &Home = E.TheMachine.homeFor(unsigned(I % NP));
    TL.EnqueuedAt = Home.Clock;
    ++Outstanding;
    Launches.push_back(TL);
  }

  // Admission gate: the first MaxLiveGroups launches run, the next
  // MaxQueuedGroups wait (FIFO), the rest are rejected outright.
  for (size_t I = 0; I < Launches.size(); ++I) {
    Launch &L = Launches[I];
    if (L.Terminal || L.Gid == InvalidGroup)
      continue;
    Task *T = E.liveTask(L.Root);
    Processor &Home = E.TheMachine.homeFor(T ? T->LastProc : 0);
    Group &G = E.Groups[L.Gid];
    if (E.Cfg.MaxLiveGroups == 0 || Live < E.Cfg.MaxLiveGroups) {
      L.Admitted = true;
      ++Live;
      ++E.Stats.GroupsAdmitted;
      Home.charge(Home.Queues.pushNew(L.Root, Home.Clock));
      E.Telem.record(E.TelemIds.AdmissionWait, 0);
      E.TheTracer.record(TraceEventKind::GroupAdmitted, Home.Id, Home.Clock,
                         L.Gid, 0, 0);
    } else if (Queue.size() - QueueHead < E.Cfg.MaxQueuedGroups) {
      Queue.push_back(I);
      ++E.Stats.GroupsQueued;
      Super.note(strFormat("queue: group %u \"%s\"", L.Gid, G.Banner.c_str()));
      E.TheTracer.record(TraceEventKind::GroupQueued, Home.Id, Home.Clock,
                         L.Gid, 0, 0);
    } else {
      ++E.Stats.GroupsRejected;
      G.Condition = "admission-rejected: live and queued launch limits reached";
      Super.note(strFormat("reject: group %u \"%s\"", L.Gid, G.Banner.c_str()));
      // Terminal before the kill: a launch that never ran has no
      // termination edge for the supervisor.
      L.Terminal = true;
      if (Outstanding)
        --Outstanding;
      E.killGroup(L.Gid);
    }
  }

  RunResult RR;
  if (Outstanding) {
    // No single root future: the run ends when every launch is terminal
    // or a policy escalated (finalizeLaunch).
    E.beginRun(Value::nil(), InvalidGroup);
    E.RootDone = false;
    RR = E.TheMachine.run(E);
  } else {
    E.TheMachine.syncStats(E); // no run, but failed allocations charged
  }

  // Per-launch results from the groups' final states.
  for (size_t I = 0; I < Launches.size(); ++I) {
    Launch &L = Launches[I];
    if (L.Gid == InvalidGroup)
      continue; // read/compile/alloc error already recorded
    Group &G = E.Groups[L.Gid];
    EvalResult &R = Results[I];
    switch (G.State) {
    case GroupState::Done: {
      R.K = EvalResult::Kind::Value;
      Value V = G.RootFuture;
      while (V.isFuture() && V.pointee()->futureResolved())
        V = V.pointee()->futureValue();
      R.Val = V;
      break;
    }
    case GroupState::Stopped:
      R.K = G.Condition.compare(0, 14, "heap-exhausted") == 0
                ? EvalResult::Kind::HeapExhausted
                : EvalResult::Kind::RuntimeError;
      R.Error = G.Condition;
      R.StoppedGroup = L.Gid;
      break;
    case GroupState::Killed:
      if (R.K == EvalResult::Kind::Value && R.Error.empty()) {
        R.K = EvalResult::Kind::RuntimeError;
        R.Error = G.Condition.empty() ? "group-killed" : G.Condition;
        R.StoppedGroup = L.Gid;
      }
      break;
    case GroupState::Running:
      // The run ended before this launch finished: escalation, deadlock
      // among other groups, the cycle watchdog, or a gate that never
      // opened.
      R.K = RR.Status == RunStatus::Deadlock ? EvalResult::Kind::Deadlock
            : RR.Status == RunStatus::CycleLimit
                ? EvalResult::Kind::CycleLimit
                : EvalResult::Kind::RuntimeError;
      R.Error = Escalated
                    ? "run-escalated: a supervised group's policy ended "
                      "the run"
                : !L.Admitted
                    ? "admission-starved: the gate never opened"
                    : (RR.Error.empty() ? "run ended early" : RR.Error);
      break;
    }
  }

  // Launches the run abandoned (escalation, watchdog) still have runnable
  // tasks in processor queues; kill them so a later eval cannot dispatch
  // a half-finished tenant. Stopped groups stay inspectable.
  for (Launch &L : Launches) {
    if (L.Gid == InvalidGroup || L.Terminal)
      continue;
    L.Terminal = true;
    if (E.Groups[L.Gid].State == GroupState::Running)
      E.killGroup(L.Gid);
  }
  Launches.clear();
  Queue.clear();
  QueueHead = 0;
  return Results;
}
