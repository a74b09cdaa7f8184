//===----------------------------------------------------------------------===//
///
/// \file
/// Machine implementation: the virtual-time run loop.
///
//===----------------------------------------------------------------------===//

#include "sched/Machine.h"

#include "core/Engine.h"
#include "core/Tenancy.h"
#include "sched/Scheduler.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cassert>

using namespace mult;

Machine::Machine(unsigned NumProcessors, uint64_t QuantumCycles,
                 uint64_t MaxRunCycles, StealOrder Order,
                 const AdaptiveTConfig &Adaptive)
    : Quantum(QuantumCycles), MaxRunCycles(MaxRunCycles), Order(Order),
      Adaptive(Adaptive) {
  assert(NumProcessors >= 1 && "need at least one processor");
  Procs.resize(NumProcessors);
  Ranked.resize(NumProcessors);
  for (unsigned I = 0; I < NumProcessors; ++I) {
    Ranked[I].Id = I;
    Procs[I].Id = I;
    Procs[I].RunningTally = &Running;
    Procs[I].Queues.setQueuedTally(&Queued);
    Procs[I].Adapt.T = Adaptive.StartT;
    beginAdaptiveWindow(Procs[I]);
  }
}

void Machine::beginAdaptiveWindow(Processor &P) {
  AdaptiveTState &A = P.Adapt;
  A.WindowEnd = P.Clock + Adaptive.WindowCycles;
  A.AttemptsAtStart = P.StealAttempts;
  A.FailedAtStart = P.StealsFailed;
  A.StolenFromAtStart = P.StolenFrom;
  A.QueuedAtStart = P.Queues.newPushes();
  P.Queues.resetWindowHighWater();
}

void Machine::rebaselineAdaptiveWindows() {
  for (Processor &P : Procs)
    beginAdaptiveWindow(P);
}

void Machine::closeAdaptiveWindow(Engine &E, Processor &P) {
  AdaptiveTState &A = P.Adapt;
  uint64_t Ordinal = ++AdaptWindowOrdinal;
  ++A.WindowsClosed;
  ++E.stats().AdaptWindows;
  P.charge(cost::AdaptiveWindow);

  WindowSignals W;
  W.StealAttempts = P.StealAttempts - A.AttemptsAtStart;
  W.StealsFailed = P.StealsFailed - A.FailedAtStart;
  W.StolenFrom = P.StolenFrom - A.StolenFromAtStart;
  W.TasksQueued = P.Queues.newPushes() - A.QueuedAtStart;
  W.QueueHighWater = P.Queues.windowHighWater();
  W.Processors = numProcessors();

  if (E.faults().armed()) {
    if (E.faults().hit(FaultClause::AdaptResetAt, Ordinal)) {
      // Discard the window's samples and any pending votes.
      E.noteFault(P, FaultKind::AdaptReset, Ordinal);
      A.PendingDir = 0;
      A.PendingCount = 0;
      beginAdaptiveWindow(P);
      return;
    }
    uint32_t Forced;
    if (E.faults().hit(FaultClause::AdaptClamps, Ordinal, &Forced)) {
      unsigned Old = A.T;
      A.T = std::clamp(Forced, Adaptive.MinT, Adaptive.MaxT);
      A.PendingDir = 0;
      A.PendingCount = 0;
      E.noteFault(P, FaultKind::AdaptClamp, A.T);
      if (A.T != Old)
        E.tracer().record(TraceEventKind::ThresholdChange, P.Id, P.Clock,
                          A.T, Old, Ordinal);
      beginAdaptiveWindow(P);
      return;
    }
  }

  unsigned Old = A.T;
  int Dir = adaptive::decideStep(Adaptive, A.T, W);
  if (adaptive::applyStep(Adaptive, A, Dir)) {
    if (Dir > 0)
      ++E.stats().ThresholdRaises;
    else
      ++E.stats().ThresholdLowers;
    E.tracer().record(TraceEventKind::ThresholdChange, P.Id, P.Clock, A.T,
                      Old, Ordinal);
  }
  beginAdaptiveWindow(P);
}

std::vector<uint64_t> Machine::clocks() const {
  std::vector<uint64_t> Out;
  Out.reserve(Procs.size());
  for (const Processor &P : Procs)
    Out.push_back(P.Clock);
  return Out;
}

void Machine::setClocks(const std::vector<uint64_t> &C) {
  assert(C.size() == Procs.size());
  for (size_t I = 0; I < Procs.size(); ++I)
    Procs[I].Clock = C[I];
  OrderStale = true;
}

#ifndef NDEBUG
/// select() by a scan of every processor, for the assertion that the
/// maintained order picks the same processor and runner-up key.
static unsigned scanSelection(const std::vector<Processor> &Procs,
                              uint64_t &RunnerUp) {
  unsigned Best = ~0u;
  uint64_t BestClock = ~uint64_t(0);
  RunnerUp = ~uint64_t(0);
  for (unsigned I = 0; I < Procs.size(); ++I) {
    const Processor &P = Procs[I];
    if (P.Dead)
      continue;
    uint64_t Clock = P.Parked ? P.WakeClock : P.Clock;
    if (Best == ~0u || Clock < BestClock) {
      // The old best has the lower id and every key seen so far is at
      // least its own, so it alone bounds the new best.
      RunnerUp = BestClock;
      Best = I;
      BestClock = Clock;
    } else {
      // A higher id: it wins only at a strictly smaller clock.
      RunnerUp = std::min(RunnerUp, Clock + (Clock != ~uint64_t(0)));
    }
  }
  return Best;
}
#endif

Processor &Machine::select(uint64_t &RunnerUp) {
  if (OrderStale) {
    // Refresh every key in place and drop the dead. Whatever moved, the
    // old order is a good guess, so the insertion sort is short.
    size_t N = 0;
    for (const Rank &R : Ranked)
      if (!Procs[R.Id].Dead)
        Ranked[N++] = rankOf(Procs[R.Id]);
    Ranked.resize(N); // never empty: the last live processor is never killed
    for (size_t I = 1; I < N; ++I) {
      Rank R = Ranked[I];
      size_t J = I;
      for (; J > 0 && R < Ranked[J - 1]; --J)
        Ranked[J] = Ranked[J - 1];
      Ranked[J] = R;
    }
    OrderStale = false;
  } else {
    // Only the last selection moved; it usually lands last, so its new
    // place is found from the back.
    Rank R = rankOf(Procs[Ranked[0].Id]);
    size_t K = Ranked.size() - 1;
    while (K > 0 && R < Ranked[K])
      --K;
    std::copy(Ranked.begin() + 1, Ranked.begin() + K + 1, Ranked.begin());
    Ranked[K] = R;
  }
  const Rank &Best = Ranked[0];
  RunnerUp = ~uint64_t(0);
  if (Ranked.size() > 1) {
    const Rank &Next = Ranked[1];
    RunnerUp = Next.Key + (Next.Id > Best.Id && Next.Key != ~uint64_t(0));
  }
#ifndef NDEBUG
  uint64_t ScanRunnerUp;
  assert(scanSelection(Procs, ScanRunnerUp) == Best.Id &&
         ScanRunnerUp == RunnerUp && "selection order went stale unmarked");
#endif
  return Procs[Best.Id];
}

bool Machine::quiescent(const Engine &E) const {
#ifndef NDEBUG
  size_t Depth = 0;
  unsigned Busy = 0;
  for (const Processor &P : Procs) {
    Depth += P.Queues.depth();
    Busy += P.Current != InvalidTask;
  }
  assert(Depth == Queued && Busy == Running && "machine tallies drifted");
#endif
  // Dead processors hold no task: recovery drained them when they died.
  return Running == 0 && Queued == 0 && E.seams().empty();
}

void Machine::park(Processor &P, uint64_t Start) {
  // P.Clock is the clock of P's next sweep; they recur every SweepCycles.
  auto FirstSweepFrom = [&](uint64_t Clock) {
    if (Clock <= P.Clock)
      return P.Clock;
    return P.Clock + ((Clock - P.Clock - 1) / SweepCycles + 1) * SweepCycles;
  };
  uint64_t Wake = ~uint64_t(0);
  if (Adaptive.Enabled)
    Wake = FirstSweepFrom(P.Adapt.WindowEnd);
  if (MaxRunCycles < ~uint64_t(0) - Start)
    Wake = std::min(Wake, FirstSweepFrom(Start + MaxRunCycles + 1));
  P.Parked = true;
  P.WakeClock = Wake;
  ++ParkedCount;
}

void Machine::settle(Engine &E, Processor &P, uint64_t Clock, unsigned Id) {
  // The per-sweep loop steps the smallest (clock, id) first, so P's sweep
  // at c runs before the step keyed (Clock, Id) exactly when
  // (c, P.Id) < (Clock, Id): count the sweeps below that bound.
  uint64_t Bound = Clock + (P.Id < Id ? 1 : 0);
  uint64_t K =
      Bound > P.Clock ? (Bound - P.Clock - 1) / SweepCycles + 1 : 0;
  uint64_t Idle = K * cost::IdleTick;
  uint64_t Probes = K * SweepProbes;
  P.charge(K * SweepBusy);
  P.Clock += Idle;
  P.IdleCycles += Idle;
  P.StealAttempts += Probes;
  P.StealsFailed += Probes;
  EngineStats &S = E.stats();
  S.IdleCycles += Idle;
  S.StealAttempts += Probes;
  S.StealsFailed += Probes;
  SweepsSettled += K;
  P.Parked = false;
  --ParkedCount;
}

void Machine::settleParked(Engine &E) {
  if (ParkedCount == 0)
    return;
  for (Processor &P : Procs)
    if (P.Parked)
      settle(E, P, SelClock, SelId);
  OrderStale = true;
}

unsigned Machine::liveProcessors() const {
  unsigned N = 0;
  for (const Processor &P : Procs)
    N += !P.Dead;
  return N;
}

Processor &Machine::homeFor(unsigned Preferred) {
  for (unsigned K = 0; K < Procs.size(); ++K) {
    Processor &P = Procs[(Preferred + K) % Procs.size()];
    if (!P.Dead)
      return P;
  }
  return Procs[Preferred]; // unreachable: at least one processor lives
}

bool Machine::continueSlice(Engine &E, const Processor &P, const Task &T) {
  assert(P.current() == T.Id && !T.HasWakeAction);
  // The checks the next step would make before resuming T, in its order:
  // the root, T's group and T itself; then EndStep, which would settle the
  // parked processors once work is queued or a seam exists.
  if (E.rootResolved())
    return false;
  GroupState GS = E.group(T.Group).State;
  if (GS != GroupState::Running && GS != GroupState::Done)
    return false;
  if (T.State != TaskState::Running)
    return false;
  if (ParkedCount && (Queued || !E.seams().empty()))
    return false;
  SelClock = P.Clock;
  return true;
}

Processor &Machine::failStop(Engine &E, unsigned Victim, uint64_t Mark,
                             bool InCollection) {
  Processor &Dead = Procs[Victim];
  Dead.Dead = true;
  OrderStale = true;
  if (Dead.TraceIdling) {
    Dead.TraceIdling = false;
    E.tracer().record(TraceEventKind::IdleEnd, Dead.Id, Dead.Clock);
  }
  uint64_t RunnerUp;
  Processor &Obs = InCollection ? homeFor(Victim) : select(RunnerUp);
  E.noteFault(Obs, FaultKind::ProcKill, Victim);
  E.recovery().recoverProcessor(Obs, Dead, RunStart + Mark);
  return Obs;
}

RunResult Machine::run(Engine &E) {
  // Host wall-clock for the whole run loop (RAII covers every return).
  // Nested collections also accrue to the Gc phase; subtract Gc from Run
  // to isolate the mutator. Host time never feeds virtual time.
  HostPhaseTimer HostRun(E.telemetry(), Telemetry::Phase::Run);
  // Synchronize the processors at the start of the run (they idled while
  // the "user" typed the expression); the skew counts as idle time so
  // busy + idle + GC cycles always tile the clock.
  uint64_t Start = 0;
  for (Processor &P : Procs)
    Start = std::max(Start, P.Clock);
  // Published so fault marks can be made run-relative outside this loop
  // (the GC-phase kill poll fires from inside a collection); cleared on
  // every return path.
  RunStart = Start;
  InRun = true;
  struct InRunGuard {
    bool &Flag;
    ~InRunGuard() { Flag = false; }
  } RunGuard{InRun};
  for (Processor &P : Procs) {
    uint64_t Skew = Start - P.Clock;
    P.Clock = Start;
    P.IdleCycles += Skew;
    E.stats().IdleCycles += Skew;
  }
  OrderStale = true;

  // Idle parking. An idle processor whose sweep found nothing while no
  // task is queued anywhere, no lazy seam exists and some processor is
  // still running parks instead of repeating that sweep: an empty probe
  // is lock-free and of constant cost (CostModel.h), so its sweeps are
  // charged in closed form when it is settled (see settle). An empty
  // probe records no trace event, so traced and race-armed runs park
  // too. Fault plans (which may fail any probe) and the tenant layer
  // (which polls every iteration) keep the per-sweep loop.
  ParkingAllowed = !E.faults().armed() && !E.tenantArmed();
  SweepProbes = 2 * uint64_t(liveProcessors() - 1);
  SweepBusy = 2 * cost::QueueEmptyCheck + SweepProbes * cost::StealProbe;
  SweepCycles = SweepBusy + cost::IdleTick;

  // The layers' per-step work is compiled into runLoop<true> only, so a
  // dormant step tests no layer. Only a fault mark (a quota squeeze or an
  // admit burst) arms a layer mid-run, and it needs an armed plan; a task
  // owing recovery cycles keeps later runs armed.
  bool Armed = E.faults().armed() || E.tenantArmed() ||
               E.config().CheckpointEvery || E.recovery().charging();
  RunResult R = Armed ? runLoop<true>(E, Start) : runLoop<false>(E, Start);
  settleParked(E);
  syncStats(E);
  return R;
}

void Machine::syncStats(Engine &E) const {
  uint64_t Busy = 0, Insns = 0;
  for (const Processor &P : Procs) {
    assert(P.BusyShadow == P.busyCycles() &&
           "a clock move is neither charged nor counted as idle or GC");
    Busy += P.busyCycles();
    Insns += P.Instructions;
  }
  E.stats().CyclesExecuted = Busy;
  E.stats().Instructions = Insns;
}

template <bool Armed> RunResult Machine::runLoop(Engine &E, uint64_t Start) {
  RunResult R;
  unsigned FruitlessGcs = 0;
  // Detects an instruction that keeps re-triggering collections: a
  // monolithic allocation larger than the post-collection headroom can
  // never complete (its partial garbage is reclaimed each time, so the
  // used-words heuristic alone never fires).
  TaskId SameSpotTask = InvalidTask;
  uint32_t SameSpotPc = 0;
  unsigned SameSpotGcs = 0;

  auto SnapshotHeap = [&E]() {
    HeapFacts F;
    F.UsedWords = E.heap().usedWords();
    F.CapacityWords = E.heap().capacityWords();
    F.Collections = E.gcStats().Collections;
    F.CollectorWedged = E.heap().wedged();
    // Only the tenant layer keeps the per-group accounts attribution needs.
    if (Tenancy *Ten = E.tenancy())
      F.OffenderGroup = Ten->largestHeapGroup(F.OffenderLiveWords);
    return F;
  };
  // Names the group holding the most heap words in heap-exhausted
  // conditions; empty when dormant, so dormant output is unchanged.
  auto OffenderSuffix = [&]() -> std::string {
    HeapFacts F = SnapshotHeap();
    if (F.OffenderGroup == InvalidGroup || F.OffenderLiveWords == 0)
      return std::string();
    return strFormat("; largest holder: group %u (\"%s\") ~%llu live words "
                     "(%u%% of used heap)",
                     F.OffenderGroup, E.group(F.OffenderGroup).Banner.c_str(),
                     static_cast<unsigned long long>(F.OffenderLiveWords),
                     F.UsedWords ? unsigned(F.OffenderLiveWords * 100 /
                                            F.UsedWords)
                                 : 0u);
  };
  // Ends the run at \p Clock with a structured heap-exhausted result, for
  // a collection that could not run or could not finish (\p Why, unless
  // the heap names its own wedge reason).
  auto HeapExhausted = [&](uint64_t Clock, const char *Why) {
    R.Status = RunStatus::HeapExhausted;
    R.Error = "heap exhausted: " +
              (E.heap().wedged() ? E.heap().wedgedReason() : Why) +
              OffenderSuffix();
    R.ElapsedCycles = Clock - Start;
    E.stats().ElapsedCycles = R.ElapsedCycles;
    R.Heap = SnapshotHeap();
    return R;
  };
  // If the root group just stopped, ends the run at \p Clock with its
  // condition and returns true. A multi-group run has no root group; group
  // stops there never end the run (each tenant fails independently).
  auto EndIfRootStopped = [&](uint64_t Clock) {
    GroupId Root = E.rootGroup();
    if (Root == InvalidGroup || E.lastStoppedGroup() != Root ||
        E.group(Root).State != GroupState::Stopped)
      return false;
    R.Status = RunStatus::GroupStopped;
    R.StoppedGroup = Root;
    R.Error = E.group(Root).Condition;
    R.ElapsedCycles = Clock - Start;
    E.stats().ElapsedCycles = R.ElapsedCycles;
    return true;
  };

  // A step that queued a task, made a seam or left no processor running
  // ends the parked processors' empty sweeps: settle them against the
  // step's key so the next selection sees their exact clocks.
  auto EndStep = [&] {
    if (ParkedCount && (Queued || Running == 0 || !E.seams().empty()))
      settleParked(E);
  };
  // A dormant slice may run past its quantum boundaries (see
  // continueSlice) up to its horizon: the first boundary clock at which
  // the next step could do more than resume it. The run's cycle limit and
  // cycle budget bound every slice.
  auto After = [&](uint64_t Limit) {
    return Limit < ~uint64_t(0) - Start ? Start + Limit + 1 : ~uint64_t(0);
  };
  const uint64_t Deadline =
      std::min(After(MaxRunCycles), After(E.config().MaxCycles));
  for (;; EndStep()) {
    if (E.rootResolved()) {
      R.Status = RunStatus::Completed;
      R.Result = E.rootValue();
      R.ElapsedCycles = E.rootResolvedClock() - Start;
      E.stats().ElapsedCycles = R.ElapsedCycles;
      return R;
    }

    uint64_t RunnerUp;
    Processor &P = select(RunnerUp);
    if (P.Parked)
      settle(E, P, P.WakeClock, P.Id); // its wake sweep is stepped
    SelClock = P.Clock;
    SelId = P.Id;
    if (P.Clock - Start > MaxRunCycles) {
      R.Status = RunStatus::CycleLimit;
      R.Error = "virtual cycle limit exceeded";
      R.ElapsedCycles = P.Clock - Start;
      E.stats().ElapsedCycles = R.ElapsedCycles;
      return R;
    }

    // Adaptive inlining threshold: this processor's adaptation window may
    // have elapsed (its clock moves only in this loop, so checking here
    // catches every crossing exactly once).
    if (Adaptive.Enabled && P.Clock >= P.Adapt.WindowEnd)
      closeAdaptiveWindow(E, P);

    // Supervisor restart events due at or before the min clock fire here,
    // so a restart never lands mid-quantum and the schedule around it is
    // deterministic.
    if (Tenancy *Ten = Armed ? E.tenancy() : nullptr)
      Ten->supervisorTick(P);

    // Fault-plan marks due at this step fire here, one per step, in
    // kMarkPollOrder (fault/FaultPlan.h). Polled at quantum granularity on
    // the min-clock processor, so a mark never lands mid-instruction and
    // the schedule around it stays deterministic.
    if (Armed && E.faults().armed()) {
      if (std::optional<FaultMark> M =
              E.faults().nextMark(P.Id, P.Clock - Start)) {
        switch (M->Kind) {
        case FaultKind::ProcKill:
          // Fail-stop. A mark aimed at a dead or bogus processor, or at
          // the last live one, is consumed with no effect.
          if (!killIsNoop(M->Target)) {
            Processor &Obs = failStop(E, M->Target, M->At, false);
            // An orphaned future may have stopped the root group: surface
            // the processor-lost condition to the breakloop.
            if (EndIfRootStopped(Obs.Clock))
              return R;
          }
          break;
        case FaultKind::ProcLie:
          // Byzantine fault: the processor corrupts the next future value
          // it resolves at a task-finishing return (a lie from a dead
          // processor reaches nobody).
          if (M->Target < Procs.size() && !Procs[M->Target].Dead)
            Procs[M->Target].Lying = true;
          break;
        case FaultKind::Stall: {
          // The board drops off the bus until the window ends. The
          // skipped cycles are idle time, so the clock still tiles.
          uint64_t Jump = M->Until - (P.Clock - Start);
          E.noteFault(P, FaultKind::Stall, Jump);
          P.Clock += Jump;
          P.IdleCycles += Jump;
          E.stats().IdleCycles += Jump;
          break;
        }
        case FaultKind::QuotaSqueeze:
          // As if an operator halved a tenant's heap envelope mid-run.
          E.noteFault(P, FaultKind::QuotaSqueeze, M->Target);
          Tenancy::applyQuotaSqueeze(E, M->Target);
          break;
        case FaultKind::AdmitBurst:
          // N probe launches hit the admission gate at once.
          E.noteFault(P, FaultKind::AdmitBurst, M->Target);
          Tenancy::admitSyntheticBurst(E, M->Target);
          break;
        case FaultKind::SpuriousGc:
          E.noteFault(P, FaultKind::SpuriousGc, M->At);
          if (!E.collectGarbage())
            return HeapExhausted(P.Clock, "cannot start a collection");
          // A proc-kill may have landed inside the collection and
          // orphaned a root-group future.
          if (EndIfRootStopped(P.Clock))
            return R;
          break;
        default:
          break;
        }
        continue;
      }
    }

    if (P.current() != InvalidTask) {
      Task &T = E.task(P.current());
      Group &G = E.group(T.Group);
      if (G.State != GroupState::Running && G.State != GroupState::Done) {
        // The group stopped while this task was current on another
        // processor's signal: suspend it (paper: "no other tasks in the
        // group will run").
        P.setCurrent(InvalidTask);
        if (G.State == GroupState::Stopped &&
            T.State == TaskState::Running) {
          T.State = TaskState::Stopped;
          G.Parked.push_back(T.Id);
          E.tracer().record(TraceEventKind::TaskStopped, P.Id, P.Clock, T.Id);
        } else if (G.State == GroupState::Killed) {
          E.tracer().record(TraceEventKind::TaskDropped, P.Id, P.Clock, T.Id);
          E.finishTask(T);
        }
        P.charge(4);
        continue;
      }
      if (T.State != TaskState::Running) {
        // Stopped by its own raise, or finished: detach.
        P.setCurrent(InvalidTask);
        continue;
      }

      // Cycle-budget watchdog: unlike MaxRunCycles (which abandons the
      // whole run), exceeding MaxCycles stops the runaway group so the
      // breakloop can inspect, kill, or resume it with a fresh budget.
      if (P.Clock - Start > E.config().MaxCycles) {
        E.stopGroupRestartable(
            P, T,
            strFormat("cycle-budget-exhausted: group %u exceeded %llu "
                      "virtual cycles",
                      T.Group,
                      static_cast<unsigned long long>(E.config().MaxCycles)));
        P.setCurrent(InvalidTask);
        if (EndIfRootStopped(P.Clock))
          return R;
        continue;
      }

      // Tenant quotas and budgets, polled at quantum granularity like the
      // watchdog above: only the offending group stops (restartable — the
      // next instruction never executed); every other group keeps running.
      // A recovered task's re-executed cycles are tallied separately: busy
      // cycles a survivor spends redoing work the dead processor already
      // paid for.
      Tenancy *Ten = Armed ? E.tenancy() : nullptr;
      if (Ten && Ten->poll(P, T)) {
        P.setCurrent(InvalidTask);
        if (EndIfRootStopped(P.Clock))
          return R;
        continue;
      }
      // Horizon 0 ends the slice at its first boundary: an armed step has
      // layer work there, and a TimeSlice clears the collection counters.
      uint64_t Horizon = 0;
      if (!Armed && !FruitlessGcs && SameSpotTask == InvalidTask) {
        Horizon = std::min(RunnerUp, Deadline);
        if (Adaptive.Enabled)
          Horizon = std::min(Horizon, P.Adapt.WindowEnd);
      }
      bool ChargeRecovery = Armed && T.Recovered;
      uint64_t BusyBefore = P.busyCycles();
      StepOutcome Step = interpretTask(E, P, T, P.Clock + Quantum, Horizon);
      uint64_t BusyDelta = P.busyCycles() - BusyBefore;
      // Kept in every run: a cross-check or capture armed later reads it.
      T.BusyCyclesTotal += BusyDelta;
      T.SinceCheckpoint += BusyDelta;
      if (Ten)
        Ten->chargeCycles(T, BusyDelta);
      if (ChargeRecovery)
        E.recovery().chargeRecovery(T, BusyDelta);
      switch (Step) {
      case StepOutcome::TimeSlice:
        FruitlessGcs = 0;
        SameSpotTask = InvalidTask;
        if (Armed && E.config().CheckpointEvery &&
            T.SinceCheckpoint >= E.config().CheckpointEvery)
          E.recovery().maybeCheckpoint(P, T);
        break;
      case StepOutcome::Blocked:
      case StepOutcome::TaskDone:
      case StepOutcome::GroupStopped:
        P.setCurrent(InvalidTask);
        if (EndIfRootStopped(P.Clock))
          return R;
        break;
      case StepOutcome::NeedsGc: {
        // Heap exhaustion degrades gracefully: the task's group stops
        // with a heap-exhausted condition (breakloop-inspectable and
        // killable) instead of abandoning the run. The instruction never
        // executed, so the stop is restartable.
        // Memory pressure, once a heuristic below gives up: shed the
        // lowest-priority quota violator (multi-group runs only; its heap
        // frees at the next collection), else stop the group. True when
        // that ends the run.
        auto OutOfHeap = [&](const char *Why) {
          SameSpotTask = InvalidTask;
          FruitlessGcs = 0;
          if (Ten && Ten->shedForPressure(P) != InvalidGroup)
            return false;
          ++E.stats().HeapExhaustedStops;
          E.stopGroupRestartable(
              P, T, std::string("heap-exhausted: ") + Why + OffenderSuffix());
          P.setCurrent(InvalidTask);
          if (!EndIfRootStopped(P.Clock))
            return false;
          R.Heap = SnapshotHeap();
          return true;
        };
        // An injected allocation failure is not evidence of a full heap;
        // run the collection but keep the exhaustion heuristics quiet.
        bool Injected = Armed && E.faults().armed() &&
                        E.faults().consumeInjectedAllocFail();
        if (!Injected) {
          if (T.Id == SameSpotTask && T.Pc == SameSpotPc) {
            if (++SameSpotGcs >= 8) {
              if (OutOfHeap("a single operation allocates more than the "
                            "collected heap can hold"))
                return R;
              break;
            }
          } else {
            SameSpotTask = T.Id;
            SameSpotPc = T.Pc;
            SameSpotGcs = 1;
          }
        }
        size_t UsedBefore = E.heap().usedWords();
        // Nothing recoverable remains when this fails (to-space overflow
        // wedges the heap mid-copy).
        if (!E.collectGarbage())
          return HeapExhausted(P.Clock, "semispace too small for live data");
        // A proc-kill may have landed inside the collection and orphaned
        // a root-group future.
        if (EndIfRootStopped(P.Clock))
          return R;
        // A collection that frees (almost) nothing cannot unblock the
        // failing allocation; stop the group instead of thrashing.
        if (!Injected && E.heap().usedWords() + 64 >= UsedBefore) {
          if (++FruitlessGcs >= 2) {
            if (OutOfHeap("collection reclaimed no space"))
              return R;
            break;
          }
        } else if (!Injected) {
          FruitlessGcs = 0;
        }
        break;
      }
      }
      continue;
    }

    // Idle processor: find work.
    TaskId Next = dispatchNextTask(E, *this, P);
    if (Next != InvalidTask) {
      if (P.TraceIdling) {
        P.TraceIdling = false;
        E.tracer().record(TraceEventKind::IdleEnd, P.Id, P.Clock);
      }
      P.setCurrent(Next);
      continue;
    }
    if (!P.TraceIdling) {
      P.TraceIdling = true;
      E.tracer().record(TraceEventKind::IdleBegin, P.Id, P.Clock);
    }
    P.Clock += cost::IdleTick;
    P.IdleCycles += cost::IdleTick;
    E.stats().IdleCycles += cost::IdleTick;

    if (quiescent(E)) {
      // A quiescent machine with a supervisor restart pending is not
      // deadlocked: fast-forward to the earliest due event (the jump is
      // idle time, so busy + idle + GC cycles keep tiling every clock)
      // and let the restart re-populate the queues.
      uint64_t Due;
      Tenancy *Ten = Armed ? E.tenancy() : nullptr;
      if (Ten && Ten->nextSupervisorEvent(Due)) {
        for (Processor &Q : Procs) {
          if (Q.Dead || Due <= Q.Clock)
            continue;
          uint64_t Jump = Due - Q.Clock;
          Q.Clock = Due;
          Q.IdleCycles += Jump;
          E.stats().IdleCycles += Jump;
        }
        OrderStale = true;
        uint64_t RunnerUp;
        Ten->supervisorTick(select(RunnerUp));
        continue;
      }
      // Nothing runnable anywhere. If the root is unresolved, the
      // computation deadlocked (e.g. the paper's semaphore example under
      // inlining). Reconstruct the task -> future wait-for graph so the
      // report names the cycle, not just the symptom.
      ++E.stats().DeadlocksDetected;
      R.Status = RunStatus::Deadlock;
      R.Error = "deadlock: all processors idle, root future unresolved";
      if (std::string Graph = E.describeWaitGraph(); !Graph.empty())
        R.Error += "\n" + Graph;
      R.ElapsedCycles = P.Clock - Start;
      E.stats().ElapsedCycles = R.ElapsedCycles;
      return R;
    }
    if (ParkingAllowed && Queued == 0 && E.seams().empty())
      park(P, Start); // not quiescent, so some processor is running
  }
}
