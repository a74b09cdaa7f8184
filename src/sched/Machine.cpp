//===----------------------------------------------------------------------===//
///
/// \file
/// Machine implementation: the virtual-time run loop.
///
//===----------------------------------------------------------------------===//

#include "sched/Machine.h"

#include "core/Engine.h"
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
  for (unsigned I = 0; I < NumProcessors; ++I) {
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
    if (E.faults().takeAdaptReset(Ordinal)) {
      // Discard the window's samples and any pending votes.
      E.noteFault(P, FaultKind::AdaptReset, Ordinal);
      A.PendingDir = 0;
      A.PendingCount = 0;
      beginAdaptiveWindow(P);
      return;
    }
    uint32_t Forced;
    if (E.faults().takeAdaptClamp(Ordinal, Forced)) {
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
}

unsigned Machine::minClockProcessor() const {
  unsigned Best = ~0u;
  uint64_t BestClock = 0;
  for (unsigned I = 0; I < Procs.size(); ++I) {
    const Processor &P = Procs[I];
    if (P.Dead)
      continue;
    uint64_t Clock = P.Parked ? P.WakeClock : P.Clock;
    if (Best == ~0u || Clock < BestClock) {
      Best = I;
      BestClock = Clock;
    }
  }
  return Best; // the last live processor is never killed
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
  P.Clock += K * SweepCycles;
  P.BusyCycles += K * SweepBusy;
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

  // Idle parking. An idle processor whose sweep found nothing while no
  // task is queued anywhere, no lazy seam exists and some processor is
  // still running parks instead of repeating that sweep: an empty probe
  // is lock-free and of constant cost (CostModel.h), so its sweeps are
  // charged in closed form when it is settled (see settle). Runs where
  // anything observes individual probes or polls every iteration keep the
  // per-sweep loop.
  ParkingAllowed = !E.tracer().enabled() && !E.raceDetectEnabled() &&
                   !E.faults().armed() && !E.tenantArmed();
  SweepProbes = 2 * uint64_t(liveProcessors() - 1);
  SweepBusy = 2 * cost::QueueEmptyCheck + SweepProbes * cost::StealProbe;
  SweepCycles = SweepBusy + cost::IdleTick;

  RunResult R = runLoop(E, Start);
  settleParked(E);
  // Busy cycles since the last resetStats (which zeroes both), summed
  // here once per run rather than charged on the hot path.
  uint64_t Busy = 0;
  for (const Processor &P : Procs)
    Busy += P.BusyCycles;
  E.stats().CyclesExecuted = Busy;
  return R;
}

RunResult Machine::runLoop(Engine &E, uint64_t Start) {
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
    F.OffenderGroup = E.largestHeapGroup(F.OffenderLiveWords);
    return F;
  };
  // Names the group holding the most heap words in heap-exhausted
  // conditions. Empty unless the tenant quota layer is armed (attribution
  // needs its per-group accounting), so dormant output is unchanged.
  auto OffenderSuffix = [&E]() -> std::string {
    uint64_t Words = 0;
    GroupId Off = E.largestHeapGroup(Words);
    if (Off == InvalidGroup || Words == 0)
      return std::string();
    uint64_t Used = E.heap().usedWords();
    unsigned Share = Used ? unsigned(Words * 100 / Used) : 0;
    return strFormat("; largest holder: group %u (\"%s\") ~%llu live words "
                     "(%u%% of used heap)",
                     Off, E.group(Off).Banner.c_str(),
                     static_cast<unsigned long long>(Words), Share);
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
  for (;; EndStep()) {
    if (E.rootResolved()) {
      R.Status = RunStatus::Completed;
      R.Result = E.rootValue();
      R.ElapsedCycles = E.rootResolvedClock() - Start;
      E.stats().ElapsedCycles = R.ElapsedCycles;
      return R;
    }

    Processor &P = Procs[minClockProcessor()];
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
    // deterministic. Gated twice (armed here, multi-run inside): dormant
    // runs pay one predicted-false branch.
    if (E.tenantArmed())
      E.supervisorTick(P);

    if (E.faults().armed()) {
      // Fail-stop processor kill. Polled at quantum granularity on the
      // min-clock processor, so a kill never lands mid-instruction or
      // mid-GC; the schedule around it stays deterministic. Killing the
      // last live processor (or a dead/bogus target) is consumed with no
      // effect — an unrunnable machine helps nobody.
      unsigned Victim;
      uint64_t KillMark;
      if (E.faults().takeProcKill(P.Clock - Start, Victim, KillMark)) {
        if (Victim < Procs.size() && !Procs[Victim].Dead &&
            liveProcessors() > 1) {
          Processor &Dead = Procs[Victim];
          Dead.Dead = true;
          if (Dead.current() == InvalidTask && Dead.TraceIdling) {
            Dead.TraceIdling = false;
            E.tracer().record(TraceEventKind::IdleEnd, Dead.Id, Dead.Clock);
          }
          Processor &Obs = Procs[minClockProcessor()];
          E.noteFault(Obs, FaultKind::ProcKill, Victim);
          E.recoverProcessor(Obs, Dead, Start + KillMark);
          // An orphaned future may have stopped the root group: surface
          // the processor-lost condition to the breakloop.
          if (EndIfRootStopped(Obs.Clock))
            return R;
        }
        continue;
      }
      // Byzantine fault: arm the processor to corrupt the next future
      // value it resolves at a task-finishing return. Marks aimed at
      // dead or bogus processors are consumed with no effect (a lie from
      // a dead processor reaches nobody).
      unsigned Liar;
      uint64_t LieMark;
      if (E.faults().takeProcLie(P.Clock - Start, Liar, LieMark)) {
        if (Liar < Procs.size() && !Procs[Liar].Dead)
          Procs[Liar].Lying = true;
        continue;
      }
      // Processor stall window: the board drops off the bus for a while.
      // The skipped cycles are idle time, so the clock still tiles.
      uint64_t StallEndRel;
      if (E.faults().takeStall(P.Id, P.Clock - Start, StallEndRel)) {
        uint64_t Jump = Start + StallEndRel - P.Clock;
        E.noteFault(P, FaultKind::Stall, Jump);
        P.Clock += Jump;
        P.IdleCycles += Jump;
        E.stats().IdleCycles += Jump;
        continue;
      }
      // Quota squeeze: clamp a group's heap quota to half its current
      // account, as if an operator tightened a tenant's envelope mid-run.
      unsigned SqueezeG;
      uint64_t SqueezeMark;
      if (E.faults().takeQuotaSqueeze(P.Clock - Start, SqueezeG,
                                      SqueezeMark)) {
        E.noteFault(P, FaultKind::QuotaSqueeze, SqueezeG);
        E.applyQuotaSqueeze(P, SqueezeG);
        continue;
      }
      // Synthetic admission burst: N probe launches hit the gate at once,
      // exercising the admit/queue/reject partition deterministically.
      unsigned BurstN;
      uint64_t BurstMark;
      if (E.faults().takeAdmitBurst(P.Clock - Start, BurstN, BurstMark)) {
        E.noteFault(P, FaultKind::AdmitBurst, BurstN);
        E.admitSyntheticBurst(P, BurstN);
        continue;
      }
      // Forced spurious collection at a virtual-time mark.
      uint64_t GcMark;
      if (E.faults().takeForcedGc(P.Clock - Start, GcMark)) {
        E.noteFault(P, FaultKind::SpuriousGc, GcMark);
        if (!E.collectGarbage()) {
          R.Status = RunStatus::HeapExhausted;
          R.Error = "heap exhausted: " +
                    (E.heap().wedged() ? E.heap().wedgedReason()
                                       : "cannot start a collection") +
                    OffenderSuffix();
          R.ElapsedCycles = P.Clock - Start;
          E.stats().ElapsedCycles = R.ElapsedCycles;
          R.Heap = SnapshotHeap();
          return R;
        }
        // A proc-kill may have landed inside the forced collection and
        // orphaned a root-group future.
        if (EndIfRootStopped(P.Clock))
          return R;
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
      if (E.tenantArmed() && E.pollTenant(P, T)) {
        P.setCurrent(InvalidTask);
        if (EndIfRootStopped(P.Clock))
          return R;
        continue;
      }

      // Re-executed cycles of a recovered task are tallied separately:
      // busy cycles a survivor spends redoing work the dead processor
      // already paid for. A checkpoint-restored task charges only up to
      // its finite budget (the capture-to-kill delta); a lineage
      // re-spawn (budget ~0) charges its whole re-run, as before.
      bool ChargeRecovery = T.Recovered;
      uint64_t BusyBefore = P.BusyCycles;
      StepOutcome Step = interpretTask(E, P, T, P.Clock + Quantum);
      uint64_t BusyDelta = P.BusyCycles - BusyBefore;
      T.BusyCyclesTotal += BusyDelta;
      T.SinceCheckpoint += BusyDelta;
      if (E.tenantArmed())
        E.chargeGroupCycles(T, BusyDelta);
      if (ChargeRecovery) {
        uint64_t Charge = std::min(BusyDelta, T.RecoveryBudget);
        E.stats().RecoveryCycles += Charge;
        T.RecoveryCharged += Charge;
        if (T.RecoveryBudget != ~uint64_t(0)) {
          T.RecoveryBudget -= Charge;
          E.stats().MaxTaskRecoveryCycles = std::max(
              E.stats().MaxTaskRecoveryCycles, T.RecoveryCharged);
          if (T.RecoveryBudget == 0)
            T.Recovered = false; // caught up with the lost delta
        }
      }
      switch (Step) {
      case StepOutcome::TimeSlice:
        FruitlessGcs = 0;
        SameSpotTask = InvalidTask;
        if (E.config().CheckpointEvery &&
            T.SinceCheckpoint >= E.config().CheckpointEvery)
          E.maybeCheckpoint(P, T);
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
        auto StopHeapExhausted = [&](const std::string &Condition) -> bool {
          ++E.stats().HeapExhaustedStops;
          E.stopGroupRestartable(P, T, Condition);
          P.setCurrent(InvalidTask);
          SameSpotTask = InvalidTask;
          FruitlessGcs = 0;
          if (!EndIfRootStopped(P.Clock))
            return false;
          R.Heap = SnapshotHeap();
          return true;
        };
        // An injected allocation failure is not evidence of a full heap;
        // run the collection but keep the exhaustion heuristics quiet.
        bool Injected =
            E.faults().armed() && E.faults().consumeInjectedAllocFail();
        if (!Injected) {
          if (T.Id == SameSpotTask && T.Pc == SameSpotPc) {
            if (++SameSpotGcs >= 8) {
              // Memory pressure: before declaring exhaustion, shed the
              // lowest-priority quota violator (multi-group runs only) —
              // its heap frees at the next collection.
              if (E.multiRun() && E.shedForPressure(P) != InvalidGroup) {
                SameSpotTask = InvalidTask;
                FruitlessGcs = 0;
                break;
              }
              if (StopHeapExhausted(
                      std::string("heap-exhausted: a single operation "
                                  "allocates more than the collected heap "
                                  "can hold") +
                      OffenderSuffix()))
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
        if (!E.collectGarbage()) {
          // Nothing recoverable remains (to-space overflow wedges the
          // heap mid-copy): report a structured fatal result.
          R.Status = RunStatus::HeapExhausted;
          R.Error = "heap exhausted: " +
                    (E.heap().wedged() ? E.heap().wedgedReason()
                                       : "semispace too small for live data") +
                    OffenderSuffix();
          R.ElapsedCycles = P.Clock - Start;
          E.stats().ElapsedCycles = R.ElapsedCycles;
          R.Heap = SnapshotHeap();
          return R;
        }
        // A proc-kill may have landed inside the collection and orphaned
        // a root-group future.
        if (EndIfRootStopped(P.Clock))
          return R;
        // A collection that frees (almost) nothing cannot unblock the
        // failing allocation; stop the group instead of thrashing.
        if (!Injected && E.heap().usedWords() + 64 >= UsedBefore) {
          if (++FruitlessGcs >= 2) {
            if (E.multiRun() && E.shedForPressure(P) != InvalidGroup) {
              SameSpotTask = InvalidTask;
              FruitlessGcs = 0;
              break;
            }
            if (StopHeapExhausted(
                    std::string("heap-exhausted: collection reclaimed no "
                                "space") +
                    OffenderSuffix()))
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
      if (E.nextSupervisorEvent(Due)) {
        for (Processor &Q : Procs) {
          if (Q.Dead || Due <= Q.Clock)
            continue;
          uint64_t Jump = Due - Q.Clock;
          Q.Clock = Due;
          Q.IdleCycles += Jump;
          E.stats().IdleCycles += Jump;
        }
        E.supervisorTick(Procs[minClockProcessor()]);
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
