//===----------------------------------------------------------------------===//
///
/// \file
/// Recovery layer implementation: fail-stop recovery, checkpoints and
/// byzantine cross-checks.
///
//===----------------------------------------------------------------------===//

#include "core/Recovery.h"

#include "core/Engine.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"

#include <algorithm>
#include <cstdio>

using namespace mult;

namespace {

/// Why a lost task cannot be re-executed from its spawn lineage. The
/// numeric values are the TaskOrphaned trace event's B payload.
enum class OrphanReason : unsigned {
  Recoverable = 0,
  NoLineage = 1,     ///< seam-split continuation: no spawn closure exists
  SemaphoreHeld = 2, ///< exclusion already observed by other tasks
  SeamObserved = 3,  ///< a thief split this task's stack; re-running
                     ///< would recompute frames the thief now owns
  DidIo = 4,         ///< output already reached the console
  Disabled = 5,      ///< EngineConfig::Recovery is off
};

const char *orphanReasonName(OrphanReason R) {
  static const char *const Names[] = {
      "recoverable",       "no spawn lineage",
      "holds a semaphore", "stack split by a seam steal",
      "performed I/O",     "recovery disabled"};
  return Names[static_cast<unsigned>(R)];
}

} // namespace

void Recovery::recoverProcessor(Processor &P, Processor &Dead,
                                uint64_t DoomClock) {
  EngineStats &S = E.stats();
  Tracer &Tr = E.tracer();
  Machine &M = E.machine();
  const EngineConfig &Cfg = E.config();
  ++S.ProcsKilled;

  // Everything the processor took down with it: the task it was running
  // plus its queued backlog. The drain itself costs no virtual time —
  // recovery is scheduler firmware, not program work; the price the
  // program pays is the re-executed cycles, charged as the re-spawned
  // tasks run (EngineStats::RecoveryCycles).
  std::vector<TaskId> Lost;
  if (Dead.current() != InvalidTask) {
    Lost.push_back(Dead.current());
    Dead.setCurrent(InvalidTask);
  }
  uint64_t Scratch = 0;
  for (TaskId T; (T = Dead.Queues.popNew(Dead.Clock, Scratch)) != InvalidTask;)
    Lost.push_back(T);

  // A task of a killed group is dropped; one of a stopped group (already
  // in the breakloop) is parked, so a resume re-enqueues it like any other
  // sibling. True when \p T was handled so.
  auto ParkOrDrop = [&](Task &T) {
    Group &G = E.group(T.Group);
    if (G.State == GroupState::Killed) {
      Tr.record(TraceEventKind::TaskDropped, P.Id, P.Clock, T.Id);
      E.finishTask(T);
      return true;
    }
    if (G.State != GroupState::Stopped)
      return false;
    T.State = TaskState::Stopped;
    G.Parked.push_back(T.Id);
    Tr.record(TraceEventKind::TaskParked, P.Id, P.Clock, T.Id);
    return true;
  };
  // The suspended queue splits in two. Entries that arrived *before* the
  // kill mark are genuine lost backlog. Entries at or after the mark are
  // post-mortem wakes: the kill is polled at quantum granularity, so
  // another processor can run past the mark and wake a task here (via
  // Machine::homeFor, which still saw this processor alive) before the
  // poll fires. Those tasks were never really on the dead processor —
  // their wake state (HasWakeAction, SemaphoresHeld from a semaphore
  // handoff) is intact and must not be re-spawned from lineage (double
  // execution) or orphaned (a spurious semaphore-held group stop); they
  // are redirected to the nearest survivor unchanged.
  for (const auto &[Id, Arrived] : Dead.Queues.drainSuspendedArrivals()) {
    if (Arrived < DoomClock) {
      Lost.push_back(Id);
      continue;
    }
    Task *T = E.liveTask(Id);
    if (!T || ParkOrDrop(*T))
      continue;
    Processor &Home = M.homeFor(Dead.Id);
    T->LastProc = Home.Id;
    Home.Queues.pushSuspended(Id, Arrived);
    ++S.WakesRedirected;
  }

  Tr.record(TraceEventKind::ProcKilled, P.Id, P.Clock, Dead.Id, Lost.size(),
            S.ProcsKilled);

  // Classify. A lost task is re-executable exactly when it still has its
  // spawn lineage and no other task can have observed anything it did:
  // plain memory writes are idempotent under the deterministic schedule
  // (re-running stores the same values), but a held semaphore, a seam
  // split (a thief owns part of the stack) or console output is an
  // observation that re-execution would double (see DESIGN.md).
  struct RecoverItem {
    Task *T;
    const CheckpointRecord *CP; ///< null = lineage re-spawn from scratch
  };
  std::vector<RecoverItem> Recover;
  std::vector<std::pair<Task *, OrphanReason>> Orphans;
  for (TaskId Id : Lost) {
    Task *T = E.liveTask(Id);
    if (!T || ParkOrDrop(*T))
      continue; // a stale id: vetting would have dropped it on dispatch
    // Checkpointed recovery: a record whose side-effect epoch still
    // matches the task's (nothing observable happened since capture)
    // resumes the task from the snapshot. That trumps spawn-replay (only
    // the capture-to-kill delta is re-executed) *and* most orphan
    // reasons: the held semaphores, I/O, or missing lineage the orphan
    // rules fear date from before the capture, are baked into the
    // snapshot, and are never re-executed.
    if (Cfg.Recovery && Cfg.CheckpointEvery) {
      Group &G = E.group(T->Group);
      auto It = G.Checkpoints.find(taskIndex(T->Id));
      if (It != G.Checkpoints.end() &&
          It->second.Epoch == T->SideEffectEpoch) {
        Recover.push_back({T, &It->second});
        continue;
      }
    }
    OrphanReason Why = OrphanReason::Recoverable;
    if (!Cfg.Recovery)
      Why = OrphanReason::Disabled;
    else if (!T->SpawnClosure.isObject())
      Why = OrphanReason::NoLineage;
    else if (T->SemaphoresHeld > 0)
      Why = OrphanReason::SemaphoreHeld;
    else if (T->BaseFrame > 0)
      Why = OrphanReason::SeamObserved;
    else if (T->DidIo)
      Why = OrphanReason::DidIo;
    if (Why == OrphanReason::Recoverable)
      Recover.push_back({T, nullptr});
    else
      Orphans.emplace_back(T, Why);
  }

  // Re-spawn the recoverable tasks round-robin over the survivors,
  // starting after the dead processor so the load spreads the same way
  // every replay. initForThunk on the existing task keeps its id, group
  // and result future, so tasks blocked on it resolve as if nothing
  // happened — only the cycles are paid twice.
  unsigned N = M.numProcessors();
  unsigned Next = Dead.Id;
  for (const RecoverItem &Item : Recover) {
    Task *T = Item.T;
    do
      Next = (Next + 1) % N;
    while (M.processor(Next).Dead);
    Processor &Home = M.processor(Next);
    if (Item.CP) {
      restore(P, *T, *Item.CP, Home, Dead.Id);
      continue;
    }
    T->initForThunk(T->Id, T->Group, T->SpawnClosure, T->ResultFuture,
                    T->SpawnDynEnv, Home.Id);
    T->Recovered = true;
    Charging = true;
    Home.Queues.pushNew(T->Id, Home.Clock);
    ++S.TasksRecovered;
    Tr.record(TraceEventKind::TaskRecovered, P.Id, P.Clock, T->Id, Home.Id,
              Dead.Id);
  }

  // Unrecoverable tasks stop their group with a breakloop-inspectable
  // condition naming every orphaned future, mirroring the heap-exhausted
  // degradation. The simulator still holds the orphans' state, so the
  // stop is restartable: resume deliberately breaks the fail-stop
  // fiction and continues them on a survivor.
  for (auto [T, Why] : Orphans) {
    ++S.TasksOrphaned;
    Tr.record(TraceEventKind::TaskOrphaned, P.Id, P.Clock, T->Id,
              static_cast<uint64_t>(Why), Dead.Id);
    Group &G = E.group(T->Group);
    if (G.State == GroupState::Stopped) {
      // A prior orphan already stopped this group; join its parked set
      // and append to the condition so the breakloop names every orphan.
      T->State = TaskState::Stopped;
      G.Parked.push_back(T->Id);
      G.Condition += strFormat(", task %u (%s)", taskIndex(T->Id),
                               orphanReasonName(Why));
      continue;
    }
    E.stopGroupRestartable(
        P, *T,
        strFormat("processor-lost: processor %u failed; orphaned futures: "
                  "task %u (%s)",
                  Dead.Id, taskIndex(T->Id), orphanReasonName(Why)));
  }
}

void Recovery::restore(Processor &P, Task &T, const CheckpointRecord &R,
                       Processor &Home, uint64_t Cause) {
  // Only the busy cycles since the capture were lost, so the recovery
  // charge is budgeted to that delta — which the capture policy bounds by
  // CheckpointEvery + one quantum. The record stays in place: a second
  // restore before the next capture re-restores the same snapshot.
  uint64_t LostDelta = T.SinceCheckpoint;
  T.State = TaskState::Ready;
  T.LastProc = Home.Id;
  T.Stack.assign(R.Stack.data(), R.Stack.data() + R.Stack.size());
  T.Frames = R.Frames;
  T.CurCode = R.CurCode;
  T.Pc = R.Pc;
  T.DynEnv = R.DynEnv;
  T.BlockedOn = Value::nil();
  T.HasWakeAction = false;
  T.WakePop = 0;
  T.WakeValue = Value::nil();
  T.StopCondition.clear();
  T.StopPop = 0;
  T.StopRestartable = false;
  T.UnstolenSeams = 0; // capture eligibility guarantees none
  T.BaseFrame = 0;
  T.SemaphoresHeld = R.SemaphoresHeld;
  T.DidIo = R.DidIo;
  T.SinceCheckpoint = 0;
  T.RecoveryCharged = 0;
  T.RecoveryBudget = LostDelta;
  T.Recovered = LostDelta > 0;
  Charging |= T.Recovered;
  Home.Queues.pushNew(T.Id, Home.Clock);
  ++E.stats().TasksRestored;
  E.tracer().record(TraceEventKind::TaskRestored, P.Id, P.Clock, T.Id,
                    Home.Id, Cause);
}

void Recovery::chargeRecovery(Task &T, uint64_t BusyDelta) {
  // A restored task's budget is its capture-to-kill delta; a lineage
  // re-spawn's is ~0, so it charges its whole re-run.
  EngineStats &S = E.stats();
  uint64_t Charge = std::min(BusyDelta, T.RecoveryBudget);
  S.RecoveryCycles += Charge;
  T.RecoveryCharged += Charge;
  if (T.RecoveryBudget == ~uint64_t(0))
    return;
  T.RecoveryBudget -= Charge;
  S.MaxTaskRecoveryCycles =
      std::max(S.MaxTaskRecoveryCycles, T.RecoveryCharged);
  if (T.RecoveryBudget == 0)
    T.Recovered = false; // caught up with the lost delta
}

void Recovery::maybeCheckpoint(Processor &P, Task &T) {
  // Capture eligibility: the task must own its whole stack. An unstolen
  // seam could be stolen *after* the capture (the thief's future would
  // dangle in the snapshot), and a nonzero BaseFrame means the frames
  // below already belong to a thief's parent-continuation task.
  if (T.UnstolenSeams > 0 || T.BaseFrame > 0 || T.Frames.empty() ||
      T.Group == InvalidGroup)
    return;
  Group &G = E.group(T.Group);
  CheckpointRecord &R = G.Checkpoints[taskIndex(T.Id)];
  R.Stack.assign(T.Stack.begin(), T.Stack.end());
  R.Frames = T.Frames;
  R.CurCode = T.CurCode;
  R.Pc = T.Pc;
  R.DynEnv = T.DynEnv;
  R.SemaphoresHeld = T.SemaphoresHeld;
  R.DidIo = T.DidIo;
  R.Epoch = T.SideEffectEpoch;
  R.CaptureClock = P.Clock;
  // Snapshot cost: a base plus one cycle per four copied words (a frame
  // is modelled as four words of resume state).
  uint64_t CopiedWords =
      uint64_t(R.Stack.size()) + uint64_t(R.Frames.size()) * 4;
  uint64_t Cost = cost::CheckpointBase + CopiedWords / 4;
  P.charge(Cost);
  ++E.stats().CheckpointsTaken;
  E.stats().CheckpointCycles += Cost;
  ++P.CheckpointsTaken;
  P.LastCheckpointClock = P.Clock;
  T.SinceCheckpoint = 0;
  E.tracer().record(TraceEventKind::CheckpointTaken, P.Id, P.Clock, T.Id,
                    Cost, R.Epoch);
}

bool Recovery::checkByzantineReturn(Processor &P, Task &T) {
  FaultInjector &Injector = E.faults();
  EngineStats &S = E.stats();
  bool ChecksArmed = Injector.crossChecksArmed();
  if ((!P.Lying && !ChecksArmed) || T.Stack.empty())
    return false;
  Value &Result = T.Stack.back();
  // A lie only corrupts fixnum results (a corrupted pointer would crash
  // the simulator host, not model a wrong answer); the fault stays armed
  // until a fixnum-returning finish comes along.
  bool Lie = P.Lying && Result.isFixnum();
  // The draw is consumed on every armed finishing return, whether or not
  // a lie is pending, so the cross-check schedule is independent of the
  // lie schedule (and bit-deterministic under a fixed seed).
  bool Check = ChecksArmed && Injector.hit(FaultClause::CrossCheckProb);

  constexpr int64_t kLieXor = 0x2a;
  if (Lie && !Check) {
    // Undetected: the corrupted value propagates (and poisons whatever
    // consumed the future) exactly as a silently faulty processor would.
    Result = Value::fixnum(Result.asFixnum() ^ kLieXor);
    P.Lying = false;
    ++S.ByzantineLies;
    E.noteFault(P, FaultKind::ProcLie, P.Id);
    return false;
  }
  if (!Check)
    return false;

  // Cross-check: seed-deterministically re-execute the task on a
  // different live processor and compare. The checker is charged the
  // task's full busy history plus a fixed dispatch cost (BusyCyclesTotal
  // slightly undercounts the final partial quantum; deterministic, and
  // documented in DESIGN.md).
  Machine &M = E.machine();
  unsigned CheckerId = P.Id;
  for (unsigned Off = 1; Off < M.numProcessors(); ++Off) {
    unsigned C = (P.Id + Off) % M.numProcessors();
    if (!M.processor(C).Dead) {
      CheckerId = C;
      break;
    }
  }
  Processor &Checker = M.processor(CheckerId);
  ++S.CrossChecks;
  Checker.charge(cost::CrossCheckBase + T.BusyCyclesTotal);
  M.invalidateOrder(); // the checker is not the processor being stepped
  if (!Lie)
    return false;

  // Caught: the lying processor reported the corrupted value, the checker
  // recomputed the honest one. Stop the group restartably with both
  // values in the condition; the lie is disarmed, so resume re-runs the
  // return and resolves the future honestly.
  int64_t Honest = Result.asFixnum();
  int64_t Reported = Honest ^ kLieXor;
  P.Lying = false;
  ++S.ByzantineLies;
  ++S.ByzantineDetected;
  E.noteFault(P, FaultKind::ProcLie, P.Id);
  E.tracer().record(TraceEventKind::ByzantineDetected, P.Id, P.Clock, T.Id,
                    P.Id, uint64_t(Honest));
  E.stopGroupRestartable(
      P, T,
      strFormat("byzantine-detected: processor %u returned %lld for task %u; "
                "cross-check on processor %u recomputed %lld",
                P.Id, static_cast<long long>(Reported), taskIndex(T.Id),
                Checker.Id, static_cast<long long>(Honest)));
  return true;
}

bool Recovery::pollsGcKills() const {
  // Fault marks are run-relative; a collection triggered outside a run
  // (allocOrGc from a setup path) has no run clock to poll against.
  return E.faults().armed() && E.machine().inRun();
}

bool Recovery::pollGcKill(uint64_t Clock, unsigned &Victim) {
  Machine &M = E.machine();
  uint64_t Start = M.runStartClock();
  FaultMark Mark;
  if (!E.faults().takeMark(FaultClause::ProcKills,
                           Clock > Start ? Clock - Start : 0, Mark))
    return false;
  // The machine's quantum-poll guards, counting the kills already pending
  // in this collection; a victim doomed twice dies once.
  for (const PendingGcKill &K : PendingGcKills)
    if (K.Victim == Mark.Target)
      return false;
  if (M.killIsNoop(Mark.Target, unsigned(PendingGcKills.size())))
    return false;
  PendingGcKills.push_back({Mark.Target, Mark.At});
  Victim = Mark.Target;
  return true;
}

void Recovery::finishGcKills(bool Collected) {
  // The collector already finished the victims' copy work on survivors;
  // with the heap whole again, perform the machine-level fail-stop and
  // the usual recovery. The victims' scanned tasks survived the
  // collection, so restore/re-spawn sees fresh to-space state.
  std::vector<PendingGcKill> Kills;
  Kills.swap(PendingGcKills);
  if (!Collected)
    return;
  for (const PendingGcKill &K : Kills)
    if (!E.machine().processor(K.Victim).Dead)
      E.machine().failStop(E, K.Victim, K.Mark, true);
}
