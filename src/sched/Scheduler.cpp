//===----------------------------------------------------------------------===//
///
/// \file
/// Dispatch policy implementation.
///
//===----------------------------------------------------------------------===//

#include "sched/Scheduler.h"

#include "core/Engine.h"
#include "core/LazyFutures.h"
#include "vm/CostModel.h"

using namespace mult;

namespace {

/// Validates a popped task id: live, Ready, group running. Parks members
/// of stopped groups so Engine::resumeGroup can re-enqueue them.
/// Returns null when the id should be dropped.
Task *vetTask(Engine &E, Processor &P, TaskId Id) {
  Task *T = E.liveTask(Id);
  if (!T || T->State != TaskState::Ready)
    return nullptr;
  Group &G = E.group(T->Group);
  // Done groups keep computing: their root resolved, but leftover tasks
  // (futures nobody touched yet) continue in the background.
  if (G.State == GroupState::Running || G.State == GroupState::Done)
    return T;
  if (G.State == GroupState::Stopped) {
    T->State = TaskState::Stopped;
    G.Parked.push_back(Id);
    E.tracer().record(TraceEventKind::TaskParked, P.Id, P.Clock, Id);
  } else {
    // Killed group: drop the task entirely.
    E.tracer().record(TraceEventKind::TaskDropped, P.Id, P.Clock, Id);
    E.finishTask(*T);
  }
  return nullptr;
}

} // namespace

TaskId mult::dispatchNextTask(Engine &E, Machine &M, Processor &P) {
  uint64_t Cycles = 0;
  EngineStats &S = E.stats();
  Tracer &Tr = E.tracer();
  auto Accept = [&](TaskId Id, bool FromNewQueue, bool Stolen) -> TaskId {
    Task *T = vetTask(E, P, Id);
    if (!T)
      return InvalidTask;
    uint64_t Base = FromNewQueue ? cost::DispatchNewBase : cost::DispatchSuspBase;
    Cycles += Base;
    P.charge(Cycles);
    // Table-1 attribution covers future-created tasks: the *initial*
    // dispatch of an evaluation's root task is launch overhead, not part
    // of the future protocol (its suspended-queue wakeups are: they are
    // exactly Table 1's step 6).
    bool IsRootLaunch = FromNewQueue && T->ResultFuture.isFuture() &&
                        T->ResultFuture.pointee() == E.rootFutureObject();
    if (!IsRootLaunch) {
      // Charge the queue operation itself to the step, not the incidental
      // probing of other queues on the way (the paper's figures assume the
      // task is found directly).
      uint64_t StepShare = Base + cost::QueueLockHold + 2;
      if (FromNewQueue)
        S.Steps.DispatchNewCycles += StepShare;
      else
        S.Steps.DispatchSuspCycles += StepShare;
    }
    ++S.Dispatches;
    ++P.Dispatches;
    ++P.TasksStarted;
    if (Stolen) {
      ++S.Steals;
      ++P.Steals;
    }
    T->State = TaskState::Running;
    T->LastProc = P.Id;
    Cycles = 0;
    if (Tr.enabled())
      Tr.record(TraceEventKind::TaskStart, P.Id, P.Clock, T->Id,
                Stolen ? 1 : 0);
    return T->Id;
  };

  // 1. Own suspended queue.
  for (;;) {
    TaskId Id = P.Queues.popSuspended(P.Clock + Cycles, Cycles);
    if (Id == InvalidTask)
      break;
    TaskId Got = Accept(Id, /*FromNewQueue=*/false, /*Stolen=*/false);
    if (Got != InvalidTask)
      return Got;
  }

  // 2. Own new queue.
  for (;;) {
    TaskId Id = P.Queues.popNew(P.Clock + Cycles, Cycles);
    if (Id == InvalidTask)
      break;
    TaskId Got = Accept(Id, /*FromNewQueue=*/true, /*Stolen=*/false);
    if (Got != InvalidTask)
      return Got;
  }

  unsigned N = M.numProcessors();
  // Steal attempts are counted per *probe* of a victim queue, not per
  // victim: when vetting rejects a popped task the retry probes again and
  // must count again, or the Steals/StealAttempts ratio overstates
  // success. Every probe ends in exactly one of Steals (Accept took it)
  // or StealsFailed (queue empty, or the popped task was parked/dropped).
  // Only a probe that took a task is traced: idle processors park under
  // tracing, and their empty sweeps are charged without being stepped.
  auto StealFrom = [&](Processor &Victim, bool FromNewQueue) -> TaskId {
    // Injected probe failure: the probe happens (lock acquired, queue
    // looked at) but comes back empty-handed, preserving the
    // Steals + StealsFailed == StealAttempts identity. noteFault traces it.
    if (E.faults().armed() &&
        E.faults().hitEither(FaultClause::StealFailAt,
                             FaultClause::StealFailProb)) {
      ++S.StealAttempts;
      ++S.StealsFailed;
      ++P.StealAttempts;
      ++P.StealsFailed;
      Cycles += cost::QueueLockHold;
      E.noteFault(P, FaultKind::StealFail, Victim.Id);
      return InvalidTask;
    }
    for (;;) {
      ++S.StealAttempts;
      ++P.StealAttempts;
      uint64_t Arrival = 0;
      TaskId Id =
          FromNewQueue
              ? Victim.Queues.stealNew(P.Clock + Cycles, Cycles,
                                       M.stealOrder(), &Arrival)
              : Victim.Queues.stealSuspended(P.Clock + Cycles, Cycles,
                                             M.stealOrder(), &Arrival);
      if (Id == InvalidTask) {
        ++S.StealsFailed;
        ++P.StealsFailed;
        return InvalidTask;
      }
      TaskId Got = Accept(Id, FromNewQueue, /*Stolen=*/true);
      if (Got != InvalidTask) {
        // Steal latency: enqueue on the victim to stolen dispatch here,
        // saturating (thief and victim clocks drift independently).
        E.telemetry().record(E.telemetryIds().StealLatency,
                             P.Clock > Arrival ? P.Clock - Arrival : 0);
        ++Victim.StolenFrom;
        if (Tr.enabled())
          Tr.record(TraceEventKind::StealAttempt, P.Id, P.Clock, Victim.Id,
                    1);
        return Got;
      }
      ++S.StealsFailed; // popped a task the vet parked or dropped
      ++P.StealsFailed;
    }
  };

  // 3. Steal from other processors' new queues. Fail-stopped processors
  // are skipped entirely (no probe, no StealAttempt): their queues were
  // drained when they died, and a dead board answers no bus requests.
  for (unsigned K = 1; K < N; ++K) {
    Processor &Victim = M.processor((P.Id + K) % N);
    if (Victim.Dead)
      continue;
    TaskId Got = StealFrom(Victim, /*FromNewQueue=*/true);
    if (Got != InvalidTask)
      return Got;
  }

  // 4. Steal from other processors' suspended queues.
  for (unsigned K = 1; K < N; ++K) {
    Processor &Victim = M.processor((P.Id + K) % N);
    if (Victim.Dead)
      continue;
    TaskId Got = StealFrom(Victim, /*FromNewQueue=*/false);
    if (Got != InvalidTask)
      return Got;
  }

  // 5. Lazy futures: split a provisionally inlined task. Seams exist when
  // the global lazy mode is on *or* a site policy made one future lazy, so
  // gate on the seam deque itself (empty when neither is in play).
  if (!E.seams().empty()) {
    P.charge(Cycles);
    Cycles = 0;
    auto R = lazyfutures::trySteal(E, P);
    if (R.K == lazyfutures::StealResult::Kind::Stolen) {
      Task &T = E.task(R.NewTask);
      T.State = TaskState::Running;
      T.LastProc = P.Id;
      ++S.Dispatches;
      ++P.Dispatches;
      ++P.TasksStarted;
      if (Tr.enabled())
        Tr.record(TraceEventKind::TaskStart, P.Id, P.Clock, R.NewTask, 2);
      return R.NewTask;
    }
    // NeedsGc is handled implicitly: the allocation failure path already
    // charged cycles; the machine's GC trigger fires on the next mutator
    // allocation failure. Fall through to idle.
  }

  P.charge(Cycles);
  return InvalidTask;
}
