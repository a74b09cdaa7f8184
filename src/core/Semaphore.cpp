//===----------------------------------------------------------------------===//
///
/// \file
/// Semaphore implementation.
///
//===----------------------------------------------------------------------===//

#include "core/Semaphore.h"

#include "core/Engine.h"
#include "vm/CostModel.h"

using namespace mult;

sem::POutcome sem::p(Engine &E, Processor &P, Task &T, Object *Sem) {
  if (Sem->semaphoreCount() > 0) {
    Sem->setSemaphoreCount(Sem->semaphoreCount() - 1);
    P.charge(3);
    if (E.raceDetectEnabled() && E.tracer().enabled())
      E.tracer().record(TraceEventKind::SemAcquire, P.Id, P.Clock,
                        E.cellSerial(Sem), 0, T.Id);
    return POutcome::Acquired;
  }

  // Append to the waiter list (FIFO: V wakes the longest waiter).
  uint64_t Cycles = 0;
  Object *Cell = E.tryAlloc(P, TypeTag::Pair, 2, Cycles);
  if (!Cell) {
    P.charge(Cycles);
    return POutcome::NeedsGc;
  }
  Cell->setCar(Value::fixnum(static_cast<int64_t>(T.Id)));
  Cell->setCdr(Value::nil());
  Value Waiters = Sem->slot(Object::SemWaiters);
  if (Waiters.isNil()) {
    Sem->setSlot(Object::SemWaiters, Value::object(Cell));
  } else {
    Object *Last = Waiters.asObject();
    while (!Last->cdr().isNil())
      Last = Last->cdr().asObject();
    Last->setCdr(Value::object(Cell));
  }

  T.State = TaskState::BlockedSemaphore;
  T.BlockedOn = Value::object(Sem);
  T.BlockClock = P.Clock; // telemetry stamp, zero virtual cost
  P.charge(Cycles + cost::BlockBase);
  if (E.tracer().enabled())
    E.tracer().record(TraceEventKind::TaskBlock, P.Id, P.Clock, T.Id, 1);
  return POutcome::Blocked;
}

void sem::v(Engine &E, Processor &P, Object *Sem) {
  Value Waiters = Sem->slot(Object::SemWaiters);
  while (!Waiters.isNil()) {
    Object *Cell = Waiters.asObject();
    Waiters = Cell->cdr();
    Sem->setSlot(Object::SemWaiters, Waiters);
    auto Id = static_cast<TaskId>(Cell->car().asFixnum());
    Task *Waiter = E.liveTask(Id);
    if (!Waiter || Waiter->State != TaskState::BlockedSemaphore)
      continue; // stale (task killed); try the next waiter
    if (!Waiter->BlockedOn.isObject() || Waiter->BlockedOn.asObject() != Sem)
      continue;
    // Complete the waiter's semaphore-p call: pop the semaphore argument,
    // push the result, advance past CallPrim.
    Waiter->State = TaskState::Ready;
    Waiter->BlockedOn = Value::nil();
    Waiter->HasWakeAction = true;
    Waiter->WakePop = 1;
    Waiter->WakeValue = Value::trueV();
    ++Waiter->SemaphoresHeld; // the V hands the semaphore to this waiter
    // The handoff mutates the waiter mid-flight; any checkpoint captured
    // before it must never be restored (the restore would drop the
    // acquisition and rewind past the wake action).
    ++Waiter->SideEffectEpoch;
    // Semaphore wait latency: P-block to V-wake, saturating (per-proc
    // clocks are not totally ordered).
    E.telemetry().record(E.telemetryIds().SemWait,
                         P.Clock > Waiter->BlockClock
                             ? P.Clock - Waiter->BlockClock
                             : 0);
    Processor &Home = E.machine().homeFor(Waiter->LastProc);
    P.charge(Home.Queues.pushSuspended(Id, P.Clock) + 4);
    if (E.tracer().enabled())
      E.tracer().record(TraceEventKind::TaskResume, P.Id, P.Clock, Waiter->Id,
                        Home.Id, P.current());
    if (E.raceDetectEnabled() && E.tracer().enabled()) {
      // Direct handoff: the V releases and the waiter acquires in one
      // step, so the release edge flows straight into the waiter.
      E.tracer().record(TraceEventKind::SemRelease, P.Id, P.Clock,
                        E.cellSerial(Sem), 0, P.current());
      E.tracer().record(TraceEventKind::SemAcquire, P.Id, P.Clock,
                        E.cellSerial(Sem), 0, Waiter->Id);
    }
    return;
  }
  Sem->setSemaphoreCount(Sem->semaphoreCount() + 1);
  P.charge(3);
  if (E.raceDetectEnabled() && E.tracer().enabled())
    E.tracer().record(TraceEventKind::SemRelease, P.Id, P.Clock,
                      E.cellSerial(Sem), 0, P.current());
}
