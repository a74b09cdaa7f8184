//===----------------------------------------------------------------------===//
///
/// \file
/// Task implementation.
///
//===----------------------------------------------------------------------===//

#include "core/Task.h"

#include "runtime/Object.h"

#include <cassert>
#include <type_traits>

using namespace mult;

void OperandStack::grow(size_t Words, size_t Live) {
  size_t NewCap = std::max(Words, 2 * Cap);
  static_assert(std::is_trivially_copyable_v<Value>,
                "raw storage holds values as they are");
  auto *New = static_cast<Value *>(::operator new(NewCap * sizeof(Value)));
  std::copy(Buf.get(), Buf.get() + Live, New);
  Buf.reset(New);
  Cap = NewCap;
}

void Task::initForThunk(TaskId NewId, GroupId G, Value Closure, Value Result,
                        Value InheritedDynEnv, unsigned Proc) {
  assert(Closure.isObject() &&
         Closure.asObject()->tag() == TypeTag::Closure &&
         "task body must be a closure");
  Id = NewId;
  Group = G;
  State = TaskState::Ready;
  LastProc = Proc;
  Stack.clear();
  Stack.push_back(Closure);
  Frames.clear();
  Frames.push_back(Frame{});
  CurCode = Closure.asObject()->closureCode();
  Pc = 0;
  BlockedOn = Value::nil();
  DynEnv = InheritedDynEnv;
  ResultFuture = Result;
  HasWakeAction = false;
  WakePop = 0;
  WakeValue = Value::nil();
  StopCondition.clear();
  StopPop = 0;
  StopRestartable = false;
  UnstolenSeams = 0;
  BaseFrame = 0;
  SpawnClosure = Closure;
  SpawnDynEnv = InheritedDynEnv;
  SemaphoresHeld = 0;
  DidIo = false;
  SideEffectEpoch = 0;
  SinceCheckpoint = 0;
  BusyCyclesTotal = 0;
  RecoveryBudget = ~uint64_t(0);
  RecoveryCharged = 0;
  BlockClock = 0;
  BlockSite = ~uint32_t(0);
  // CreateClock and FutureSite are stamped by the spawn path right after
  // initForThunk; a recovery re-spawn deliberately keeps the originals
  // (the re-run is the same logical task).
}

void Task::clearForRecycle() {
  State = TaskState::Done;
  Stack.clear();
  Frames.clear();
  CurCode = nullptr;
  Pc = 0;
  BlockedOn = Value::nil();
  DynEnv = Value::nil();
  ResultFuture = Value::nil();
  HasWakeAction = false;
  WakeValue = Value::nil();
  StopCondition.clear();
  StopRestartable = false;
  UnstolenSeams = 0;
  BaseFrame = 0;
  SpawnClosure = Value::nil();
  SpawnDynEnv = Value::nil();
  SemaphoresHeld = 0;
  DidIo = false;
  Recovered = false;
  SideEffectEpoch = 0;
  SinceCheckpoint = 0;
  BusyCyclesTotal = 0;
  RecoveryBudget = ~uint64_t(0);
  RecoveryCharged = 0;
  CreateClock = 0;
  BlockClock = 0;
  BlockSite = ~uint32_t(0);
  FutureSite = ~uint32_t(0);
}
