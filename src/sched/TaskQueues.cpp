//===----------------------------------------------------------------------===//
///
/// \file
/// TaskQueues implementation.
///
//===----------------------------------------------------------------------===//

#include "sched/TaskQueues.h"

#include "vm/CostModel.h"

#include <algorithm>

using namespace mult;

uint64_t TaskQueues::pushNew(TaskId T, uint64_t Now) {
  uint64_t C = NewLock.acquire(Now, cost::QueueLockHold);
  NewQ.emplace_back(T, Now);
  NewHighWater = std::max(NewHighWater, NewQ.size());
  ++NewPushes;
  tally(1, 0);
  noteDepth();
  return C + 2;
}

uint64_t TaskQueues::pushSuspended(TaskId T, uint64_t Now) {
  uint64_t C = SuspLock.acquire(Now, cost::QueueLockHold);
  SuspQ.emplace_back(T, Now);
  SuspHighWater = std::max(SuspHighWater, SuspQ.size());
  tally(1, 0);
  noteDepth();
  return C + 2;
}

TaskId TaskQueues::popNew(uint64_t Now, uint64_t &Cycles,
                          uint64_t *ArrivalOut) {
  if (NewQ.empty()) {
    Cycles += cost::QueueEmptyCheck; // lock-free; see CostModel.h
    return InvalidTask;
  }
  Cycles += NewLock.acquire(Now, cost::QueueLockHold) + 2;
  auto [T, Arrived] = NewQ.back();
  NewQ.pop_back();
  tally(0, 1);
  if (ArrivalOut)
    *ArrivalOut = Arrived;
  return T;
}

TaskId TaskQueues::popSuspended(uint64_t Now, uint64_t &Cycles,
                                uint64_t *ArrivalOut) {
  if (SuspQ.empty()) {
    Cycles += cost::QueueEmptyCheck;
    return InvalidTask;
  }
  Cycles += SuspLock.acquire(Now, cost::QueueLockHold) + 2;
  auto [T, Arrived] = SuspQ.back();
  SuspQ.pop_back();
  tally(0, 1);
  if (ArrivalOut)
    *ArrivalOut = Arrived;
  return T;
}

TaskId TaskQueues::stealNew(uint64_t Now, uint64_t &Cycles, StealOrder Order,
                            uint64_t *ArrivalOut) {
  if (NewQ.empty()) {
    Cycles += cost::StealProbe;
    return InvalidTask;
  }
  Cycles += NewLock.acquire(Now, cost::QueueLockHold) + cost::StealBase;
  std::pair<TaskId, uint64_t> E;
  if (Order == StealOrder::Lifo) {
    E = NewQ.back();
    NewQ.pop_back();
  } else {
    E = NewQ.front();
    NewQ.pop_front();
  }
  tally(0, 1);
  if (ArrivalOut)
    *ArrivalOut = E.second;
  return E.first;
}

TaskId TaskQueues::stealSuspended(uint64_t Now, uint64_t &Cycles,
                                  StealOrder Order, uint64_t *ArrivalOut) {
  if (SuspQ.empty()) {
    Cycles += cost::StealProbe;
    return InvalidTask;
  }
  Cycles += SuspLock.acquire(Now, cost::QueueLockHold) + cost::StealBase;
  std::pair<TaskId, uint64_t> E;
  if (Order == StealOrder::Lifo) {
    E = SuspQ.back();
    SuspQ.pop_back();
  } else {
    E = SuspQ.front();
    SuspQ.pop_front();
  }
  tally(0, 1);
  if (ArrivalOut)
    *ArrivalOut = E.second;
  return E.first;
}

std::vector<std::pair<TaskId, uint64_t>> TaskQueues::drainSuspendedArrivals() {
  std::vector<std::pair<TaskId, uint64_t>> Out(SuspQ.begin(), SuspQ.end());
  SuspQ.clear();
  tally(0, Out.size());
  return Out;
}
