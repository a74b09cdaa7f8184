//===----------------------------------------------------------------------===//
///
/// \file
/// Per-processor task queues (paper section 2.1.3).
///
/// Each processor owns two queues: the *new task queue* (freshly created
/// tasks) and the *suspended task queue* (tasks made runnable again after
/// blocking). New tasks go on the creating processor's new queue; woken
/// tasks go on the suspended queue of the processor they last ran on, to
/// reduce turbulence in the Multimax's snoopy caches. Selection within a
/// queue is last-in-first-out, as the paper states; steals can be
/// configured LIFO (the paper's "first cut") or FIFO (classic
/// work-stealing) for the ablation bench.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_SCHED_TASKQUEUES_H
#define MULT_SCHED_TASKQUEUES_H

#include "core/Task.h"
#include "support/VirtualLock.h"

#include <deque>
#include <utility>
#include <vector>

namespace mult {

/// Which end thieves take from.
enum class StealOrder : uint8_t { Lifo, Fifo };

/// The two queues of one processor. Locking is modelled in virtual time;
/// every operation returns the cycles to charge.
class TaskQueues {
public:
  /// \name Owner operations (LIFO)
  ///
  /// Both queues remember each entry's arrival clock. Arrivals cost no
  /// virtual time (a pair is pushed instead of a bare id) and feed two
  /// zero-cost consumers: fail-stop recovery's backlog-vs-wake split
  /// (drainSuspendedArrivals) and the steal-latency telemetry histogram
  /// (\p ArrivalOut on the pop/steal operations; null when the caller
  /// does not care).
  /// @{
  uint64_t pushNew(TaskId T, uint64_t Now);
  uint64_t pushSuspended(TaskId T, uint64_t Now);
  /// Pops the newest entry; InvalidTask when empty.
  TaskId popNew(uint64_t Now, uint64_t &Cycles,
                uint64_t *ArrivalOut = nullptr);
  TaskId popSuspended(uint64_t Now, uint64_t &Cycles,
                      uint64_t *ArrivalOut = nullptr);
  /// @}

  /// \name Thief operations
  /// @{
  TaskId stealNew(uint64_t Now, uint64_t &Cycles, StealOrder Order,
                  uint64_t *ArrivalOut = nullptr);
  TaskId stealSuspended(uint64_t Now, uint64_t &Cycles, StealOrder Order,
                        uint64_t *ArrivalOut = nullptr);
  /// @}

  /// Empties the suspended queue, oldest first, returning each task with
  /// the virtual clock at which it was enqueued. Costs no virtual time:
  /// used only by fail-stop recovery, which needs the arrival clocks to
  /// tell genuine lost backlog from wakes that landed here after the
  /// processor's doom mark (see Recovery::recoverProcessor).
  std::vector<std::pair<TaskId, uint64_t>> drainSuspendedArrivals();

  /// Points these queues at a machine-wide count of queued entries, which
  /// every push, pop, steal and drain keeps exact (null: untallied, as
  /// for a stand-alone queue pair).
  void setQueuedTally(size_t *Tally) { Queued = Tally; }

  size_t newCount() const { return NewQ.size(); }
  size_t suspendedCount() const { return SuspQ.size(); }
  /// Queue depth the inlining threshold compares against (paper
  /// section 3: "the number of tasks on that processor's queues").
  size_t depth() const { return NewQ.size() + SuspQ.size(); }

  /// \name Depth high-water marks
  ///
  /// Two independent sets of marks over the same queues: the *run-wide*
  /// marks feed the metrics report and reset only with the engine's
  /// statistics (resetHighWater, called from Engine::resetStats), while
  /// the *window* marks feed the adaptive threshold controller and reset
  /// every adaptation window (resetWindowHighWater). Both reset to the
  /// queues' current sizes, not zero — tasks already queued are still
  /// "high water" for the next interval. resetHighWater also resets the
  /// window marks so a stats reset starts both views from the same state.
  /// @{
  size_t newHighWater() const { return NewHighWater; }
  size_t suspendedHighWater() const { return SuspHighWater; }
  /// Max of depth() (new + suspended) within the current window.
  size_t windowHighWater() const { return WindowHighWater; }
  /// Tasks ever pushed on the new queue (monotonic; window deltas are
  /// taken by the adaptive controller).
  uint64_t newPushes() const { return NewPushes; }
  void resetHighWater() {
    NewHighWater = NewQ.size();
    SuspHighWater = SuspQ.size();
    WindowHighWater = depth();
  }
  void resetWindowHighWater() { WindowHighWater = depth(); }
  /// @}

private:
  void tally(size_t Added, size_t Removed) {
    if (Queued)
      *Queued = *Queued + Added - Removed;
  }
  void noteDepth() {
    size_t D = depth();
    if (D > WindowHighWater)
      WindowHighWater = D;
  }

  /// Both queues: (task, arrival clock); the clocks cost nothing on the
  /// scheduling paths (see the owner-operations comment).
  std::deque<std::pair<TaskId, uint64_t>> NewQ;
  std::deque<std::pair<TaskId, uint64_t>> SuspQ;
  VirtualLock NewLock;
  VirtualLock SuspLock;
  size_t NewHighWater = 0;
  size_t SuspHighWater = 0;
  size_t WindowHighWater = 0;
  uint64_t NewPushes = 0;
  size_t *Queued = nullptr;
};

} // namespace mult

#endif // MULT_SCHED_TASKQUEUES_H
