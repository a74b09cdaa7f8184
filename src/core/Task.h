//===----------------------------------------------------------------------===//
///
/// \file
/// Tasks: the lightweight threads of Mul-T.
///
/// A task owns a growable value stack (checked for overflow at every
/// procedure entry, as the paper requires under Unix), a C++-side frame
/// stack, VM registers, the deep-binding chain of its process-specific
/// variables, and the future it will resolve when it finishes. The paper's
/// future components (section 2.2) map as: "a stack" -> Task::Stack,
/// "a slot for the eventual value" -> the Future heap object,
/// "process specific variables" -> Task::DynEnv, "a queue of waiters" ->
/// the Future's waiter list.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_TASK_H
#define MULT_CORE_TASK_H

#include "compiler/Bytecode.h"
#include "runtime/Value.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace mult {

/// Task ids carry a generation in the high 32 bits so registry slots can be
/// recycled without stale references (e.g. in a group's member list)
/// resolving to the wrong task.
using TaskId = uint64_t;
using GroupId = uint32_t;
inline constexpr TaskId InvalidTask = ~TaskId(0);
inline constexpr GroupId InvalidGroup = ~GroupId(0);

inline uint32_t taskIndex(TaskId Id) { return static_cast<uint32_t>(Id); }
inline uint32_t taskGeneration(TaskId Id) {
  return static_cast<uint32_t>(Id >> 32);
}
inline TaskId makeTaskId(uint32_t Index, uint32_t Gen) {
  return (static_cast<uint64_t>(Gen) << 32) | Index;
}

enum class TaskState : uint8_t {
  Ready,            ///< On some queue, runnable.
  Running,          ///< Current on some processor.
  BlockedFuture,    ///< Waiting for a future to resolve.
  BlockedSemaphore, ///< Waiting in a semaphore's queue.
  Stopped,          ///< Suspended by a group stop (exception).
  Done,             ///< Finished; recyclable.
};

/// One call frame. Stores the *caller's* resume state; the running
/// function's own base is Frames.back().Base.
struct Frame {
  const Code *CallerCode = nullptr;
  uint32_t RetPc = 0;
  uint32_t Base = 0; ///< Stack index of the callee closure (args follow).

  // Lazy-future seam bookkeeping (paper section 3, "lazy futures").
  bool IsSeam = false;
  bool SeamStolen = false;
  uint64_t SeamSerial = 0;         ///< Matches the engine's seam registry.
  Value SeamFuture = Value::nil(); ///< Created when the seam is stolen.
};

/// An entry in the engine's oldest-first seam registry. Entries become
/// stale when the seam returns normally or its task dies; the serial
/// number detects that lazily.
struct SeamRef {
  TaskId Task = InvalidTask;
  uint32_t FrameIdx = 0;
  uint64_t Serial = 0;
};

/// A task's operand stack. Outside the interpreter it is used like a
/// `std::vector<Value>`. For the length of a slice the interpreter holds
/// the top in a local instead (vm/Interpreter.cpp): lend() hands it out,
/// takeBack() returns it, and makeRoom() grows the storage ahead of a
/// frame, so a push inside the frame is one store and one increment. Debug
/// builds assert that nothing else sizes, reads or pushes the stack while
/// it is lent.
class OperandStack {
public:
  size_t size() const {
    assertNotLent();
    return Size;
  }
  bool empty() const { return size() == 0; }
  Value &operator[](size_t I) {
    assert(I < size() && "operand stack index out of range");
    return Buf.get()[I];
  }
  const Value &operator[](size_t I) const {
    assert(I < size() && "operand stack index out of range");
    return Buf.get()[I];
  }
  Value &back() { return (*this)[size() - 1]; }
  Value *begin() { return Buf.get(); }
  Value *end() { return Buf.get() + size(); }

  void push_back(Value V) {
    if (size() == Cap)
      grow(Size + 1, Size);
    Buf.get()[Size++] = V;
  }
  void pop_back() {
    assert(size() > 0 && "pop of an empty operand stack");
    --Size;
  }
  void resize(size_t N) {
    if (N > size()) {
      if (N > Cap)
        grow(N, Size);
      std::fill(Buf.get() + Size, Buf.get() + N, Value());
    }
    Size = N;
  }
  void clear() { resize(0); }
  void assign(const Value *First, const Value *Last) {
    clear();
    size_t N = static_cast<size_t>(Last - First);
    if (N > Cap)
      grow(N, 0);
    std::copy(First, Last, Buf.get());
    Size = N;
  }

  /// \name The interpreter's half
  /// @{
  /// Lends the top to the interpreter: one past the top value.
  Value *lend() {
#ifndef NDEBUG
    assert(!Lent && "operand stack lent twice");
    Lent = true;
#endif
    return Buf.get() + Size;
  }
  /// Takes the top back from the interpreter.
  void takeBack(Value *Top) {
#ifndef NDEBUG
    assert(Lent && "operand stack taken back but not lent");
    Lent = false;
#endif
    Size = static_cast<size_t>(Top - Buf.get());
    assert(Size <= Cap && "operand stack top past its storage");
  }
  Value *bottom() { return Buf.get(); }
  /// The end of the storage: the lent top may not pass it.
  Value *limit() { return Buf.get() + Cap; }
  /// Grows the storage to at least \p Words values while lent, keeping
  /// those below \p Top; returns \p Top in the (possibly moved) storage.
  Value *makeRoom(Value *Top, size_t Words) {
    if (Words <= Cap)
      return Top;
    size_t Depth = static_cast<size_t>(Top - Buf.get());
    grow(Words, Depth);
    return Buf.get() + Depth;
  }
  /// @}

private:
  void assertNotLent() const {
#ifndef NDEBUG
    assert(!Lent && "operand stack used while the interpreter holds it");
#endif
  }
  /// Grows the storage to at least \p Words values, doubling, and keeps
  /// the first \p Live.
  void grow(size_t Words, size_t Live);

  struct FreeStorage {
    void operator()(Value *P) const { ::operator delete(P); }
  };
  /// Values [0, Size) are live and [Size, Cap) dead. The storage is left
  /// unwritten when it grows, like a vector's spare capacity, so pages
  /// past the deepest push are never committed.
  std::unique_ptr<Value, FreeStorage> Buf;
  size_t Size = 0;
  size_t Cap = 0;
#ifndef NDEBUG
  bool Lent = false;
#endif
};

/// A Mul-T task.
class Task {
public:
  TaskId Id = InvalidTask;
  GroupId Group = InvalidGroup;
  TaskState State = TaskState::Done;
  unsigned LastProc = 0; ///< Processor it last ran on (locality).

  OperandStack Stack;
  std::vector<Frame> Frames;
  const Code *CurCode = nullptr;
  uint32_t Pc = 0;

  /// Debug builds overwrite Pc while the interpreter holds it in a local,
  /// so a read that misses a sync point shows.
  void poisonPc() {
#ifndef NDEBUG
    Pc = PoisonedPc;
#endif
  }
  static constexpr uint32_t PoisonedPc = 0xDEADBEEF;

  Value BlockedOn = Value::nil();    ///< Future or semaphore object.
  Value DynEnv = Value::nil();       ///< Deep-binding chain.
  Value ResultFuture = Value::nil(); ///< Resolved when the task finishes.

  /// Deferred completion of a blocking/erring instruction: on next
  /// schedule, pop WakePop slots, push WakeValue, advance Pc.
  bool HasWakeAction = false;
  uint32_t WakePop = 0;
  Value WakeValue = Value::nil();

  /// When State == Stopped: the condition and how to resume (see
  /// Engine::resumeGroup).
  std::string StopCondition;
  uint32_t StopPop = 0;
  /// Stopped *before* the faulting instruction executed: resume re-runs
  /// the instruction instead of performing a wake action.
  bool StopRestartable = false;

  /// Number of unstolen lazy-future seams on this task's frame stack.
  uint32_t UnstolenSeams = 0;

  /// Index of the lowest frame that still belongs to this task. Advances
  /// when a seam below is stolen: the frames beneath were packaged into
  /// the thief's parent-continuation task and must never be copied again.
  uint32_t BaseFrame = 0;

  /// Spawn lineage: the closure this task was spawned with (its code and
  /// captured arguments), kept so a task lost to a fail-stopped processor
  /// can be re-executed from scratch on a survivor. Nil for tasks that
  /// were not born from a closure (seam-split parent continuations own a
  /// mid-flight stack segment that cannot be reconstructed).
  Value SpawnClosure = Value::nil();

  /// The deep-binding chain inherited at spawn time; a lineage re-spawn
  /// restarts with this, not the mid-flight DynEnv.
  Value SpawnDynEnv = Value::nil();

  /// Observed side effects that make re-execution unsafe (see DESIGN.md,
  /// "Processor fail-stop and recovery").
  uint32_t SemaphoresHeld = 0; ///< semaphore-p acquisitions not yet V'd
  bool DidIo = false;          ///< wrote to the output stream

  /// True while this task is re-executing lost work after a proc-kill
  /// (lineage re-spawn or checkpoint restore); its busy cycles are
  /// charged to EngineStats::RecoveryCycles, up to RecoveryBudget.
  bool Recovered = false;

  /// Side-effect epoch: bumped at every externally observable effect
  /// (semaphore P-acquire, V-release, V-handoff receipt, console I/O,
  /// a seam steal from this task's stack). A checkpoint record is
  /// restorable only while the task's epoch still equals the epoch it
  /// recorded at capture — restoring across an effect would replay it.
  uint32_t SideEffectEpoch = 0;

  /// Busy cycles executed since the newest checkpoint capture (or since
  /// spawn). Drives the CheckpointEvery capture policy and sizes the
  /// re-execution budget of a restore.
  uint64_t SinceCheckpoint = 0;

  /// Lifetime busy cycles of this activation; what a byzantine
  /// cross-check charges its checker for re-executing the task.
  uint64_t BusyCyclesTotal = 0;

  /// Re-execution budget of a recovered task: busy cycles still
  /// chargeable to EngineStats::RecoveryCycles before the task is
  /// considered caught up. ~0 for lineage re-spawns (the whole re-run is
  /// re-executed work); finite for checkpoint restores (only the
  /// capture-to-kill delta was lost).
  uint64_t RecoveryBudget = ~uint64_t(0);

  /// Recovery cycles charged for this task's current recovery episode.
  uint64_t RecoveryCharged = 0;

  /// \name Always-on telemetry stamps (src/obs/Telemetry.h)
  ///
  /// Written on the hot paths at zero virtual cost; read when the
  /// matching latency sample completes (task finish, future resolve,
  /// semaphore V). Per-processor clocks are not totally ordered, so
  /// consumers subtract with saturation.
  /// @{
  uint64_t CreateClock = 0; ///< virtual clock at newTask (lifetime base)
  uint64_t BlockClock = 0;  ///< virtual clock at the last block
  /// Future site (Tracer::futureSiteId) of the future this task last
  /// blocked on; ~0 when unknown (root futures, recycled creators).
  uint32_t BlockSite = ~uint32_t(0);
  /// Future site that spawned this task; ~0 for roots and server tasks.
  uint32_t FutureSite = ~uint32_t(0);
  /// @}

  /// Prepares this (possibly recycled) task to run \p Closure as a fresh
  /// nullary activation.
  void initForThunk(TaskId NewId, GroupId G, Value Closure, Value Result,
                    Value InheritedDynEnv, unsigned Proc);

  /// Clears heap references so a Done task pins no garbage.
  void clearForRecycle();

  /// The closure currently executing.
  Value currentClosure() const { return Stack[Frames.back().Base]; }

  bool runnable() const { return State == TaskState::Ready; }
};

/// A resumable snapshot of a task, captured at a quantum boundary when
/// the checkpoint policy (EngineConfig::CheckpointEvery) is armed and the
/// task owns its whole stack (no live seams, BaseFrame == 0). Owned by
/// the task's group (newest capture only) and scanned as a GC root so
/// the snapshot's values survive collections. See DESIGN.md,
/// "Checkpointed recovery".
struct CheckpointRecord {
  std::vector<Value> Stack;
  std::vector<Frame> Frames;
  const Code *CurCode = nullptr;
  uint32_t Pc = 0;
  Value DynEnv = Value::nil();
  uint32_t SemaphoresHeld = 0; ///< holdings baked into the snapshot
  bool DidIo = false;
  uint32_t Epoch = 0;        ///< Task::SideEffectEpoch at capture
  uint64_t CaptureClock = 0; ///< capturing processor's virtual clock
};

} // namespace mult

#endif // MULT_CORE_TASK_H
