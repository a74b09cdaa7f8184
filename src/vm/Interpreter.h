//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode interpreter of the Mul-T abstract machine.
///
/// One call runs one task on one virtual processor for (up to) one
/// timeslice: one quantum, or more where the run loop would only resume
/// the task between them (Machine::continueSlice). Every instruction is
/// restartable: blocking (unresolved future, semaphore), allocation
/// failure (GC) and exceptions all leave the task's Pc at the
/// instruction, which either re-executes on wake or is completed by a
/// wake action / resume value.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_VM_INTERPRETER_H
#define MULT_VM_INTERPRETER_H

#include "core/Task.h"

#include <cstdint>

namespace mult {

class Engine;
struct Processor;

/// Why interpretTask returned.
enum class StepOutcome : uint8_t {
  TimeSlice,    ///< Quantum expired; task still running.
  Blocked,      ///< Task blocked on a future or semaphore.
  TaskDone,     ///< Task finished (result future resolved).
  NeedsGc,      ///< Allocation failed; collect and re-run the instruction.
  GroupStopped, ///< The task raised; its group is now stopped.
};

/// Runs \p T on \p P until \p TargetClock or a state change. A boundary
/// below \p Horizon opens the next quantum in place when
/// Machine::continueSlice allows it (0 = stop at the first boundary).
StepOutcome interpretTask(Engine &E, Processor &P, Task &T,
                          uint64_t TargetClock, uint64_t Horizon);

} // namespace mult

#endif // MULT_VM_INTERPRETER_H
