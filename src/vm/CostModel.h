//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual-time cost model, in abstract NS32332 instructions.
///
/// Calibration anchors from the paper:
///  - a call to and return from `(lambda () 0)` costs 8 instructions;
///  - an implicit touch is 2 (tbit + beq);
///  - the stack-overflow check at procedure entry is 2 (compare + branch);
///  - the six steps of `(touch (future 0))` cost 15 / 41 / 33 / 37 /
///    26+14w / 30 = ~196 total (Table 1), ~119 when nothing blocks.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_VM_COSTMODEL_H
#define MULT_VM_COSTMODEL_H

#include "compiler/Bytecode.h"

#include <array>
#include <cstdint>

namespace mult {
namespace cost {

// Straight-line ops. Call(4) includes the entry stack-overflow check (2);
// Call + PushFixnum + Return = 4 + 1 + 3 = 8, the paper's trivial call.
inline constexpr uint64_t Push = 1;
inline constexpr uint64_t LocalLoad = 1;
inline constexpr uint64_t FreeLoad = 1;
inline constexpr uint64_t Pop = 1;
inline constexpr uint64_t BoxRef = 1;
inline constexpr uint64_t BoxSet = 2;
inline constexpr uint64_t MakeBoxBase = 2; ///< plus allocation
inline constexpr uint64_t GlobalRef = 2;
inline constexpr uint64_t GlobalSet = 2;
inline constexpr uint64_t Jump = 1;
inline constexpr uint64_t JumpIfFalse = 2;
inline constexpr uint64_t ClosureBase = 3; ///< plus 1/free plus allocation
inline constexpr uint64_t Call = 4;
inline constexpr uint64_t TailCall = 5;
inline constexpr uint64_t Return = 3;
inline constexpr uint64_t Arith = 1;
inline constexpr uint64_t Compare = 1;
inline constexpr uint64_t CarCdr = 1;
inline constexpr uint64_t SetCarCdr = 2;
inline constexpr uint64_t ConsBase = 2; ///< plus allocation
inline constexpr uint64_t Predicate = 1;
inline constexpr uint64_t VectorRef = 3;
inline constexpr uint64_t VectorSet = 3;
inline constexpr uint64_t VectorLen = 2;

/// The famous two instructions: tbit $0,r ; beq.
inline constexpr uint64_t Touch = 2;
/// Chasing a resolved future to its value.
inline constexpr uint64_t TouchChase = 3;

// Future machinery (Table 1 calibration).
/// Step 1 = Closure(3, no frees) + this = 15.
inline constexpr uint64_t FutureEntry = 12;
/// Step 2 = this + future alloc (~4) + task-stack setup (3) +
/// enqueue lock (~6) = ~41.
inline constexpr uint64_t FutureCreateBase = 28;
inline constexpr uint64_t TaskStackSetup = 3;
/// Inlined future: decide + call through (cheap; that is the point).
inline constexpr uint64_t FutureInline = 4;
/// Lazy future: inline + push the seam record.
inline constexpr uint64_t LazySeamPush = 6;

/// Step 3 = touch(2 charged separately) + this + waiter cons alloc (~4) = 33.
inline constexpr uint64_t BlockBase = 27;
/// Step 4 = this + queue lock (~6) = 37.
inline constexpr uint64_t DispatchNewBase = 31;
/// Step 5 = this + lock (~6) = 26, plus 14 per waiter woken.
inline constexpr uint64_t ResolveBase = 20;
inline constexpr uint64_t ResolveWaiter = 14;
/// Step 6 = this + lock (~6) = 30.
inline constexpr uint64_t DispatchSuspBase = 24;

// Scheduling.
//
// Empty-probe cost model (shared by owner and thief paths): a queue's
// count field is a single word, so *emptiness* is tested with one lock-free
// read-and-branch costing QueueEmptyCheck cycles — the queue lock is only
// acquired once the count is known nonzero (TaskQueues::pop*, steal*).
// A thief's probe of a remote queue pays the same check plus one extra
// cycle for the remote (cross-bus) reference, giving StealProbe =
// QueueEmptyCheck + 1. Neither path models a lock acquisition for an
// empty probe; on the Multimax's snoopy bus a read of a shared word is
// exactly one (possibly remote) reference.
//
// The run loop relies on this: an empty probe changes no state and
// always costs the same, so a parked idle processor's fruitless sweeps are
// charged in closed form (Machine::run, "Idle parking" in DESIGN.md).
// Giving empty probes state or a variable cost breaks that closed form.
inline constexpr uint64_t QueueLockHold = 4;
inline constexpr uint64_t StealBase = 12;
/// Lock-free emptiness check of one's own queue: load count + branch.
inline constexpr uint64_t QueueEmptyCheck = 2;
/// Checking one victim queue for emptiness: the same lock-free check plus
/// one remote bus reference.
inline constexpr uint64_t StealProbe = QueueEmptyCheck + 1;
inline constexpr uint64_t SeamStealBase = 24; ///< plus 1 per 4 copied words
inline constexpr uint64_t IdleTick = 8;
/// Closing one adaptive-threshold window (sched/Adaptive.h). Charged as
/// zero: the counters are ones the simulated hardware already maintains
/// and the decision is a handful of ALU ops amortized over thousands of
/// cycles, riding a scheduler boundary the machine already pays for.
/// Keeping it free also keeps an adaptive run whose controller never
/// moves T cycle-identical to the matching static run, which is what the
/// bench_inlining_threshold ablation isolates.
inline constexpr uint64_t AdaptiveWindow = 0;
inline constexpr uint64_t TaskFinish = 6;

// Checkpointed recovery and byzantine cross-checks (src/fault, PR 8).
/// Capturing one checkpoint record: snapshot header + VM registers; the
/// stack/frame copy is charged on top at 1 cycle per 4 copied words
/// (same memcpy bandwidth convention as SeamStealBase).
inline constexpr uint64_t CheckpointBase = 32;
/// Dispatching one cross-check re-execution to another processor: pick a
/// checker, hand over the spawn closure, compare the results. The
/// re-execution itself is charged as the checked task's own busy total.
inline constexpr uint64_t CrossCheckBase = 48;

// Group/exception machinery.
inline constexpr uint64_t GroupStop = 60;  ///< handler server task runs
inline constexpr uint64_t TerminalLockHold = 20;

inline constexpr uint64_t CallPrimBase = 4;

} // namespace cost

/// Cost of one straight-line instruction, computed by enumeration. This is
/// the authoritative definition; it exists alongside OpBaseCostTable so a
/// unit test can verify the two agree for every opcode.
constexpr uint64_t opBaseCostComputed(Op O) {
  switch (O) {
  case Op::Const:
  case Op::PushFixnum:
  case Op::PushNil:
  case Op::PushTrue:
  case Op::PushFalse:
  case Op::PushUnspecified:
    return cost::Push;
  case Op::Local:
  case Op::SetLocal:
    return cost::LocalLoad;
  case Op::Slide:
    return 1;
  case Op::PrimApplyVar:
    return cost::CallPrimBase;
  case Op::Free:
    return cost::FreeLoad;
  case Op::Pop:
    return cost::Pop;
  case Op::MakeBox:
    return cost::MakeBoxBase;
  case Op::BoxRef:
    return cost::BoxRef;
  case Op::BoxSet:
    return cost::BoxSet;
  case Op::GlobalRef:
    return cost::GlobalRef;
  case Op::GlobalSet:
  case Op::GlobalDefine:
    return cost::GlobalSet;
  case Op::Closure:
    return cost::ClosureBase;
  case Op::Jump:
    return cost::Jump;
  case Op::JumpIfFalse:
    return cost::JumpIfFalse;
  case Op::Call:
    return cost::Call;
  case Op::TailCall:
    return cost::TailCall;
  case Op::Return:
    return cost::Return;
  case Op::TouchStack:
  case Op::TouchLocal:
  case Op::TouchBack:
    return cost::Touch;
  case Op::FutureOp:
    return cost::FutureEntry;
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Quotient:
  case Op::Remainder:
    return cost::Arith;
  case Op::NumLt:
  case Op::NumLe:
  case Op::NumGt:
  case Op::NumGe:
  case Op::NumEq:
  case Op::Eq:
    return cost::Compare;
  case Op::Cons:
    return cost::ConsBase;
  case Op::Car:
  case Op::Cdr:
    return cost::CarCdr;
  case Op::SetCar:
  case Op::SetCdr:
    return cost::SetCarCdr;
  case Op::NullP:
  case Op::PairP:
  case Op::Not:
    return cost::Predicate;
  case Op::VectorRef:
    return cost::VectorRef;
  case Op::VectorSet:
    return cost::VectorSet;
  case Op::VectorLength:
    return cost::VectorLen;
  case Op::CallPrim:
    return cost::CallPrimBase;
  }
  return 1;
}

/// Static per-opcode base-cost table. Both the switch interpreter's hot loop
/// and the threaded-code pre-decoder index this instead of calling a
/// function per instruction.
inline constexpr std::array<uint64_t, NumOpcodes> OpBaseCostTable = [] {
  std::array<uint64_t, NumOpcodes> T{};
  for (size_t I = 0; I < NumOpcodes; ++I)
    T[I] = opBaseCostComputed(static_cast<Op>(I));
  return T;
}();

/// Cost of one straight-line instruction (allocation and blocking costs
/// are charged separately by the interpreter). Table lookup, no call.
inline constexpr uint64_t opBaseCost(Op O) {
  return OpBaseCostTable[static_cast<size_t>(O)];
}

} // namespace mult

#endif // MULT_VM_COSTMODEL_H
