//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter implementation: direct-threaded dispatch over the
/// pre-decoded DInsn stream (vm/Threaded.h) — computed goto, pre-folded
/// base costs, global/call inline caches, fused superinstructions. The
/// handler bodies live in InterpBody.inc.
///
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "core/Engine.h"
#include "core/FutureOps.h"
#include "core/LazyFutures.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Primitives.h"
#include "vm/Threaded.h"

#include <cassert>

using namespace mult;

namespace {

/// True for fixnum or flonum.
bool isNumber(Value V) {
  return V.isFixnum() ||
         (V.isObject() && V.asObject()->tag() == TypeTag::Flonum);
}

double numAsDouble(Value V) {
  return V.isFixnum() ? static_cast<double>(V.asFixnum())
                      : V.asObject()->flonumValue();
}

bool isPairV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Pair;
}
bool isVectorV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Vector;
}
bool isClosureV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Closure;
}

/// The label table is written against this exact opcode count; adding an
/// opcode must extend both the table and the body include.
static_assert(NumOpcodes == 51, "update the threaded handler table");
static_assert(NumFusedOps == 29, "update the fused handler table");

/// The threaded interpreter proper. Doubles as the label exporter: when
/// \p LabelsOut is non-null the function only publishes its handler table
/// (computed-goto labels are addressable solely from inside the function
/// that declares them) and returns without touching the other arguments.
///
/// Cross-jumping and GCSE are disabled for this one function: the point
/// of replicating `goto *handler` at the end of every handler is one
/// branch-predictor entry per dispatch site, and those passes would merge
/// the replicas back into a single indirect jump (one BTB entry for every
/// opcode transition — a misprediction storm).
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-gcse", "no-crossjumping")))
#endif
StepOutcome interpretThreaded(Engine *EP, Processor *PP, Task *TP,
                              uint64_t TargetClock,
                              const ThreadedLabels **LabelsOut) {
  // Handler addresses, indexed by Op (order must match the enum) and by
  // FusedOp. Fused[None] stays null.
  static const ThreadedLabels Labels = {
      {{
          &&L_Const,        &&L_PushFixnum,  &&L_PushNil,
          &&L_PushTrue,     &&L_PushFalse,   &&L_PushUnspecified,
          &&L_Local,        &&L_SetLocal,    &&L_Slide,
          &&L_Free,         &&L_Pop,         &&L_MakeBox,
          &&L_BoxRef,       &&L_BoxSet,      &&L_GlobalRef,
          &&L_GlobalSet,    &&L_GlobalDefine, &&L_Closure,
          &&L_Jump,         &&L_JumpIfFalse, &&L_Call,
          &&L_TailCall,     &&L_Return,      &&L_TouchStack,
          &&L_TouchLocal,   &&L_TouchBack,   &&L_FutureOp,
          &&L_Add,          &&L_Sub,         &&L_Mul,
          &&L_Quotient,     &&L_Remainder,   &&L_NumLt,
          &&L_NumLe,        &&L_NumGt,       &&L_NumGe,
          &&L_NumEq,        &&L_Eq,          &&L_Cons,
          &&L_Car,          &&L_Cdr,         &&L_SetCar,
          &&L_SetCdr,       &&L_NullP,       &&L_PairP,
          &&L_Not,          &&L_VectorRef,   &&L_VectorSet,
          &&L_VectorLength, &&L_CallPrim,    &&L_PrimApplyVar,
      }},
      {{
          nullptr, // FusedOp::None
          &&L_F_Const_CallPrim,
          &&L_F_Local_Local,
          &&L_F_Local_PushFixnum,
          &&L_F_Local_TouchStack,
          &&L_F_Local_Return,
          &&L_F_Local_Call,
          &&L_F_Local_CallPrim,
          &&L_F_Local_Free,
          &&L_F_PushFixnum_Return,
          &&L_F_PushFixnum_Local,
          &&L_F_Free_BoxRef,
          &&L_F_TouchBack_Add,
          &&L_F_TouchBack_Call,
          &&L_F_TouchBack_TouchStack,
          &&L_F_TouchStack_Call,
          &&L_F_TouchStack_TouchStack,
          &&L_F_TouchStack_Add,
          &&L_F_Add_Return,
          &&L_F_PushFixnum_Add,
          &&L_F_PushFixnum_Sub,
          &&L_F_PushFixnum_NumEq,
          &&L_F_Local_Sub,
          &&L_F_Local_Mul,
          &&L_F_NumLt_JumpIfFalse,
          &&L_F_NumGt_JumpIfFalse,
          &&L_F_NumEq_JumpIfFalse,
          &&L_F_Eq_JumpIfFalse,
          &&L_F_NullP_JumpIfFalse,
      }},
  };
  if (LabelsOut) {
    *LabelsOut = &Labels;
    return StepOutcome::TimeSlice;
  }

  Engine &E = *EP;
  Processor &P = *PP;
  Task &T = *TP;
  EngineStats &S = E.stats();
  std::vector<Value> &Stack = T.Stack;

  // Raise an exception: stop the whole group (paper section 2.3).
  auto Raise = [&](std::string Msg, uint32_t PopCount) -> StepOutcome {
    E.stopGroup(P, T, std::move(Msg), PopCount);
    return StepOutcome::GroupStopped;
  };

  // A touch of a future whose owning group was killed can never resolve;
  // stop the toucher's group (restartable: resume re-raises, kill kills)
  // instead of silently deadlocking. True if the group was stopped.
  auto KilledOwnerStop = [&](Object *Fut) -> bool {
    if (!Fut->slot(Object::FutGroupId).isFixnum())
      return false;
    auto OwnerGid =
        static_cast<GroupId>(Fut->slot(Object::FutGroupId).asFixnum());
    Group *Owner = E.findGroup(OwnerGid);
    if (!Owner || Owner->State != GroupState::Killed)
      return false;
    E.stopGroupRestartable(
        P, T, strFormat("touch of a future belonging to killed group %u",
                        OwnerGid));
    return true;
  };

  // Touch the value at \p Slot in place. Returns Ok(0), Blocked(1),
  // NeedsGc(2) or GroupStopped(3).
  auto TouchSlot = [&](Value &Slot) -> int {
    ++S.TouchesExecuted;
    if (E.faults().armed() && E.faults().shouldErrorTouch()) {
      E.noteFault(P, FaultKind::TouchError);
      E.stopGroupRestartable(P, T, "injected-fault: touch error");
      return 3;
    }
    if (!Slot.isFuture())
      return 0;
    Object *Touched = Slot.pointee();
    Value Out;
    Object *Unresolved = nullptr;
    uint64_t Chase = 0;
    if (futureops::chase(Slot, Out, Unresolved, Chase)) {
      P.charge(Chase);
      Slot = Out;
      if (E.tracer().enabled()) {
        // resolveFuture stamps a negative resolve serial into FutTaskId;
        // echo it so the profiler gets the resolver->toucher edge. A
        // non-negative slot means the future resolved while tracing was
        // off (serial 0 = unknown).
        int64_t Stamp = Touched->slot(Object::FutTaskId).isFixnum()
                            ? Touched->slot(Object::FutTaskId).asFixnum()
                            : 0;
        E.tracer().record(TraceEventKind::TouchHit, P.Id, P.Clock, T.Id, 0,
                          Stamp < 0 ? static_cast<uint64_t>(-Stamp) : 0);
      }
      return 0;
    }
    P.charge(Chase);
    if (KilledOwnerStop(Unresolved))
      return 3;
    if (E.tracer().enabled())
      E.tracer().record(TraceEventKind::TouchBlock, P.Id, P.Clock, T.Id);
    if (!futureops::blockOnFuture(E, P, T, Unresolved))
      return 2;
    return 1;
  };

  DecodedCode *DC = T.CurCode->Decoded;
  if (!DC)
    DC = E.ensureDecoded(T.CurCode);
  DInsn *DI = nullptr;
  uint32_t Base = T.Frames.back().Base;

#include "vm/InterpBody.inc"

  __builtin_unreachable();
}

} // namespace

const ThreadedLabels &mult::threadedLabels() {
  static const ThreadedLabels *L = [] {
    const ThreadedLabels *Out = nullptr;
    interpretThreaded(nullptr, nullptr, nullptr, 0, &Out);
    return Out;
  }();
  return *L;
}

StepOutcome mult::interpretTask(Engine &E, Processor &P, Task &T,
                                uint64_t TargetClock) {
  // Complete a deferred blocking/erring instruction (semaphore wake,
  // breakloop resume).
  if (T.HasWakeAction) {
    assert(T.Stack.size() >= T.WakePop && "wake action pops too much");
    T.Stack.resize(T.Stack.size() - T.WakePop);
    T.Stack.push_back(T.WakeValue);
    ++T.Pc;
    T.HasWakeAction = false;
    T.WakeValue = Value::nil();
  }

  return interpretThreaded(&E, &P, &T, TargetClock, nullptr);
}
