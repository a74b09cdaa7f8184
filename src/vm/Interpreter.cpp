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
                              uint64_t TargetClock, uint64_t Horizon,
                              const ThreadedLabels **LabelsOut) {
  // Handler addresses, indexed by Op and by FusedOp, generated from the
  // opcode and superinstruction tables (compiler/Bytecode.h).
  // Fused[None] stays null.
  static const ThreadedLabels Labels = {
      {{
#define X(NAME, ...) &&L_##NAME,
          MULT_OPCODES(X)
#undef X
      }},
      {{
          nullptr, // FusedOp::None
#define X(NAME, ...) &&L_F_##NAME,
          MULT_FUSED_OPS(X)
#undef X
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

  // VM_TOUCH's out-of-line rest, entered synced: the fault check (ahead
  // of the future test, so touch-error ordinals count every touch
  // instruction), then chase, tracing and blocking.
  auto TouchSlow = [&](Value &Slot) __attribute__((noinline)) -> int {
    if (E.faults().armed() && E.faults().hit(FaultClause::TouchErrorAt)) {
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

  // The dispatcher's registers (InterpBody.inc loads them at entry). No
  // lambda above names them: a capture by reference would put them back
  // in memory.
  uint64_t Clk = 0;
  DInsn *IP = nullptr;
  uint64_t Insns = 0;
  Value *SP = nullptr;
  Value *FP = nullptr;
  [[maybe_unused]] Value *Limit = nullptr;
  DecodedCode *DC = nullptr;
  uint32_t Base = 0;

#include "vm/InterpBody.inc"

  __builtin_unreachable();
}

} // namespace

const ThreadedLabels &mult::threadedLabels() {
  static const ThreadedLabels *L = [] {
    const ThreadedLabels *Out = nullptr;
    interpretThreaded(nullptr, nullptr, nullptr, 0, 0, &Out);
    return Out;
  }();
  return *L;
}

StepOutcome mult::interpretTask(Engine &E, Processor &P, Task &T,
                                uint64_t TargetClock, uint64_t Horizon) {
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

  return interpretThreaded(&E, &P, &T, TargetClock, Horizon, nullptr);
}
