//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy-futures implementation: seam registration, oldest-first stealing
/// with stack splitting, and seam returns.
///
//===----------------------------------------------------------------------===//

#include "core/LazyFutures.h"

#include "core/Engine.h"
#include "core/FutureOps.h"
#include "vm/CostModel.h"

#include <cassert>

using namespace mult;

void lazyfutures::noteSeam(Engine &E, Task &T, uint32_t FrameIdx) {
  Frame &F = T.Frames[FrameIdx];
  F.IsSeam = true;
  F.SeamStolen = false;
  F.SeamSerial = E.nextSeamSerial();
  F.SeamFuture = Value::nil();
  ++T.UnstolenSeams;
  E.seams().push_back(SeamRef{T.Id, FrameIdx, F.SeamSerial});
  ++E.stats().SeamsCreated;
}

lazyfutures::StealResult lazyfutures::trySteal(Engine &E, Processor &P) {
  std::deque<SeamRef> &Seams = E.seams();
  while (!Seams.empty()) {
    SeamRef Ref = Seams.front();
    Task *Victim = E.liveTask(Ref.Task);
    if (!Victim || Ref.FrameIdx >= Victim->Frames.size()) {
      Seams.pop_front();
      continue;
    }
    Frame &F = Victim->Frames[Ref.FrameIdx];
    if (!F.IsSeam || F.SeamStolen || F.SeamSerial != Ref.Serial) {
      Seams.pop_front();
      continue;
    }
    if (E.group(Victim->Group).State != GroupState::Running) {
      // Don't steal out of stopped groups; try younger seams.
      // (Leave the entry: the group may resume.)
      return StealResult{StealResult::Kind::Nothing, InvalidTask};
    }

    // Injected split failure: the thief found a splittable seam but backs
    // off (modelling a lost race on the victim's stack), leaving the seam
    // with its owner. Graceful degradation: the owner later returns through
    // the seam at inline cost, so the program still completes.
    if (E.faults().armed() && E.faults().hit(FaultClause::SeamSplitFailAt)) {
      P.charge(cost::QueueLockHold);
      E.noteFault(P, FaultKind::SeamSplitFail, Ref.Serial);
      return StealResult{StealResult::Kind::Nothing, InvalidTask};
    }

    // Allocate the future the stolen parent will see as the child's value.
    uint64_t Cycles = 0;
    Object *Fut =
        E.tryAlloc(P, TypeTag::Future, Object::FutureSizeWords, Cycles);
    if (!Fut) {
      P.charge(Cycles);
      return StealResult{StealResult::Kind::NeedsGc, InvalidTask};
    }
    Fut->setSlot(Object::FutState, Value::fixnum(0));
    Fut->setSlot(Object::FutValue, Value::unspecified());
    Fut->setSlot(Object::FutWaiters, Value::nil());
    Fut->setSlot(Object::FutTaskId,
                 Value::fixnum(static_cast<int64_t>(taskIndex(Victim->Id))));
    Fut->setSlot(Object::FutGroupId, Value::fixnum(Victim->Group));

    Seams.pop_front();

    // Split: the parent continuation is the stack below the seam, running
    // from the seam's return address with the future as the call's value.
    TaskId ParentId = E.newEmptyTask(Victim->Group, P.Id);
    Task &Parent = E.task(ParentId);
    Victim = &E.task(Ref.Task); // newEmptyTask may reallocate the registry

    Frame &SeamFrame = Victim->Frames[Ref.FrameIdx];
    Parent.Stack.assign(Victim->Stack.begin(),
                        Victim->Stack.begin() + SeamFrame.Base);
    Parent.Frames.assign(Victim->Frames.begin() + Victim->BaseFrame,
                         Victim->Frames.begin() + Ref.FrameIdx);
    Parent.CurCode = SeamFrame.CallerCode;
    Parent.Pc = SeamFrame.RetPc;
    Parent.Stack.push_back(Value::future(Fut));
    Parent.DynEnv = Victim->DynEnv;
    Parent.State = TaskState::Ready;
    Parent.LastProc = P.Id;

    if (Victim->BaseFrame == 0) {
      // First split of this task: the outermost return now belongs to the
      // parent continuation.
      Parent.ResultFuture = Victim->ResultFuture;
      Victim->ResultFuture = Value::nil();
    } else {
      // The parent's bottom frame is an earlier stolen seam; its return
      // resolves that seam's future instead.
      Parent.ResultFuture = Value::nil();
      // Frame indices inside Parent must be rebased: its frames vector
      // starts at the victim's old BaseFrame.
      // (Frame.Base values are absolute stack indices and stay valid.)
    }
    Parent.BaseFrame = 0;

    SeamFrame.SeamStolen = true;
    SeamFrame.SeamFuture = Value::future(Fut);
    assert(Victim->UnstolenSeams > 0);
    --Victim->UnstolenSeams;
    Victim->BaseFrame = Ref.FrameIdx;
    // The steal carved frames out of the victim's stack: a checkpoint
    // captured before the split no longer matches the task (restoring it
    // would resurrect frames the parent continuation now owns).
    ++Victim->SideEffectEpoch;

    Cycles += cost::SeamStealBase +
              (Parent.Stack.size() + Parent.Frames.size()) / 4;
    P.charge(Cycles);
    ++E.stats().SeamsStolen;
    ++E.stats().FuturesCreated;
    ++E.stats().TasksCreated;
    E.group(Victim->Group).TasksCreated++;
    if (E.tracer().enabled())
      E.tracer().record(TraceEventKind::SeamSteal, P.Id, P.Clock, ParentId,
                        static_cast<uint32_t>(taskIndex(Victim->Id)),
                        Ref.Serial);
    return StealResult{StealResult::Kind::Stolen, ParentId};
  }
  return StealResult{StealResult::Kind::Nothing, InvalidTask};
}

bool lazyfutures::onSeamReturn(Engine &E, Processor &P, Task &T, Frame &F,
                               Value Result) {
  if (!F.SeamStolen) {
    // Nobody wanted the parallelism: squash the seam, return normally at
    // inline cost. The registry entry goes stale and is skipped lazily.
    F.IsSeam = false;
    assert(T.UnstolenSeams > 0);
    --T.UnstolenSeams;
    return false;
  }
  // The parent continuation ran elsewhere; hand it the child's value.
  assert(F.SeamFuture.isFuture() && "stolen seam lost its future");
  futureops::resolveFuture(E, P, F.SeamFuture.pointee(), Result);
  futureops::taskFinished(E, P, T, Result);
  return true;
}
