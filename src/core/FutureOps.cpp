//===----------------------------------------------------------------------===//
///
/// \file
/// FutureOps implementation.
///
//===----------------------------------------------------------------------===//

#include "core/FutureOps.h"

#include "core/Engine.h"
#include "core/LazyFutures.h"
#include "core/Tenancy.h"
#include "vm/CostModel.h"

#include <cassert>

using namespace mult;

bool futureops::chase(Value V, Value &Out, Object *&Unresolved,
                      uint64_t &Cycles) {
  while (V.isFuture()) {
    Object *F = V.pointee();
    if (!F->futureResolved()) {
      Unresolved = F;
      return false;
    }
    V = F->futureValue();
    Cycles += cost::TouchChase;
  }
  Out = V;
  return true;
}

/// Enters the thunk on top of T's stack as an ordinary call (the inline
/// and lazy paths). Returns the index of the new frame.
static uint32_t enterThunk(Task &T) {
  assert(!T.Stack.empty() && "thunk missing");
  Frame F;
  F.CallerCode = T.CurCode;
  F.RetPc = T.Pc + 1;
  F.Base = static_cast<uint32_t>(T.Stack.size() - 1);
  T.Frames.push_back(F);
  Value Thunk = T.Stack.back();
  assert(Thunk.isObject() && Thunk.asObject()->tag() == TypeTag::Closure &&
         "future thunk must be a closure");
  T.CurCode = Thunk.asObject()->closureCode();
  T.Pc = 0;
  return static_cast<uint32_t>(T.Frames.size() - 1);
}

bool futureops::onFutureOp(Engine &E, Processor &P, Task &T) {
  const EngineConfig &Cfg = E.config();
  Tracer &Tr = E.tracer();
  // The future site: one id per textual `future` expression, keyed on the
  // code object + pc of the FutureOp. Interned before enterThunk moves
  // T.CurCode/T.Pc into the thunk. Unconditional (host cost only): the
  // always-on touch-wait telemetry keys its per-site histograms on the
  // same ids the tracer and profiler use.
  uint32_t Site = Tr.futureSiteId(
      T.CurCode, T.Pc, T.CurCode ? T.CurCode->Name : std::string_view());

  // Profile-guided site policy: a loaded table overrides both the global
  // lazy mode and the threshold machinery for the sites it names. The
  // lookup is memoized per (code, pc) and skipped entirely while no table
  // is loaded, so the default path is untouched.
  // (Stats and PolicyDecision events are recorded where each decision
  // commits, not here: a failed allocation re-runs this instruction.)
  const SitePolicy *Pol = nullptr;
  if (!E.sitePolicies().empty())
    Pol = E.sitePolicyFor(T.CurCode, T.Pc,
                          T.CurCode ? T.CurCode->Name : std::string_view());
  auto RecordPolicy = [&] {
    if (Tr.enabled())
      Tr.record(TraceEventKind::PolicyDecision, P.Id, P.Clock,
                static_cast<uint64_t>(*Pol), Site);
  };

  // Lazy futures (global mode, or a lazy site policy): provisionally
  // inline, leave a seam.
  if (Pol ? *Pol == SitePolicy::Lazy : Cfg.LazyFutures) {
    if (Pol) {
      ++E.stats().PolicyLazy;
      RecordPolicy();
    }
    uint32_t FrameIdx = enterThunk(T);
    lazyfutures::noteSeam(E, T, FrameIdx);
    P.charge(cost::LazySeamPush);
    E.stats().Steps.MakeThunkCycles += cost::LazySeamPush;
    if (Tr.enabled())
      Tr.record(TraceEventKind::InlineDecision, P.Id, P.Clock, 2, Site,
                T.Frames[FrameIdx].SeamSerial);
    return true;
  }

  // Injected queue-capacity clamp: the paper's queue-overflow degradation
  // (evaluate inline rather than overflow the task queue), forced at an
  // artificially low capacity. Capacity is physical, so it overrides even
  // an eager site policy.
  if (E.faults().armed() && E.faults().queueCap() &&
      P.Queues.depth() >= *E.faults().queueCap()) {
    E.noteFault(P, FaultKind::QueueClamp, P.Queues.depth());
    enterThunk(T);
    P.charge(cost::FutureInline);
    ++E.stats().TasksInlined;
    if (Tr.enabled())
      Tr.record(TraceEventKind::InlineDecision, P.Id, P.Clock, 0, Site);
    return true;
  }

  // Inlining threshold (paper section 3): with >= T tasks already queued
  // on this processor there is no point creating another. T is the
  // processor's adaptive threshold when AdaptiveInline is on, the static
  // configuration otherwise; an inline site policy decides outright.
  bool Inline;
  if (Pol) {
    Inline = *Pol == SitePolicy::Inline;
  } else {
    std::optional<unsigned> Th = E.inlineThresholdFor(P);
    Inline = Th && P.Queues.depth() >= *Th;
  }
  if (Inline) {
    if (Pol) {
      ++E.stats().PolicyInline;
      RecordPolicy();
    }
    enterThunk(T);
    P.charge(cost::FutureInline);
    ++E.stats().TasksInlined;
    if (Tr.enabled())
      Tr.record(TraceEventKind::InlineDecision, P.Id, P.Clock, 0, Site);
    return true;
  }

  // Real future + child task (Table 1 step 2).
  uint64_t Cycles = 0;
  Object *Fut = E.tryAlloc(P, TypeTag::Future, Object::FutureSizeWords, Cycles);
  if (!Fut) {
    P.charge(Cycles);
    return false; // NeedsGc; FutureOp re-runs.
  }
  Fut->setSlot(Object::FutState, Value::fixnum(0));
  Fut->setSlot(Object::FutValue, Value::unspecified());
  Fut->setSlot(Object::FutWaiters, Value::nil());
  Fut->setSlot(Object::FutGroupId, Value::fixnum(T.Group));

  Value Thunk = T.Stack.back();
  T.Stack.pop_back();
  TaskId Child =
      E.newTask(T.Group, Thunk, Value::future(Fut), T.DynEnv, P.Id, T.Id);
  E.task(Child).FutureSite = Site;
  Fut->setSlot(Object::FutTaskId,
               Value::fixnum(static_cast<int64_t>(taskIndex(Child))));

  Cycles += cost::FutureCreateBase + cost::TaskStackSetup;
  Cycles += P.Queues.pushNew(Child, P.Clock + Cycles);
  P.charge(Cycles);
  E.stats().Steps.CreateEnqueueCycles += Cycles;
  ++E.stats().FuturesCreated;
  if (Pol) {
    ++E.stats().PolicyEager;
    RecordPolicy();
  }
  if (Tr.enabled()) {
    Tr.record(TraceEventKind::InlineDecision, P.Id, P.Clock, 1, Site);
    Tr.record(TraceEventKind::FutureCreate, P.Id, P.Clock, Child, Site);
  }

  T.Stack.push_back(Value::future(Fut));
  ++T.Pc;
  return true;
}

bool futureops::blockOnFuture(Engine &E, Processor &P, Task &T, Object *Fut) {
  assert(!Fut->futureResolved() && "blocking on a resolved future");
  uint64_t Cycles = 0;
  Object *WaiterCell = E.tryAlloc(P, TypeTag::Pair, 2, Cycles);
  if (!WaiterCell) {
    P.charge(Cycles);
    return false;
  }
  WaiterCell->setCar(Value::fixnum(static_cast<int64_t>(T.Id)));
  WaiterCell->setCdr(Fut->futureWaiters());
  Fut->setSlot(Object::FutWaiters, Value::object(WaiterCell));

  T.State = TaskState::BlockedFuture;
  T.BlockedOn = Value::future(Fut);

  // Telemetry stamps (zero virtual cost): when the resolve wakes this
  // task, the wait is resolver clock minus BlockClock, keyed by the
  // spawning site of the future being touched. The FutTaskId slot still
  // holds the spawning task's registry index (negative resolve-serial
  // stamps only appear on resolved futures); validate the slot really
  // belongs to this future before trusting its site.
  T.BlockClock = P.Clock;
  T.BlockSite = ~uint32_t(0);
  if (Value Ti = Fut->slot(Object::FutTaskId); Ti.isFixnum() &&
                                               Ti.asFixnum() >= 0) {
    Task *Creator = E.taskByIndex(static_cast<uint32_t>(Ti.asFixnum()));
    if (Creator && Creator->ResultFuture.isFuture() &&
        Creator->ResultFuture.pointee() == Fut)
      T.BlockSite = Creator->FutureSite;
  }

  Cycles += cost::BlockBase;
  P.charge(Cycles);
  E.stats().Steps.BlockCycles += Cycles + cost::Touch;
  ++E.stats().TouchesBlocked;
  if (E.tracer().enabled())
    E.tracer().record(TraceEventKind::TaskBlock, P.Id, P.Clock, T.Id, 0);
  return true;
}

void futureops::resolveFuture(Engine &E, Processor &P, Object *Fut,
                              Value Result) {
  assert(!Fut->futureResolved() && "double resolve");
  Value Waiters = Fut->futureWaiters();
  Fut->resolveFutureSlots(Result);

  // Stamp the future with a fresh resolve serial so later touch-hits can
  // name this resolve in the trace. The FutTaskId slot is free for this:
  // nothing reads it after creation, and the negative sign keeps stamps
  // distinguishable from the task indices written there at creation.
  uint64_t Serial = 0;
  if (E.tracer().enabled()) {
    Serial = E.tracer().newResolveSerial();
    Fut->setSlot(Object::FutTaskId,
                 Value::fixnum(-static_cast<int64_t>(Serial)));
  }

  uint64_t Cycles = cost::ResolveBase;
  unsigned Woken = 0;
  for (Value W = Waiters; !W.isNil(); W = W.asObject()->cdr()) {
    auto Id = static_cast<TaskId>(W.asObject()->car().asFixnum());
    Task *Waiter = E.liveTask(Id);
    if (!Waiter || Waiter->State != TaskState::BlockedFuture)
      continue;
    if (!Waiter->BlockedOn.isPointer() || Waiter->BlockedOn.pointee() != Fut)
      continue;
    Waiter->State = TaskState::Ready;
    Waiter->BlockedOn = Value::nil();
    // Touch-wait latency: block to resolve, saturating because per-
    // processor clocks are not totally ordered (the resolver's clock can
    // trail the blocker's).
    E.recordTouchWait(Waiter->BlockSite, P.Clock > Waiter->BlockClock
                                             ? P.Clock - Waiter->BlockClock
                                             : 0);
    // Paper: woken tasks go to the suspended queue of the processor they
    // were running on when they blocked — unless that processor died, in
    // which case the nearest survivor adopts them.
    Processor &Home = E.machine().homeFor(Waiter->LastProc);
    Cycles += Home.Queues.pushSuspended(Id, P.Clock + Cycles);
    Cycles += cost::ResolveWaiter;
    ++Woken;
    if (E.tracer().enabled())
      E.tracer().record(TraceEventKind::TaskResume, P.Id, P.Clock + Cycles,
                        Waiter->Id, Home.Id, P.current());
  }
  P.charge(Cycles);
  if (E.tracer().enabled())
    E.tracer().record(TraceEventKind::FutureResolve, P.Id, P.Clock, Woken, 0,
                      Serial);

  if (E.rootFutureObject() == Fut) {
    E.noteRootResolved(P.Clock);
  } else if (E.tenancy() && E.tenancy()->noteRootResolved(Fut, P.Clock)) {
    // A launched group's root: launch overhead, like the single-run root.
  } else {
    E.stats().Steps.ResolveCycles += Cycles;
    ++E.stats().FuturesResolved;
  }
}

void futureops::taskFinished(Engine &E, Processor &P, Task &T, Value Result) {
  P.charge(cost::TaskFinish);
  // Task lifetime (create to finish), always on -- the histogram no
  // longer needs the tracer. Saturating: the finishing processor's clock
  // can trail the creator's.
  E.telemetry().record(E.telemetryIds().TaskLifetime,
                       P.Clock > T.CreateClock ? P.Clock - T.CreateClock : 0);
  if (T.ResultFuture.isFuture() &&
      !T.ResultFuture.pointee()->futureResolved())
    resolveFuture(E, P, T.ResultFuture.pointee(), Result);
  ++E.stats().TasksCompleted;
  if (E.tracer().enabled())
    E.tracer().record(TraceEventKind::TaskFinish, P.Id, P.Clock, T.Id);
  E.finishTask(T);
}
