//===----------------------------------------------------------------------===//
///
/// \file
/// Engine implementation.
///
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "analysis/RaceDetect.h"
#include "core/Tenancy.h"
#include "lib/Prelude.h"
#include "reader/Reader.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Threaded.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace mult;

static AdaptiveTConfig adaptiveConfig(const EngineConfig &C) {
  AdaptiveTConfig A;
  A.Enabled = C.AdaptiveInline;
  A.WindowCycles = C.AdaptiveWindowCycles;
  // The static threshold, when set and finite, seeds the adaptive one;
  // otherwise start from the paper's recommended T = 1.
  unsigned Start = C.InlineThreshold ? *C.InlineThreshold : 1u;
  A.StartT = std::clamp(Start, A.MinT, A.MaxT);
  return A;
}

/// \p C with the environment applied, checked before anything is allocated.
static EngineConfig resolvedConfig(EngineConfig C) {
  C.readEnvironment();
  [[maybe_unused]] std::string Err;
  assert(C.validate(Err) && "invalid EngineConfig");
  return C;
}

Engine::Engine(const EngineConfig &Config)
    : Cfg(resolvedConfig(Config)),
      TheHeap({.SemispaceWords = Cfg.HeapWords,
               .ChunkWords = Cfg.ChunkWords,
               .LargeObjectWords = Cfg.LargeObjectWords,
               .NumAllocators = Cfg.NumProcessors}),
      Syms(TheHeap), Builder(TheHeap, Syms), Registry(TheHeap),
      TheCompiler(Builder, Registry,
                  {.EmitTouchChecks = Cfg.EmitTouchChecks,
                   .OptimizeTouches = Cfg.OptimizeTouches}),
      TheGc(TheHeap, Cfg.NumProcessors),
      TheMachine(Cfg.NumProcessors, Cfg.QuantumCycles, Cfg.MaxRunCycles,
                 Cfg.StealPolicy, adaptiveConfig(Cfg)),
      Rng(Cfg.RandomSeed) {
  // Well-known latency histograms (TelemetryIds says what each one
  // times), registered before any recording so their ids are dense and
  // stable. Always on: recording charges no virtual time, so cycle counts
  // are bit-identical either way.
  TelemIds.GcPause = Telem.histogram("gc_pause_cycles");
  TelemIds.TouchWait = Telem.histogram("touch_wait_cycles");
  TelemIds.StealLatency = Telem.histogram("steal_latency_cycles");
  TelemIds.SemWait = Telem.histogram("sem_wait_cycles");
  TelemIds.TaskLifetime = Telem.histogram("task_lifetime_cycles");
  TelemIds.EvalRequest = Telem.histogram("eval_request_cycles");
  TelemIds.RestartLatency =
      Telem.histogram("supervisor_restart_latency_cycles");
  TelemIds.AdmissionWait = Telem.histogram("admission_queue_wait_cycles");
  TheTracer.setEnabled(Cfg.EnableTracing);
  std::string Err;
  if (!Cfg.TraceSink.empty() && !TheTracer.configureSink(Cfg.TraceSink, Err))
    warnIgnored("TraceSink", Err);
  if (Cfg.RaceDetect) {
    // The checker is a stream consumer, so tracing must be on; it
    // observes events before sink buffering, so even a small ring sink
    // leaves it complete. Charges no virtual time: cycle counts match
    // undetected runs bit for bit.
    RaceDet = std::make_unique<RaceDetector>();
    TheTracer.setEnabled(true);
    TheTracer.setObserver(RaceDet.get());
  }
  bootstrap();
  // Arm faults only after the prelude is in: a plan that fired during
  // bootstrap would make every run start from a poisoned image.
  if (!Cfg.Faults.empty() && !configureFaults(Cfg.Faults, Err))
    warnIgnored("MULT_FAULTS", Err);
  // Site policies name program sites, so sites interned at bootstrap are
  // unaffected (the prelude spawns no futures); load after bootstrap to
  // mirror the fault plan's lifecycle.
  if (!Cfg.SitePolicies.empty() &&
      !SitePolicyTab.loadFile(Cfg.SitePolicies, Err))
    warnIgnored("MULT_SITE_POLICIES", Err);
  // Tenant fault domains arm after bootstrap like the fault plan, so the
  // prelude's internal groups are never metered.
  Tenancy::armFromConfig(*this);
  Telem.addHostNs(Telemetry::Phase::Setup,
                  static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - SetupStart)
                          .count()));
}

bool Engine::configureSitePolicies(std::string_view Text, std::string &Err) {
  SitePolicyTable New;
  if (!New.parse(Text, Err))
    return false;
  SitePolicyTab = std::move(New);
  SitePolicyMemo.clear();
  return true;
}

const SitePolicy *Engine::sitePolicyFor(const void *CodeKey, uint32_t Pc,
                                        std::string_view CodeName) {
  auto Key = std::make_pair(CodeKey, Pc);
  auto It = SitePolicyMemo.find(Key);
  if (It != SitePolicyMemo.end())
    return It->second;
  std::string Name(CodeName);
  Name += '+';
  Name += std::to_string(Pc);
  const SitePolicy *P = SitePolicyTab.lookup(Name);
  SitePolicyMemo.emplace(Key, P);
  return P;
}

bool Engine::configureFaults(std::string_view Spec, std::string &Err) {
  FaultPlan Plan;
  if (!FaultPlan::parse(Spec, Plan, Err))
    return false;
  Injector.configure(Plan);
  Injector.arm();
  return true;
}

uint64_t Engine::cellSerial(const Object *Cell) {
  auto [It, Inserted] = CellSerials.try_emplace(Cell, CellSerialCounter + 1);
  if (Inserted)
    ++CellSerialCounter;
  return It->second;
}

void Engine::recordAccessSlow(Processor &P, const Task &T, const Object *Cell,
                              uint32_t Slot, bool IsWrite) {
  if (!TheTracer.enabled())
    return;
  TheTracer.record(IsWrite ? TraceEventKind::CellWrite
                           : TraceEventKind::CellRead,
                   P.Id, P.Clock, cellSerial(Cell), Slot, T.Id);
}

void Engine::preFlip() { remapCellSerials(); }

DecodedCode *Engine::ensureDecoded(const Code *C) {
  if (C->Decoded)
    return C->Decoded;
  DecodedPool.push_back(decodeCode(*C, threadedLabels()));
  C->Decoded = DecodedPool.back().get();
  return C->Decoded;
}

void Engine::remapWeakCaches() {
  // Runs inside the collection, right before preFlip: copying is done but
  // the semispaces have not flipped, so from-space forwarding headers are
  // still readable. The only weak pointers in the decoded streams are the
  // Call/TailCall inline-cache keys (closure values): patch moved ones
  // through their forwarding pointers, clear dead ones — a cleared cache
  // is just the next miss. Global-cell pointers cached by the decoder are
  // permanent symbols and never move; constants are permanent too.
  for (auto &D : DecodedPool)
    for (DInsn &DI : D->Stream) {
      if ((DI.Opc != Op::Call && DI.Opc != Op::TailCall) || !DI.KBits)
        continue;
      Object *Clo = Value::fromBits(DI.KBits).asObject();
      if (Clo->isPermanent())
        continue;
      if (Clo->isForwarded()) {
        DI.KBits = Value::object(Clo->forwardedTo()).bits();
      } else {
        DI.KBits = 0;
        DI.Ptr = nullptr;
      }
    }
}

void Engine::remapCellSerials() {
  // Copying is done but the semispaces have not flipped yet: live
  // non-permanent cells carry forwarding headers in from-space, permanent
  // cells never move, and everything else is dead and must drop out of
  // the map. This must not run any later — the flip poisons from-space
  // in debug builds, and a heap-growing flip frees it outright.
  if (CellSerials.empty())
    return;
  std::unordered_map<const Object *, uint64_t> New;
  New.reserve(CellSerials.size());
  for (const auto &[Obj, Serial] : CellSerials) {
    if (Obj->isPermanent())
      New.emplace(Obj, Serial);
    else if (Obj->isForwarded())
      New.emplace(Obj->forwardedTo(), Serial);
  }
  CellSerials = std::move(New);
}

void Engine::noteFault(Processor &P, FaultKind Kind, uint64_t Detail) {
  ++Stats.FaultsInjected;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::FaultInjected, P.Id, P.Clock,
                     static_cast<uint64_t>(Kind), Detail,
                     Stats.FaultsInjected);
}

Engine::~Engine() {
  if (!Cfg.Telemetry.empty()) {
    std::string Err;
    if (!exportTelemetrySpec(Telem, Cfg.Telemetry, Err))
      std::fprintf(stderr, "mult: telemetry export failed: %s\n",
                   Err.c_str());
  }
}

void Engine::recordTouchWait(uint32_t Site, uint64_t WaitCycles) {
  Telem.record(TelemIds.TouchWait, WaitCycles);
  if (Site == ~uint32_t(0))
    return;
  // Per-site child histogram, registered on the site's first blocked
  // touch. Site interning order is deterministic (virtual-time
  // simulation), so the registry layout is too.
  if (Site >= SiteTouchHists.size())
    SiteTouchHists.resize(Site + 1, Telemetry::InvalidId);
  if (SiteTouchHists[Site] == Telemetry::InvalidId) {
    const std::vector<std::string> &Names = TheTracer.siteNames();
    std::string Name =
        Site < Names.size() ? Names[Site] : strFormat("site-%u", Site);
    SiteTouchHists[Site] = Telem.histogram("touch_wait_cycles", "site", Name);
  }
  Telem.record(SiteTouchHists[Site], WaitCycles);
}

//===----------------------------------------------------------------------===//
// Bootstrap
//===----------------------------------------------------------------------===//

void Engine::installPrimitiveWrappers() {
  // Give every primitive a closure binding so primitive names work as
  // first-class values, e.g. (map car lst) or (apply + xs).
  //
  // Open-coded primitives whose MULT_OPCODES row sets the eta column, and
  // touch, get compiled fixed-arity eta-expansions; called primitives (and
  // the n-ary arithmetic, via the hidden %+ %- %* prims) get hand-built
  // variadic wrappers whose body is one PrimApplyVar.
  auto InstallEta = [&](std::string_view Name, int Arity) {
    std::string Params;
    for (int I = 0; I < Arity; ++I)
      Params += strFormat(" x%d", I);
    std::string Src =
        "(lambda (" + Params + ") (" + std::string(Name) + Params + "))";
    Reader Rd(Builder, Src);
    ReadResult RR = Rd.read();
    assert(RR.ok() && "wrapper source must parse");
    Compiler::Result CR = TheCompiler.compile(RR.Datum);
    assert(CR.ok() && "wrapper source must compile");
    // The compiled top level is [Closure tpl 0; Return]; extract the
    // template and build the (capture-free) closure in the static area.
    const Insn *ClosureInsn = nullptr;
    for (const Insn &I : CR.TopCode->Insns)
      if (I.Opcode == Op::Closure) {
        ClosureInsn = &I;
        break;
      }
    assert(ClosureInsn && ClosureInsn->B == 0 && "unexpected wrapper shape");
    Value Tpl =
        CR.TopCode->Constants[static_cast<size_t>(ClosureInsn->A)];
    Object *Clo = TheHeap.allocatePermanent(TypeTag::Closure, 1);
    Clo->setSlot(0, Tpl);
    Syms.intern(Name)->setGlobalValue(Value::object(Clo));
  };
  for (const FastOp &F : fastOps())
    if (F.EtaWrapped)
      InstallEta(F.Name, F.Info.Arity);
  InstallEta("touch", 1);

  // Variadic wrappers. Names starting with % are internal and get no
  // binding; + - * bind to the %-prefixed n-ary equivalents.
  auto InstallVariadic = [&](const char *GlobalName, PrimId Id) {
    Code *C = Registry.create(std::string(GlobalName) + "-wrapper");
    C->Variadic = true;
    C->MaxFrameWords = 8;
    C->Insns.push_back(Insn{Op::PrimApplyVar, static_cast<int32_t>(Id), 0});
    C->Insns.push_back(Insn{Op::Return, 0, 0});
    Object *Clo = TheHeap.allocatePermanent(TypeTag::Closure, 1);
    Clo->setSlot(0, Registry.templateFor(C));
    Syms.intern(GlobalName)->setGlobalValue(Value::object(Clo));
  };
#define MULT_PRIM_WRAP(Id, Name, Min, Max, Cost)                               \
  if ((Name)[0] != '%')                                                        \
    InstallVariadic(Name, PrimId::Id);
  MULT_PRIM_LIST(MULT_PRIM_WRAP)
#undef MULT_PRIM_WRAP
  InstallVariadic("+", PrimId::AddN);
  InstallVariadic("-", PrimId::SubN);
  InstallVariadic("*", PrimId::MulN);
}

void Engine::bootstrap() {
  installPrimitiveWrappers();
  if (!Cfg.LoadPrelude)
    return;
  Bootstrapping = true;
  EvalResult R = eval(PreludeSource);
  Bootstrapping = false;
  if (!R.ok()) {
    console() << "fatal: prelude failed to load: " << R.Error << '\n';
    assert(false && "prelude failed to load");
  }
  takeOutput();
  resetStats();
}

//===----------------------------------------------------------------------===//
// Tasks and groups
//===----------------------------------------------------------------------===//

Task *Engine::liveTask(TaskId Id) {
  uint32_t Idx = taskIndex(Id);
  if (Idx >= Tasks.size() || TaskGens[Idx] != taskGeneration(Id))
    return nullptr;
  Task *T = Tasks[Idx].get();
  return T->State == TaskState::Done ? nullptr : T;
}

Task *Engine::taskByIndex(uint32_t Idx) {
  if (Idx >= Tasks.size())
    return nullptr;
  Task *T = Tasks[Idx].get();
  return (T && T->State != TaskState::Done) ? T : nullptr;
}

Group *Engine::findGroup(GroupId Id) {
  return Id < Groups.size() ? &Groups[Id] : nullptr;
}

TaskId Engine::newEmptyTask(GroupId G, unsigned Proc) {
  uint32_t Idx;
  if (!FreeTaskSlots.empty()) {
    Idx = FreeTaskSlots.back();
    FreeTaskSlots.pop_back();
    ++TaskGens[Idx];
  } else {
    Idx = static_cast<uint32_t>(Tasks.size());
    Tasks.push_back(std::make_unique<Task>());
    TaskGens.push_back(0);
  }
  Task &T = *Tasks[Idx];
  T.clearForRecycle();
  T.Id = makeTaskId(Idx, TaskGens[Idx]);
  T.Group = G;
  T.State = TaskState::Ready;
  T.LastProc = Proc;
  if (G != InvalidGroup)
    group(G).Members.push_back(T.Id);
  return T.Id;
}

TaskId Engine::newTask(GroupId G, Value Closure, Value ResultFuture,
                       Value DynEnv, unsigned Proc, TaskId Parent) {
  TaskId Id = newEmptyTask(G, Proc);
  Task &T = task(Id);
  T.initForThunk(Id, G, Closure, ResultFuture, DynEnv, Proc);
  T.CreateClock = TheMachine.processor(Proc).Clock;
  T.FutureSite = ~uint32_t(0);
  ++Stats.TasksCreated;
  if (G != InvalidGroup)
    ++group(G).TasksCreated;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::TaskCreate, Proc,
                     TheMachine.processor(Proc).Clock, Id, G, Parent);
  return Id;
}

void Engine::finishTask(Task &T) {
  uint32_t Idx = taskIndex(T.Id);
  if (T.Group != InvalidGroup)
    group(T.Group).Checkpoints.erase(Idx); // record can never be restored now
  T.clearForRecycle();
  FreeTaskSlots.push_back(Idx);
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

Object *Engine::tryAlloc(Processor &P, TypeTag Tag, uint32_t SizeWords,
                         uint64_t &Cycles, uint8_t Flags) {
  if (Injector.armed() && Injector.hitEither(FaultClause::AllocFailAt,
                                             FaultClause::AllocFailEvery)) {
    // Behaves exactly like a full heap: the VM requests a collection and
    // retries the instruction, which succeeds (the injector marks the
    // failure so the machine's exhaustion heuristics ignore this round).
    noteFault(P, FaultKind::AllocFail, SizeWords);
    Cycles += heapcost::ChunkBump;
    return nullptr;
  }
  // The tenant layer's owner tag and charge; a null test when dormant.
  uint16_t Owner = Ten ? Ten->allocOwner(P) : 0;
  Heap::AllocResult R =
      TheHeap.allocate(P.Id, P.Clock, Tag, SizeWords, Flags, Owner);
  Cycles += R.Cycles;
  if (Owner && R.Obj)
    Ten->chargeAlloc(Owner, R.Obj->totalWords());
  return R.Obj;
}

Object *Engine::allocOrGc(TypeTag Tag, uint32_t SizeWords, uint8_t Flags) {
  Processor &P0 = TheMachine.homeFor(0);
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    Heap::AllocResult R =
        TheHeap.allocate(P0.Id, P0.Clock, Tag, SizeWords, Flags);
    P0.charge(R.Cycles);
    if (R.Obj)
      return R.Obj;
    if (!collectGarbage())
      return nullptr;
  }
  return nullptr;
}

bool Engine::collectGarbage() {
  HostPhaseTimer HostGc(Telem, Telemetry::Phase::Gc);
  // The rendezvous reads every clock, parked processors' included.
  TheMachine.settleParked(*this);
  std::vector<uint64_t> Clocks = TheMachine.clocks();
  std::vector<uint64_t> Before = Clocks;
  bool Ok = TheGc.collect(*this, Clocks);
  if (Ok) {
    // The pause distribution, not just the running total (the collection
    // already updated Gc::Stats).
    Telem.record(TelemIds.GcPause, TheGc.stats().Last.PauseCycles);
    TheMachine.setClocks(Clocks);
    // Each processor's pause (from interruption to the common resume
    // clock) is GC time; together with busy and idle cycles this tiles
    // the processor clock exactly.
    for (unsigned I = 0; I < TheMachine.numProcessors(); ++I) {
      Processor &P = TheMachine.processor(I);
      P.GcCycles += Clocks[I] - Before[I];
      if (TheTracer.enabled()) {
        TheTracer.record(TraceEventKind::GcBegin, I, Before[I]);
        TheTracer.record(TraceEventKind::GcEnd, I, Clocks[I]);
      }
    }
    if (Ten)
      Ten->commitTally();
  }
  Recov.finishGcKills(Ok);
  return Ok;
}

//===----------------------------------------------------------------------===//
// GC roots
//===----------------------------------------------------------------------===//

namespace {
/// Root-segment partition sizes, cached between numRootSegments and the
/// scanRootSegment calls of one collection.
struct SegmentPlan {
  unsigned StaticSegs = 1;
  unsigned TaskSegs = 1;
};
SegmentPlan CurrentPlan;
} // namespace

unsigned Engine::numRootSegments() {
  // Fine segmentation lets the collectors share root scanning: one
  // segment should carry only a handful of user globals (the paper's
  // static area was "divided into segments" for exactly this reason).
  size_t StaticN = TheHeap.staticAreaSize();
  size_t TaskN = Tasks.size();
  CurrentPlan.StaticSegs = static_cast<unsigned>(
      std::clamp<size_t>(StaticN / 48, 1, 256));
  CurrentPlan.TaskSegs =
      static_cast<unsigned>(std::clamp<size_t>(TaskN / 16, 1, 128));
  // A fresh live-words tally per collection (committed by collectGarbage).
  if (Ten)
    Ten->beginTally();
  return CurrentPlan.StaticSegs + CurrentPlan.TaskSegs + 1;
}

void Engine::noteLiveObject(uint16_t Aux, uint32_t TotalWords) {
  Ten->noteLive(Aux, TotalWords);
}

void Engine::scanTask(Task &T, const RootVisitor &Visit) {
  for (Value &V : T.Stack)
    Visit(V);
  Visit(T.BlockedOn);
  Visit(T.DynEnv);
  Visit(T.ResultFuture);
  Visit(T.WakeValue);
  Visit(T.SpawnClosure);
  Visit(T.SpawnDynEnv);
  for (Frame &F : T.Frames)
    Visit(F.SeamFuture);
}

void Engine::scanRootSegment(unsigned Segment, const RootVisitor &Visit) {
  if (Segment < CurrentPlan.StaticSegs) {
    auto [Begin, End] =
        TheHeap.staticAreaSegment(Segment, CurrentPlan.StaticSegs);
    for (size_t I = Begin; I < End; ++I) {
      Object *O = TheHeap.staticAreaObject(I);
      for (uint32_t K = 0, N = O->sizeWords(); K < N; ++K) {
        Value V = O->slot(K);
        Visit(V);
        O->setSlot(K, V);
      }
    }
    return;
  }
  Segment -= CurrentPlan.StaticSegs;
  if (Segment < CurrentPlan.TaskSegs) {
    size_t N = Tasks.size();
    size_t Begin = N * Segment / CurrentPlan.TaskSegs;
    size_t End = N * (Segment + 1) / CurrentPlan.TaskSegs;
    for (size_t I = Begin; I < End; ++I)
      scanTask(*Tasks[I], Visit);
    return;
  }
  // Miscellaneous engine roots.
  Visit(RootFuture);
  for (Group &G : Groups) {
    Visit(G.RootFuture);
    // Checkpoint records must survive collections for as long as a
    // member task might still be restored from them.
    for (auto &Entry : G.Checkpoints) {
      CheckpointRecord &R = Entry.second;
      for (Value &V : R.Stack)
        Visit(V);
      Visit(R.DynEnv);
      for (Frame &F : R.Frames)
        Visit(F.SeamFuture);
    }
  }
}

void Engine::scanProcessorRoots(unsigned Proc, const RootVisitor &Visit) {
  Processor &P = TheMachine.processor(Proc);
  if (P.current() == InvalidTask)
    return;
  scanTask(task(P.current()), Visit);
}

//===----------------------------------------------------------------------===//
// Group stop / resume / kill
//===----------------------------------------------------------------------===//

void Engine::stopGroup(Processor &P, Task &T, std::string Condition,
                       uint32_t StopPop) {
  Group &G = group(T.Group);
  bool Edge = G.State == GroupState::Running;
  T.State = TaskState::Stopped;
  T.StopCondition = Condition;
  T.StopPop = StopPop;
  T.StopRestartable = false;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::TaskStopped, P.Id, P.Clock, T.Id);
  if (G.State == GroupState::Running) {
    G.State = GroupState::Stopped;
    G.CurrentTask = T.Id;
    G.Condition = Condition;
    StoppedStack.push_back(G.Id);
  }
  LastStopped = G.Id;

  // The per-processor exception-handler server task runs (paper
  // section 2.3): it coordinates with the scheduler so no other task of
  // the group runs, then hands the terminal to the terminal server.
  // Members currently on a processor are suspended right here; queued
  // members are parked lazily when a dispatch pops them.
  for (unsigned I = 0; I < TheMachine.numProcessors(); ++I) {
    Processor &Other = TheMachine.processor(I);
    if (Other.current() == InvalidTask || Other.current() == T.Id)
      continue;
    Task *Sibling = liveTask(Other.current());
    if (!Sibling || Sibling->Group != T.Group)
      continue;
    Sibling->State = TaskState::Stopped;
    G.Parked.push_back(Sibling->Id);
    Other.setCurrent(InvalidTask);
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::TaskStopped, Other.Id, Other.Clock,
                       Sibling->Id);
  }
  ++P.HandlerActivations;
  P.charge(cost::GroupStop);
  P.charge(TermLock.acquire(P.Clock, cost::TerminalLockHold));
  // Multi-group runs: a stop is a group-termination edge the supervisor
  // acts on (restart/give-up/escalate). Only on the Running -> Stopped
  // transition — a sibling orphan joining an already-stopped group is not
  // a second edge.
  if (Ten && Edge)
    Ten->onGroupTerminated(P.Id, P.Clock, G.Id);
}

void Engine::stopGroupRestartable(Processor &P, Task &T,
                                  std::string Condition) {
  stopGroup(P, T, std::move(Condition), 0);
  T.StopRestartable = true;
}

std::vector<GroupId> Engine::stoppedGroups() const {
  std::vector<GroupId> Out;
  for (const Group &G : Groups)
    if (G.State == GroupState::Stopped)
      Out.push_back(G.Id);
  return Out;
}

EvalResult Engine::resumeGroup(GroupId Id, Value ResumeValue) {
  EvalResult R;
  Group *G = findGroup(Id);
  if (!G || G->State != GroupState::Stopped) {
    R.K = EvalResult::Kind::RuntimeError;
    R.Error = "resume: group is not stopped";
    return R;
  }

  // Resume the signalling task: the erring operation completes with the
  // user-supplied value.
  if (Task *T = Tasks[taskIndex(G->CurrentTask)].get();
      T && T->Id == G->CurrentTask && T->State == TaskState::Stopped) {
    if (T->StopRestartable) {
      // The faulting instruction never executed; just make the task
      // runnable again and let it re-run from the same pc.
      T->StopRestartable = false;
    } else {
      T->HasWakeAction = true;
      T->WakePop = T->StopPop;
      T->WakeValue = ResumeValue;
    }
    T->State = TaskState::Ready;
    Processor &Home = TheMachine.homeFor(T->LastProc);
    Home.Queues.pushSuspended(T->Id, Home.Clock);
  }
  requeueParked(*G);
  beginRun(G->RootFuture, Id);
  RunResult RR = TheMachine.run(*this);
  return translateRunResult(RR, Id);
}

void Engine::killGroup(GroupId Id) {
  Group *G = findGroup(Id);
  if (!G || G->State == GroupState::Killed)
    return;
  G->State = GroupState::Killed;
  for (TaskId Member : G->Members) {
    uint32_t Idx = taskIndex(Member);
    if (Idx >= Tasks.size() || TaskGens[Idx] != taskGeneration(Member))
      continue;
    Task &T = *Tasks[Idx];
    if (T.State == TaskState::Done)
      continue;
    // Detach from any processor.
    for (unsigned P = 0; P < TheMachine.numProcessors(); ++P)
      if (TheMachine.processor(P).current() == Member)
        TheMachine.processor(P).setCurrent(InvalidTask);
    finishTask(T);
  }
  G->Parked.clear();
  StoppedStack.erase(
      std::remove(StoppedStack.begin(), StoppedStack.end(), Id),
      StoppedStack.end());
  if (Ten) { // a termination edge at the machine's latest clock
    std::vector<uint64_t> Clocks = TheMachine.clocks();
    Ten->onGroupTerminated(0, *std::max_element(Clocks.begin(), Clocks.end()),
                           Id);
  }
}

void Engine::requeueParked(Group &G) {
  for (TaskId Parked : G.Parked) {
    if (Task *T = liveTask(Parked); T && T->State == TaskState::Stopped) {
      T->State = TaskState::Ready;
      Processor &Home = TheMachine.homeFor(T->LastProc);
      Home.Queues.pushSuspended(T->Id, Home.Clock);
    }
  }
  G.Parked.clear();
  G.State = GroupState::Running;
  StoppedStack.erase(
      std::remove(StoppedStack.begin(), StoppedStack.end(), G.Id),
      StoppedStack.end());
}

bool Engine::configureQuota(std::string_view Spec, std::string &Err) {
  return Tenancy::configureQuota(*this, Spec, Err);
}

bool Engine::configureSupervisor(std::string_view Spec, std::string &Err) {
  return Tenancy::configureSupervisor(*this, Spec, Err);
}

std::string Engine::describeWaitGraph() {
  // Reconstruct the task -> future -> computing-task wait-for graph from
  // scheduler state. An unresolved future's FutTaskId slot still holds
  // the index of the task computing it (resolve overwrites it, but then
  // the future no longer blocks anyone), so each blocked task has at
  // most one outgoing edge and any cycle is a simple rho-shaped walk.
  constexpr uint32_t NoEdge = ~uint32_t(0);
  std::vector<uint32_t> EdgeTo(Tasks.size(), NoEdge);
  std::string Out;
  StringOutStream OS(Out);

  for (size_t I = 0; I < Tasks.size(); ++I) {
    Task &T = *Tasks[I];
    if (T.State == TaskState::BlockedSemaphore) {
      OS << "  task " << I << " waits on a semaphore\n";
      continue;
    }
    if (T.State != TaskState::BlockedFuture || !T.BlockedOn.isFuture())
      continue;
    Object *Fut = T.BlockedOn.pointee();
    // Chase resolved links to the future actually pending.
    while (Fut->futureResolved() && Fut->futureValue().isFuture())
      Fut = Fut->futureValue().pointee();
    OS << "  task " << I << " waits on a future";
    int64_t Idx = Fut->slot(Object::FutTaskId).isFixnum()
                      ? Fut->slot(Object::FutTaskId).asFixnum()
                      : -1;
    Task *Computer = (Idx >= 0 && size_t(Idx) < Tasks.size())
                         ? Tasks[size_t(Idx)].get()
                         : nullptr;
    if (Computer && Computer->State != TaskState::Done &&
        Computer->ResultFuture.isFuture() &&
        Computer->ResultFuture.pointee() == Fut) {
      OS << " computed by task " << Idx << "\n";
      EdgeTo[I] = uint32_t(Idx);
    } else {
      OS << " whose computing task is gone\n";
    }
  }
  if (Out.empty())
    return Out;
  Out.insert(0, "blocked tasks:\n");

  // Rho walk from every blocked task; report the first cycle found.
  std::vector<uint8_t> Mark(Tasks.size(), 0);
  for (uint32_t Start = 0; Start < EdgeTo.size(); ++Start) {
    if (EdgeTo[Start] == NoEdge || Mark[Start])
      continue;
    uint32_t Cur = Start;
    std::vector<uint32_t> Path;
    while (Cur != NoEdge && Mark[Cur] != 1) {
      if (Mark[Cur] == 2)
        break; // joins an already-explored tail: no new cycle
      Mark[Cur] = 1;
      Path.push_back(Cur);
      Cur = EdgeTo[Cur];
    }
    bool Found = false;
    if (Cur != NoEdge && Mark[Cur] == 1) {
      OS << "wait cycle: ";
      bool In = false;
      for (uint32_t N : Path) {
        if (N == Cur)
          In = true;
        if (In)
          OS << "task " << N << " -> ";
      }
      OS << "task " << Cur << "\n";
      Found = true;
    }
    for (uint32_t N : Path)
      Mark[N] = 2;
    if (Found)
      break;
  }
  return Out;
}

std::string Engine::backtrace(TaskId Id) {
  uint32_t Idx = taskIndex(Id);
  if (Idx >= Tasks.size() || TaskGens[Idx] != taskGeneration(Id))
    return "<dead task>\n";
  Task &T = *Tasks[Idx];
  std::string Out;
  StringOutStream OS(Out);
  if (T.CurCode)
    OS << "  in " << T.CurCode->Name << " (pc " << T.Pc << ")\n";
  for (size_t I = T.Frames.size(); I > T.BaseFrame; --I) {
    const Frame &F = T.Frames[I - 1];
    if (F.CallerCode)
      OS << "  called from " << F.CallerCode->Name << " (pc " << F.RetPc
         << ")" << (F.IsSeam ? " [seam]" : "") << "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

void Engine::beginRun(Value Root, GroupId RootGroup) {
  RootFuture = Root;
  RootGroupId = RootGroup;
  RootClock = 0;
  RootDone = Root.isFuture() ? Root.pointee()->futureResolved() : true;
  if (RootDone)
    RootClock = TheMachine.homeFor(0).Clock;
}

Value Engine::rootValue() const {
  Value V = RootFuture;
  while (V.isFuture() && V.pointee()->futureResolved())
    V = V.pointee()->futureValue();
  return V;
}

EvalResult Engine::translateRunResult(const RunResult &RR, GroupId G) {
  EvalResult R;
  switch (RR.Status) {
  case RunStatus::Completed:
    R.K = EvalResult::Kind::Value;
    R.Val = RR.Result;
    group(G).State = GroupState::Done;
    return R;
  case RunStatus::GroupStopped:
    // Heap exhaustion inside a task stops its group (so the breakloop can
    // inspect and kill it) but callers match on the dedicated kind.
    R.K = RR.Error.compare(0, 14, "heap-exhausted") == 0
              ? EvalResult::Kind::HeapExhausted
              : EvalResult::Kind::RuntimeError;
    R.Error = RR.Error;
    R.StoppedGroup = RR.StoppedGroup;
    R.Heap = RR.Heap;
    return R;
  case RunStatus::Deadlock:
    R.K = EvalResult::Kind::Deadlock;
    R.Error = RR.Error;
    return R;
  case RunStatus::HeapExhausted:
    R.K = EvalResult::Kind::HeapExhausted;
    R.Error = RR.Error;
    R.Heap = RR.Heap;
    return R;
  case RunStatus::CycleLimit:
    R.K = EvalResult::Kind::CycleLimit;
    R.Error = RR.Error;
    return R;
  }
  R.K = EvalResult::Kind::RuntimeError;
  R.Error = "unknown run status";
  return R;
}

GroupId Engine::newGroup(std::string Banner) {
  GroupId Gid = static_cast<GroupId>(Groups.size());
  Group &G = Groups.emplace_back();
  G.Id = Gid;
  G.Banner = std::move(Banner);
  if (G.Banner.size() > 60)
    G.Banner.resize(60);
  G.Internal = Bootstrapping;
  if (Ten)
    Ten->onGroupCreated(G);
  return Gid;
}

TaskId Engine::newRootTask(GroupId Gid, Code *TopCode, unsigned Preferred,
                           std::string &Error) {
  // GC-safe order: the closure is protected via the group's RootFuture
  // only after both allocations, so allocate the future first and keep
  // the closure in a scanned slot.
  Group &G = group(Gid);
  Object *Fut = allocOrGc(TypeTag::Future, Object::FutureSizeWords);
  if (!Fut) {
    Error = "heap exhausted allocating root future";
    return InvalidTask;
  }
  Fut->setSlot(Object::FutState, Value::fixnum(0));
  Fut->setSlot(Object::FutValue, Value::unspecified());
  Fut->setSlot(Object::FutWaiters, Value::nil());
  Fut->setSlot(Object::FutTaskId, Value::fixnum(0));
  Fut->setSlot(Object::FutGroupId, Value::fixnum(Gid));
  G.RootFuture = Value::future(Fut);

  Object *Clo = allocOrGc(TypeTag::Closure, 1);
  if (!Clo) {
    Error = "heap exhausted allocating root closure";
    return InvalidTask;
  }
  Clo->setSlot(0, Registry.templateFor(TopCode));
  // Re-read the future: allocating the closure may have collected.
  Fut = G.RootFuture.pointee();
  TaskId Root = newTask(Gid, Value::object(Clo), G.RootFuture, Value::nil(),
                        TheMachine.homeFor(Preferred).Id);
  Fut->setSlot(Object::FutTaskId,
               Value::fixnum(static_cast<int64_t>(taskIndex(Root))));
  return Root;
}

EvalResult Engine::runTopLevel(Code *TopCode, std::string_view Banner) {
  // Each top-level expression runs as its own group, launched on
  // processor 0 — or, if it fail-stopped, the nearest survivor.
  GroupId Gid = newGroup(std::string(Banner));
  EvalResult R;
  TaskId Root = newRootTask(Gid, TopCode, 0, R.Error);
  if (Root == InvalidTask) {
    TheMachine.syncStats(*this); // the failed allocations were charged
    R.K = EvalResult::Kind::HeapExhausted;
    return R;
  }
  Processor &P0 = TheMachine.homeFor(0);
  P0.charge(P0.Queues.pushNew(Root, P0.Clock));

  beginRun(group(Gid).RootFuture, Gid);
  RunResult RR = TheMachine.run(*this);
  // Request latency for the multi-tenant story: every top-level eval is
  // one request, including the ones that end in a breakloop.
  Telem.record(TelemIds.EvalRequest, RR.ElapsedCycles);
  return translateRunResult(RR, Gid);
}

EvalResult Engine::evalDatum(Value Form, std::string_view Banner) {
  Compiler::Result CR = [&] {
    HostPhaseTimer HostCompile(Telem, Telemetry::Phase::Compile);
    return TheCompiler.compile(Form);
  }();
  if (!CR.ok()) {
    EvalResult R;
    R.K = EvalResult::Kind::CompileError;
    R.Error = CR.Error;
    return R;
  }
  return runTopLevel(CR.TopCode, Banner.empty() ? valueToString(Form)
                                                : std::string(Banner));
}

EvalResult Engine::eval(std::string_view Source) {
  Reader Rd(Builder, Source);
  EvalResult R;
  std::vector<Value> Forms = [&] {
    HostPhaseTimer HostRead(Telem, Telemetry::Phase::Read);
    return Rd.readAll(R.Error, &R.Incomplete);
  }();
  if (!R.Error.empty()) {
    R.K = EvalResult::Kind::ReadError;
    return R;
  }
  TheCompiler.prescanDefines(Forms);

  EvalResult Last;
  for (Value F : Forms) {
    Last = evalDatum(F);
    if (!Last.ok())
      return Last;
  }
  return Last;
}

std::vector<EvalResult>
Engine::evalGroups(const std::vector<GroupLaunch> &Launches) {
  return Tenancy::evalGroups(*this, Launches);
}

std::string Engine::takeOutput() {
  std::string Out = std::move(ConsoleBuf);
  ConsoleBuf.clear();
  return Out;
}

void Engine::resetStats() {
  // Compile stats are properties of the loaded program, not of a run;
  // they survive resets (benchmarks reset between timed runs).
  Stats = EngineStats();
  TheGc.resetStats();
  TheTracer.clear();
  // Telemetry values reset with the run; registrations, metric ids and
  // the per-site child table survive (sites are program facts).
  Telem.clear();
  if (RaceDet)
    RaceDet->clear(); // each measured run gets an independent verdict
  for (unsigned I = 0; I < TheMachine.numProcessors(); ++I) {
    Processor &P = TheMachine.processor(I);
    P.IdleCycles = 0;
    P.GcCycles = 0;
    P.ClockAtReset = P.Clock;
#ifndef NDEBUG
    P.BusyShadow = 0;
#endif
    P.Instructions = 0;
    P.Dispatches = 0;
    P.Steals = 0;
    P.StealAttempts = 0;
    P.StealsFailed = 0;
    P.StolenFrom = 0;
    P.TasksStarted = 0;
    P.HandlerActivations = 0;
    P.CheckpointsTaken = 0;
    P.LastCheckpointClock = 0;
    P.TraceIdling = false;
    P.Queues.resetHighWater();
  }
  // Open adaptation windows baselined against the counters just zeroed;
  // re-baseline them so window deltas never go negative. The learned
  // thresholds survive (a reset measures a run, it doesn't unlearn).
  TheMachine.rebaselineAdaptiveWindows();
}
