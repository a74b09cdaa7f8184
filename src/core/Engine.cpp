//===----------------------------------------------------------------------===//
///
/// \file
/// Engine implementation.
///
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "analysis/RaceDetect.h"
#include "lib/Prelude.h"
#include "reader/Reader.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Threaded.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace mult;

static Heap::Config heapConfig(const EngineConfig &C) {
  Heap::Config H;
  H.SemispaceWords = C.HeapWords;
  H.ChunkWords = C.ChunkWords;
  H.LargeObjectWords = C.LargeObjectWords;
  H.NumAllocators = C.NumProcessors;
  return H;
}

static CompilerOptions compilerOptions(const EngineConfig &C) {
  CompilerOptions O;
  O.EmitTouchChecks = C.EmitTouchChecks;
  O.OptimizeTouches = C.OptimizeTouches;
  O.IntegratePrims = C.IntegratePrims;
  return O;
}

static AdaptiveTConfig adaptiveConfig(const EngineConfig &C) {
  AdaptiveTConfig A;
  A.Enabled = C.AdaptiveInline;
  A.WindowCycles = C.AdaptiveWindowCycles ? C.AdaptiveWindowCycles : 1;
  A.MinT = C.AdaptiveMinT;
  A.MaxT = std::max(C.AdaptiveMaxT, C.AdaptiveMinT);
  A.Hysteresis = std::max(C.AdaptiveHysteresis, 1u);
  // The static threshold, when set and finite, seeds the adaptive one;
  // otherwise start from the paper's recommended T = 1.
  unsigned Start = C.InlineThreshold ? *C.InlineThreshold : 1u;
  A.StartT = std::clamp(Start, A.MinT, A.MaxT);
  return A;
}

Engine::Engine(const EngineConfig &Config)
    : Cfg(Config), TheHeap(heapConfig(Config)), Syms(TheHeap),
      Builder(TheHeap, Syms), Registry(TheHeap),
      TheCompiler(Builder, Registry, compilerOptions(Config)),
      TheGc(TheHeap, Config.NumProcessors),
      TheMachine(Config.NumProcessors, Config.QuantumCycles,
                 Config.MaxRunCycles, Config.StealPolicy,
                 adaptiveConfig(Config)),
      Rng(Config.RandomSeed), Telem(Config.NumProcessors) {
  // Well-known latency histograms, registered before any recording so
  // their ids are dense and stable. Always on: recording charges no
  // virtual time, so cycle counts are bit-identical either way.
  TelemIds.GcPause = Telem.histogram(
      "gc_pause_cycles", "virtual cycles per GC pause (rendezvous to resume)");
  TelemIds.TouchWait = Telem.histogram(
      "touch_wait_cycles", "virtual cycles a touch blocked until its future "
                           "resolved");
  TelemIds.StealLatency = Telem.histogram(
      "steal_latency_cycles", "virtual cycles a stolen task waited on its "
                              "victim queue (push to steal)");
  TelemIds.SemWait = Telem.histogram(
      "sem_wait_cycles", "virtual cycles a task blocked in semaphore-p until "
                         "the handing-off V");
  TelemIds.TaskLifetime = Telem.histogram(
      "task_lifetime_cycles", "virtual cycles from task creation to finish");
  TelemIds.EvalRequest = Telem.histogram(
      "eval_request_cycles", "virtual cycles per top-level eval request");
  TelemIds.EvalsTotal =
      Telem.counter("eval_requests_total", "top-level eval requests run");
  TelemIds.HostNsPerCycle = Telem.gauge(
      "host_ns_per_virtual_cycle", "host nanoseconds per simulated virtual "
                                   "cycle of the last measured run");
  TelemIds.RestartLatency = Telem.histogram(
      "supervisor_restart_latency_cycles",
      "virtual cycles from a supervised group's stop to its restart firing");
  TelemIds.AdmissionWait = Telem.histogram(
      "admission_queue_wait_cycles",
      "virtual cycles a launch waited in the admission queue");
  TelemetrySpec = Config.Telemetry;
  if (TelemetrySpec.empty())
    if (const char *Env = std::getenv("MULT_TELEMETRY"))
      TelemetrySpec = Env;
  if (const char *Env = std::getenv("MULT_RECOVERY"))
    Cfg.Recovery = !(Env[0] == '0' && Env[1] == '\0') &&
                   std::string_view(Env) != "off";
  if (const char *Env = std::getenv("MULT_CHECKPOINT")) {
    // A cycle interval; 0 or "off" disarms. Malformed values are ignored.
    std::string_view EnvS(Env);
    if (EnvS == "off") {
      Cfg.CheckpointEvery = 0;
    } else {
      char *End = nullptr;
      unsigned long long V = std::strtoull(Env, &End, 10);
      if (End && *End == '\0' && End != Env)
        Cfg.CheckpointEvery = V;
      else
        std::fprintf(stderr, "mult: ignoring MULT_CHECKPOINT: '%s' is not a "
                             "cycle count\n",
                     Env);
    }
  }
  if (const char *Env = std::getenv("MULT_RACE"))
    Cfg.RaceDetect = !(Env[0] == '0' && Env[1] == '\0') &&
                     std::string_view(Env) != "off";
  TheTracer.setEnabled(Config.EnableTracing);
  if (!Config.TraceSink.empty()) {
    std::string Err;
    if (!TheTracer.configureSink(Config.TraceSink, Err))
      std::fprintf(stderr, "mult: ignoring TraceSink: %s\n", Err.c_str());
  }
  RaceDetectOn = Cfg.RaceDetect;
  if (RaceDetectOn) {
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
  std::string FaultSpec = Config.Faults;
  if (FaultSpec.empty())
    if (const char *Env = std::getenv("MULT_FAULTS"))
      FaultSpec = Env;
  if (!FaultSpec.empty()) {
    std::string Err;
    if (!configureFaults(FaultSpec, Err))
      std::fprintf(stderr, "mult: ignoring MULT_FAULTS: %s\n", Err.c_str());
  }
  // Site policies name program sites, so sites interned at bootstrap are
  // unaffected (the prelude spawns no futures); load after bootstrap to
  // mirror the fault plan's lifecycle.
  std::string PolicyPath = Config.SitePolicies;
  if (PolicyPath.empty())
    if (const char *Env = std::getenv("MULT_SITE_POLICIES"))
      PolicyPath = Env;
  if (!PolicyPath.empty()) {
    std::string Err;
    if (!SitePolicyTab.loadFile(PolicyPath, Err))
      std::fprintf(stderr, "mult: ignoring MULT_SITE_POLICIES: %s\n",
                   Err.c_str());
  }
  // Tenant fault domains arm after bootstrap like the fault plan, so the
  // prelude's internal groups are never metered.
  QuotaShards.assign(Cfg.NumProcessors, {});
  if (Cfg.GroupHeapQuotaWords || Cfg.GroupCycleBudget || Cfg.MaxLiveGroups ||
      Cfg.MaxQueuedGroups)
    TenantOn = true;
  if (const char *Env = std::getenv("MULT_QUOTA")) {
    std::string Err;
    if (!configureQuota(Env, Err))
      std::fprintf(stderr, "mult: ignoring MULT_QUOTA: %s\n", Err.c_str());
  }
  std::string SuperSpec = Config.Supervise;
  if (SuperSpec.empty())
    if (const char *Env = std::getenv("MULT_SUPERVISE"))
      SuperSpec = Env;
  if (!SuperSpec.empty()) {
    std::string Err;
    if (!configureSupervisor(SuperSpec, Err))
      std::fprintf(stderr, "mult: ignoring MULT_SUPERVISE: %s\n", Err.c_str());
  }
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
  if (!TelemetrySpec.empty()) {
    std::string Err;
    if (!exportTelemetrySpec(Telem, TelemetrySpec, Err))
      std::fprintf(stderr, "mult: ignoring MULT_TELEMETRY: %s\n", Err.c_str());
  }
}

void Engine::recordTouchWait(Processor &P, uint32_t Site, uint64_t WaitCycles) {
  Telem.record(TelemIds.TouchWait, P.Id, WaitCycles);
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
    SiteTouchHists[Site] = Telem.histogram(
        "touch_wait_cycles", "virtual cycles a touch blocked until its future "
                             "resolved",
        "site", Name);
  }
  Telem.record(SiteTouchHists[Site], P.Id, WaitCycles);
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

Task &Engine::task(TaskId Id) {
  uint32_t Idx = taskIndex(Id);
  assert(Idx < Tasks.size() && TaskGens[Idx] == taskGeneration(Id) &&
         "stale task id");
  return *Tasks[Idx];
}

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

Group &Engine::group(GroupId Id) {
  assert(Id < Groups.size() && "bad group id");
  return Groups[Id];
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
  // Owner tag for tenant quota accounting: stamp the allocating group into
  // the header's spare halfword so the collector can tile live words per
  // group exactly. Computing it is a dormant bool test when quotas are off.
  uint16_t Aux = 0;
  if (TenantOn && !Bootstrapping && P.current() != InvalidTask) {
    GroupId Gid = task(P.current()).Group;
    if (Gid != InvalidGroup && Gid < Groups.size() && !Groups[Gid].Internal &&
        Gid + 1 <= 0xffff)
      Aux = static_cast<uint16_t>(Gid + 1);
  }
  Heap::AllocResult R =
      TheHeap.allocate(P.Id, P.Clock, Tag, SizeWords, Flags, Aux);
  Cycles += R.Cycles;
  if (Aux && R.Obj) {
    // Perfbook-style sharded charge: a private per-processor counter bump
    // on the hot path, flushed to the group at a coarse threshold and
    // exact-merged from the survivor tally at every collection.
    std::vector<uint64_t> &Shard = QuotaShards[P.Id];
    if (Shard.size() < Groups.size())
      Shard.resize(Groups.size(), 0);
    uint64_t &S = Shard[Aux - 1];
    S += R.Obj->totalWords();
    constexpr uint64_t kQuotaShardFlush = 1024;
    if (S >= kQuotaShardFlush) {
      Groups[Aux - 1].AllocWords += S;
      S = 0;
    }
  }
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
    // already updated Gc::Stats). Shard 0: a collection is machine-wide.
    Telem.record(TelemIds.GcPause, 0, TheGc.stats().Last.PauseCycles);
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
    if (TenantOn) {
      // Exact merge of the quota accounts: the survivor tally replaces
      // the allocation-charged upper bound (whatever was charged since
      // the last collection either got copied — and tallied — or was
      // garbage), so a group is only ever stopped for words it truly
      // holds live.
      for (size_t I = 0; I < Groups.size(); ++I) {
        Group &G = Groups[I];
        G.LiveWords = I < LiveTally.size() ? LiveTally[I] : 0;
        G.AllocWords = 0;
        if (!G.HeapQuotaWords || G.LiveWords <= G.HeapQuotaWords)
          G.QuotaGraceUsed = false;
      }
      for (std::vector<uint64_t> &Shard : QuotaShards)
        std::fill(Shard.begin(), Shard.end(), 0);
    }
    // Proc-kills that fired inside the collection (pollGcKill): the
    // collector already finished the victims' copy work on survivors;
    // with the heap whole again, perform the machine-level fail-stop and
    // the usual recovery. The victims' scanned tasks survived the
    // collection, so restore/re-spawn sees fresh to-space state.
    if (!PendingGcKills.empty()) {
      std::vector<PendingGcKill> Kills;
      Kills.swap(PendingGcKills);
      for (const PendingGcKill &K : Kills)
        if (!TheMachine.processor(K.Victim).Dead)
          TheMachine.failStop(*this, K.Victim, K.Mark, true);
    }
  } else {
    PendingGcKills.clear();
  }
  return Ok;
}

bool Engine::pollGcKill(uint64_t Clock, unsigned &Victim) {
  // Fault marks are run-relative; a collection triggered outside a run
  // (allocOrGc from a setup path) has no run clock to poll against.
  if (!Injector.armed() || !TheMachine.inRun())
    return false;
  uint64_t Start = TheMachine.runStartClock();
  FaultMark M;
  if (!Injector.takeMark(FaultClause::ProcKills,
                         Clock > Start ? Clock - Start : 0, M))
    return false;
  // The machine's quantum-poll guards, counting the kills already pending
  // in this collection; a victim doomed twice dies once.
  for (const PendingGcKill &K : PendingGcKills)
    if (K.Victim == M.Target)
      return false;
  if (TheMachine.killIsNoop(M.Target, unsigned(PendingGcKills.size())))
    return false;
  PendingGcKills.push_back({M.Target, M.At});
  Victim = M.Target;
  return true;
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
  if (TenantOn)
    LiveTally.assign(Groups.size(), 0);
  return CurrentPlan.StaticSegs + CurrentPlan.TaskSegs + 1;
}

void Engine::noteLiveObject(uint16_t Aux, uint32_t TotalWords) {
  if (Aux && size_t(Aux - 1) < LiveTally.size())
    LiveTally[Aux - 1] += TotalWords;
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
  if (MultiOn && Edge)
    onGroupTerminated(P.Id, P.Clock, G.Id);
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
  for (TaskId Parked : G->Parked) {
    if (Task *T = liveTask(Parked); T && T->State == TaskState::Stopped) {
      T->State = TaskState::Ready;
      Processor &Home = TheMachine.homeFor(T->LastProc);
      Home.Queues.pushSuspended(T->Id, Home.Clock);
    }
  }
  G->Parked.clear();
  G->State = GroupState::Running;
  StoppedStack.erase(
      std::remove(StoppedStack.begin(), StoppedStack.end(), Id),
      StoppedStack.end());

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
  if (MultiOn) {
    uint64_t Clock = 0;
    for (unsigned P = 0; P < TheMachine.numProcessors(); ++P)
      Clock = std::max(Clock, TheMachine.processor(P).Clock);
    onGroupTerminated(0, Clock, Id);
  }
}

//===----------------------------------------------------------------------===//
// Tenant fault domains: quotas, supervision, admission control
//===----------------------------------------------------------------------===//

namespace {

std::string_view trimSpec(std::string_view S) {
  while (!S.empty() && (S.front() == ' ' || S.front() == '\t'))
    S.remove_prefix(1);
  while (!S.empty() && (S.back() == ' ' || S.back() == '\t'))
    S.remove_suffix(1);
  return S;
}

bool parseSpecU64(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = uint64_t(C - '0');
    if (V > (~0ull - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

} // namespace

bool Engine::configureQuota(std::string_view Spec, std::string &Err) {
  std::string_view S = trimSpec(Spec);
  if (S == "off") {
    Cfg.GroupHeapQuotaWords = 0;
    Cfg.GroupCycleBudget = 0;
    Cfg.MaxLiveGroups = 0;
    Cfg.MaxQueuedGroups = 0;
    refreshTenantArmed();
    return true;
  }
  uint64_t HeapQ = Cfg.GroupHeapQuotaWords;
  uint64_t CycleB = Cfg.GroupCycleBudget;
  uint64_t Live = Cfg.MaxLiveGroups;
  uint64_t Queued = Cfg.MaxQueuedGroups;
  bool Any = false;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Next = S.find_first_of(";,", Pos);
    std::string_view C = trimSpec(
        Next == std::string_view::npos ? S.substr(Pos)
                                       : S.substr(Pos, Next - Pos));
    if (!C.empty()) {
      size_t Eq = C.find('=');
      uint64_t V = 0;
      bool Ok = Eq != std::string_view::npos &&
                parseSpecU64(trimSpec(C.substr(Eq + 1)), V);
      std::string_view Key =
          Eq == std::string_view::npos ? C : trimSpec(C.substr(0, Eq));
      if (Ok && Key == "heap") {
        HeapQ = V;
      } else if (Ok && Key == "cycles") {
        CycleB = V;
      } else if (Ok && Key == "live" && V <= 100000) {
        Live = V;
      } else if (Ok && Key == "queue" && V <= 100000) {
        Queued = V;
      } else {
        Err = strFormat("bad quota clause '%.*s' (want heap=WORDS, "
                        "cycles=N, live=N, queue=N, or off)",
                        int(C.size()), C.data());
        return false;
      }
      Any = true;
    }
    if (Next == std::string_view::npos)
      break;
    Pos = Next + 1;
  }
  if (!Any) {
    Err = "empty quota spec";
    return false;
  }
  Cfg.GroupHeapQuotaWords = HeapQ;
  Cfg.GroupCycleBudget = CycleB;
  Cfg.MaxLiveGroups = unsigned(Live);
  Cfg.MaxQueuedGroups = unsigned(Queued);
  TenantOn = true;
  return true;
}

bool Engine::configureSupervisor(std::string_view Spec, std::string &Err) {
  std::string_view S = trimSpec(Spec);
  if (S == "off") {
    SuperviseOn = false;
    refreshTenantArmed();
    return true;
  }
  Supervisor::Policy Pol;
  if (!Supervisor::parsePolicy(S, Pol, Err))
    return false;
  Super.setDefaultPolicy(Pol);
  SuperviseOn = true;
  TenantOn = true;
  return true;
}

void Engine::refreshTenantArmed() {
  TenantOn = SuperviseOn || Cfg.GroupHeapQuotaWords || Cfg.GroupCycleBudget ||
             Cfg.MaxLiveGroups || Cfg.MaxQueuedGroups;
}

void Engine::applyTenantDefaults(Group &G) {
  if (!TenantOn || G.Internal)
    return;
  G.HeapQuotaWords = Cfg.GroupHeapQuotaWords;
  G.CycleBudget = Cfg.GroupCycleBudget;
}

uint64_t Engine::groupHeapAccount(GroupId Id) const {
  if (Id >= Groups.size())
    return 0;
  const Group &G = Groups[Id];
  uint64_t Acct = G.LiveWords + G.AllocWords;
  for (const std::vector<uint64_t> &Shard : QuotaShards)
    if (Id < Shard.size())
      Acct += Shard[Id];
  return Acct;
}

void Engine::chargeGroupCycles(const Task &T, uint64_t BusyDelta) {
  if (T.Group == InvalidGroup || T.Group >= Groups.size())
    return;
  Group &G = Groups[T.Group];
  if (!G.Internal)
    G.CyclesUsed += BusyDelta;
}

bool Engine::pollTenant(Processor &P, Task &T) {
  if (T.Group == InvalidGroup || T.Group >= Groups.size())
    return false;
  Group &G = Groups[T.Group];
  if (G.Internal || G.State != GroupState::Running)
    return false;
  if (G.CycleBudget && G.CyclesUsed > G.CycleBudget) {
    ++Stats.BudgetStops;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::GroupBudgetStop, P.Id, P.Clock, G.Id,
                       G.CyclesUsed, G.CycleBudget);
    stopGroupRestartable(
        P, T,
        strFormat("group-cycle-budget: group %u (\"%s\") used %llu of %llu "
                  "budgeted cycles",
                  G.Id, G.Banner.c_str(), (unsigned long long)G.CyclesUsed,
                  (unsigned long long)G.CycleBudget));
    return true;
  }
  if (!G.HeapQuotaWords)
    return false;
  uint64_t Acct = groupHeapAccount(G.Id);
  if (Acct <= G.HeapQuotaWords)
    return false;
  if (!G.QuotaGraceUsed) {
    // The account is allocation-charged, an upper bound on live: grant one
    // free collection so garbage never trips a quota. The merge makes the
    // account exact; only truly held words are judged below.
    G.QuotaGraceUsed = true;
    ++Stats.QuotaGraceGcs;
    if (collectGarbage()) {
      Acct = groupHeapAccount(G.Id);
      if (Acct <= G.HeapQuotaWords)
        return false; // garbage, not live data: the merge cleared the flag
      G.QuotaGraceUsed = true;
    }
    // A wedged collector cannot refine the account; judge it as it stands.
  }
  ++Stats.QuotaStops;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::GroupQuotaStop, P.Id, P.Clock, G.Id,
                     Acct, G.HeapQuotaWords);
  stopGroupRestartable(
      P, T,
      strFormat("group-heap-quota: group %u (\"%s\") holds ~%llu live words "
                "of %llu quota",
                G.Id, G.Banner.c_str(), (unsigned long long)Acct,
                (unsigned long long)G.HeapQuotaWords));
  return true;
}

void Engine::onGroupTerminated(unsigned ProcId, uint64_t Clock, GroupId Gid) {
  TenantLaunch *L = nullptr;
  for (TenantLaunch &Cand : MLaunches)
    if (Cand.Gid == Gid) {
      L = &Cand;
      break;
    }
  if (!L || L->Terminal)
    return;
  // The multi-run "root" resolves when the last launch terminates; keep
  // its clock current so ElapsedCycles measures to the final event.
  RootClock = std::max(RootClock, Clock);
  Group &G = Groups[Gid];
  if (G.State == GroupState::Stopped && SuperviseOn) {
    switch (Super.onGroupStopped(Gid, Clock, G.Banner, G.Condition)) {
    case Supervisor::Verdict::RestartScheduled:
      return; // not terminal: the launch stays outstanding until it fires
    case Supervisor::Verdict::GaveUp:
      G.Condition = "supervisor-gave-up: " + G.Condition;
      ++Stats.SupervisorGaveUp;
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::SupervisorGaveUp, ProcId, Clock,
                         Gid, Super.restartsTaken(Gid), 0);
      break;
    case Supervisor::Verdict::Escalate:
      ++Stats.SupervisorEscalations;
      MEscalated = true;
      break;
    case Supervisor::Verdict::LeaveStopped:
      break;
    }
  }
  finalizeLaunch(Gid);
}

void Engine::finalizeLaunch(GroupId Gid) {
  for (TenantLaunch &L : MLaunches) {
    if (L.Gid != Gid || L.Terminal)
      continue;
    L.Terminal = true;
    if (L.Admitted && MLive)
      --MLive;
    if (MOutstanding)
      --MOutstanding;
    drainAdmissions();
    return;
  }
}

void Engine::drainAdmissions() {
  // Admitting a queued launch is one queue push — the task, group and
  // future were all created at evalGroups time, so this never allocates
  // no matter how deep in the scheduler the freed slot appeared.
  while (MQueueHead < MQueue.size() &&
         (Cfg.MaxLiveGroups == 0 || MLive < Cfg.MaxLiveGroups)) {
    TenantLaunch &L = MLaunches[MQueue[MQueueHead++]];
    if (L.Terminal)
      continue;
    Task *T = liveTask(L.Root);
    if (!T) {
      L.Terminal = true;
      if (MOutstanding)
        --MOutstanding;
      continue;
    }
    L.Admitted = true;
    ++MLive;
    ++Stats.GroupsAdmitted;
    Processor &Home = TheMachine.homeFor(T->LastProc);
    Home.Queues.pushNew(L.Root, Home.Clock);
    uint64_t Wait = Home.Clock > L.EnqueuedAt ? Home.Clock - L.EnqueuedAt : 0;
    Telem.record(TelemIds.AdmissionWait, Home.Id, Wait);
    Super.note(strFormat("admit: group %u \"%s\" from queue", L.Gid,
                         Groups[L.Gid].Banner.c_str()));
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::GroupAdmitted, Home.Id, Home.Clock,
                       L.Gid, Wait, 0);
  }
}

unsigned Engine::liveTenantGroups() const {
  unsigned N = 0;
  for (const Group &G : Groups)
    if (!G.Internal && G.State == GroupState::Running)
      ++N;
  return N;
}

void Engine::supervisorTick(Processor &P) {
  if (!SuperviseOn || !MultiOn)
    return;
  GroupId Gid;
  unsigned Attempt;
  uint64_t StopClock;
  while (Super.takeDue(P.Clock, Gid, Attempt, StopClock)) {
    if (Gid >= Groups.size() || Groups[Gid].State != GroupState::Stopped)
      continue; // shed, killed or resumed since the stop: the event is moot
    if (supervisorRestartGroup(P, Gid)) {
      ++Stats.SupervisorRestarts;
      Telem.record(TelemIds.RestartLatency, P.Id,
                   P.Clock > StopClock ? P.Clock - StopClock : 0);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::SupervisorRestart, P.Id, P.Clock,
                         Gid, Attempt, 0);
    } else {
      Group &G = Groups[Gid];
      Super.note(strFormat("gave-up: group %u \"%s\" (no restartable state)",
                           Gid, G.Banner.c_str()));
      G.Condition =
          "supervisor-gave-up: no restartable state (" + G.Condition + ")";
      ++Stats.SupervisorGaveUp;
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::SupervisorGaveUp, P.Id, P.Clock,
                         Gid, Attempt, 0);
      RootClock = std::max(RootClock, P.Clock);
      finalizeLaunch(Gid);
    }
  }
}

bool Engine::nextSupervisorEvent(uint64_t &Due) const {
  if (!SuperviseOn || !MultiOn)
    return false;
  return Super.nextEventClock(Due);
}

bool Engine::supervisorRestartGroup(Processor &P, GroupId Gid) {
  Group &G = Groups[Gid];
  Task *T = liveTask(G.CurrentTask);
  if (!T || T->State != TaskState::Stopped)
    return false;
  Processor &Home = TheMachine.homeFor(T->LastProc);
  if (T->StopRestartable) {
    // The faulting instruction never executed (quota/budget stops always
    // land here): make the task runnable again at the same pc.
    T->StopRestartable = false;
    T->State = TaskState::Ready;
    Home.Queues.pushSuspended(T->Id, Home.Clock);
  } else {
    auto It = G.Checkpoints.find(taskIndex(T->Id));
    if (It == G.Checkpoints.end() || It->second.Epoch != T->SideEffectEpoch)
      return false;
    // Restore from the newest epoch-valid checkpoint record, exactly as
    // fail-stop recovery does. The record stays in place: a second
    // restart before the next capture re-restores the same snapshot.
    const CheckpointRecord &R = It->second;
    uint64_t LostDelta = T->SinceCheckpoint;
    T->State = TaskState::Ready;
    T->LastProc = Home.Id;
    T->Stack = R.Stack;
    T->Frames = R.Frames;
    T->CurCode = R.CurCode;
    T->Pc = R.Pc;
    T->DynEnv = R.DynEnv;
    T->BlockedOn = Value::nil();
    T->HasWakeAction = false;
    T->WakePop = 0;
    T->WakeValue = Value::nil();
    T->StopCondition.clear();
    T->StopPop = 0;
    T->StopRestartable = false;
    T->UnstolenSeams = 0;
    T->BaseFrame = 0;
    T->SemaphoresHeld = R.SemaphoresHeld;
    T->DidIo = R.DidIo;
    T->SinceCheckpoint = 0;
    T->RecoveryCharged = 0;
    T->RecoveryBudget = LostDelta;
    T->Recovered = LostDelta > 0;
    Home.Queues.pushNew(T->Id, Home.Clock);
    ++Stats.TasksRestored;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::TaskRestored, P.Id, P.Clock, T->Id,
                       Home.Id, Gid);
  }
  for (TaskId Parked : G.Parked) {
    if (Task *PT = liveTask(Parked); PT && PT->State == TaskState::Stopped) {
      PT->State = TaskState::Ready;
      Processor &PHome = TheMachine.homeFor(PT->LastProc);
      PHome.Queues.pushSuspended(PT->Id, PHome.Clock);
    }
  }
  G.Parked.clear();
  G.State = GroupState::Running;
  G.Condition.clear();
  // A restart opens a fresh envelope: the cycle budget and the quota
  // grace collection both reset. The heap account does not — live words
  // are facts, and a group restarted over quota will trip again (and
  // eventually exhaust its restarts) unless it frees memory.
  G.CyclesUsed = 0;
  G.QuotaGraceUsed = false;
  StoppedStack.erase(
      std::remove(StoppedStack.begin(), StoppedStack.end(), Gid),
      StoppedStack.end());
  return true;
}

void Engine::applyQuotaSqueeze(Processor &P, unsigned Gid) {
  // A plan's group id is authored against one program; when it names no
  // live user group (REPL group ids drift with the prelude), fall back to
  // the lowest-id running user group so the clause still bites — the
  // choice is a pure function of group state at the clause's mark, so
  // replays stay bit-identical.
  if (Gid >= Groups.size() || Groups[Gid].Internal ||
      (Groups[Gid].State != GroupState::Running &&
       Groups[Gid].State != GroupState::Stopped)) {
    Gid = InvalidGroup;
    for (GroupId I = 0; I < Groups.size(); ++I)
      if (!Groups[I].Internal && Groups[I].State == GroupState::Running) {
        Gid = I;
        break;
      }
    if (Gid == InvalidGroup)
      return;
  }
  TenantOn = true;
  Group &G = Groups[Gid];
  uint64_t Acct = groupHeapAccount(Gid);
  G.HeapQuotaWords = std::max<uint64_t>(64, Acct / 2);
  G.QuotaGraceUsed = false;
  Super.note(strFormat("squeeze: group %u quota clamped to %llu words", Gid,
                       (unsigned long long)G.HeapQuotaWords));
  (void)P;
}

void Engine::admitSyntheticBurst(Processor &P, unsigned N) {
  TenantOn = true;
  unsigned AdmittedHere = 0;
  unsigned QueuedHere = 0;
  size_t QueueDepth = MQueue.size() - MQueueHead;
  for (unsigned I = 0; I < N; ++I) {
    // Earlier probes of the same burst occupy gate slots: the burst
    // models N launches arriving at once, not N independent singletons.
    unsigned Live = (MultiOn ? MLive : liveTenantGroups()) + AdmittedHere;
    if (Cfg.MaxLiveGroups == 0 || Live < Cfg.MaxLiveGroups)
      ++AdmittedHere, ++Stats.GroupsAdmitted;
    else if (QueueDepth + QueuedHere < Cfg.MaxQueuedGroups) {
      ++QueuedHere;
      ++Stats.GroupsQueued;
    } else {
      ++Stats.GroupsRejected;
    }
  }
  (void)P;
}

GroupId Engine::shedForPressure(Processor &P) {
  if (!MultiOn)
    return InvalidGroup;
  // Victim order: lowest priority first, then largest account, then
  // lowest group id — fully deterministic. Only quota-violating launches
  // are eligible; a group within its envelope is never shed.
  GroupId Victim = InvalidGroup;
  uint64_t VictimAcct = 0;
  int VictimPrio = 0;
  for (const TenantLaunch &L : MLaunches) {
    // A stopped one-shot launch is Terminal but still holds its heap
    // until killed or resumed — exactly the memory a shed must reclaim.
    // The state check below excludes Done/Killed groups.
    if (!L.Admitted || L.Gid == InvalidGroup)
      continue;
    Group &G = Groups[L.Gid];
    if (G.State != GroupState::Running && G.State != GroupState::Stopped)
      continue;
    if (!G.HeapQuotaWords)
      continue;
    uint64_t Acct = groupHeapAccount(L.Gid);
    if (Acct <= G.HeapQuotaWords)
      continue;
    bool Better = Victim == InvalidGroup || G.Priority < VictimPrio ||
                  (G.Priority == VictimPrio && Acct > VictimAcct);
    if (Better) {
      Victim = L.Gid;
      VictimAcct = Acct;
      VictimPrio = G.Priority;
    }
  }
  if (Victim == InvalidGroup)
    return InvalidGroup;
  Group &G = Groups[Victim];
  ++Stats.GroupsShed;
  G.Condition = strFormat(
      "group-shed: over heap quota (~%llu of %llu words) under global "
      "memory pressure",
      (unsigned long long)VictimAcct, (unsigned long long)G.HeapQuotaWords);
  Super.note(strFormat("shed: group %u \"%s\" priority %d", Victim,
                       G.Banner.c_str(), G.Priority));
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::GroupShed, P.Id, P.Clock, Victim,
                     VictimAcct, uint64_t(G.Priority));
  killGroup(Victim); // finalizes the launch via the MultiOn hook
  return Victim;
}

GroupId Engine::largestHeapGroup(uint64_t &Words) const {
  Words = 0;
  GroupId Best = InvalidGroup;
  for (const Group &G : Groups) {
    if (G.Internal)
      continue;
    if (G.State != GroupState::Running && G.State != GroupState::Stopped)
      continue;
    uint64_t Acct = groupHeapAccount(G.Id);
    if (Acct > Words) {
      Words = Acct;
      Best = G.Id;
    }
  }
  return Best;
}

bool Engine::noteGroupRootResolved(Object *Fut, uint64_t Clock) {
  for (TenantLaunch &L : MLaunches) {
    if (L.Terminal || L.Gid == InvalidGroup)
      continue;
    Group &G = Groups[L.Gid];
    if (!G.RootFuture.isFuture() || G.RootFuture.pointee() != Fut)
      continue;
    G.State = GroupState::Done;
    Super.note(strFormat("done: group %u \"%s\"", L.Gid, G.Banner.c_str()));
    L.Terminal = true;
    if (L.Admitted && MLive)
      --MLive;
    if (MOutstanding)
      --MOutstanding;
    RootClock = std::max(RootClock, Clock);
    drainAdmissions();
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Fail-stop recovery
//===----------------------------------------------------------------------===//

namespace {

/// Why a lost task cannot be re-executed from its spawn lineage. The
/// numeric values are the TaskOrphaned trace event's B payload.
enum class OrphanReason : unsigned {
  Recoverable = 0,
  NoLineage = 1,     ///< seam-split continuation: no spawn closure exists
  SemaphoreHeld = 2, ///< exclusion already observed by other tasks
  SeamObserved = 3,  ///< a thief split this task's stack; re-running
                     ///< would recompute frames the thief now owns
  DidIo = 4,         ///< output already reached the console
  Disabled = 5,      ///< EngineConfig::Recovery is off
};

const char *orphanReasonName(OrphanReason R) {
  switch (R) {
  case OrphanReason::Recoverable:
    return "recoverable";
  case OrphanReason::NoLineage:
    return "no spawn lineage";
  case OrphanReason::SemaphoreHeld:
    return "holds a semaphore";
  case OrphanReason::SeamObserved:
    return "stack split by a seam steal";
  case OrphanReason::DidIo:
    return "performed I/O";
  case OrphanReason::Disabled:
    return "recovery disabled";
  }
  return "?";
}

} // namespace

void Engine::recoverProcessor(Processor &P, Processor &Dead,
                              uint64_t DoomClock) {
  ++Stats.ProcsKilled;

  // Everything the processor took down with it: the task it was running
  // plus its queued backlog. The drain itself costs no virtual time —
  // recovery is scheduler firmware, not program work; the price the
  // program pays is the re-executed cycles, charged as the re-spawned
  // tasks run (EngineStats::RecoveryCycles).
  std::vector<TaskId> Lost;
  if (Dead.current() != InvalidTask) {
    Lost.push_back(Dead.current());
    Dead.setCurrent(InvalidTask);
  }
  uint64_t Scratch = 0;
  for (TaskId T; (T = Dead.Queues.popNew(Dead.Clock, Scratch)) != InvalidTask;)
    Lost.push_back(T);

  // The suspended queue splits in two. Entries that arrived *before* the
  // kill mark are genuine lost backlog. Entries at or after the mark are
  // post-mortem wakes: the kill is polled at quantum granularity, so
  // another processor can run past the mark and wake a task here (via
  // Machine::homeFor, which still saw this processor alive) before the
  // poll fires. Those tasks were never really on the dead processor —
  // their wake state (HasWakeAction, SemaphoresHeld from a semaphore
  // handoff) is intact and must not be re-spawned from lineage (double
  // execution) or orphaned (a spurious semaphore-held group stop); they
  // are redirected to the nearest survivor unchanged.
  std::vector<std::pair<TaskId, uint64_t>> PostMortemWakes;
  for (const auto &[T, Arrived] : Dead.Queues.drainSuspendedArrivals()) {
    if (Arrived >= DoomClock)
      PostMortemWakes.emplace_back(T, Arrived);
    else
      Lost.push_back(T);
  }
  for (const auto &[Id, Arrived] : PostMortemWakes) {
    Task *T = liveTask(Id);
    if (!T)
      continue;
    Group &G = group(T->Group);
    if (G.State == GroupState::Killed) {
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskDropped, P.Id, P.Clock, T->Id);
      finishTask(*T);
      continue;
    }
    if (G.State == GroupState::Stopped) {
      T->State = TaskState::Stopped;
      G.Parked.push_back(T->Id);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskParked, P.Id, P.Clock, T->Id);
      continue;
    }
    Processor &Home = TheMachine.homeFor(Dead.Id);
    T->LastProc = Home.Id;
    Home.Queues.pushSuspended(Id, Arrived);
    ++Stats.WakesRedirected;
  }

  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::ProcKilled, P.Id, P.Clock, Dead.Id,
                     Lost.size(), Stats.ProcsKilled);

  // Classify. A lost task is re-executable exactly when it still has its
  // spawn lineage and no other task can have observed anything it did:
  // plain memory writes are idempotent under the deterministic schedule
  // (re-running stores the same values), but a held semaphore, a seam
  // split (a thief owns part of the stack) or console output is an
  // observation that re-execution would double (see DESIGN.md).
  struct RecoverItem {
    Task *T;
    const CheckpointRecord *CP; ///< null = lineage re-spawn from scratch
  };
  std::vector<RecoverItem> Recover;
  std::vector<std::pair<Task *, OrphanReason>> Orphans;
  for (TaskId Id : Lost) {
    Task *T = liveTask(Id);
    if (!T)
      continue; // stale id; vetting would have dropped it on dispatch
    Group &G = group(T->Group);
    if (G.State == GroupState::Killed) {
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskDropped, P.Id, P.Clock, T->Id);
      finishTask(*T);
      continue;
    }
    if (G.State == GroupState::Stopped) {
      // The group is already in the breakloop; park the task so a resume
      // re-enqueues it like any other sibling.
      T->State = TaskState::Stopped;
      G.Parked.push_back(T->Id);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskParked, P.Id, P.Clock, T->Id);
      continue;
    }
    // Checkpointed recovery: a record whose side-effect epoch still
    // matches the task's (nothing observable happened since capture)
    // resumes the task from the snapshot. That trumps spawn-replay (only
    // the capture-to-kill delta is re-executed) *and* most orphan
    // reasons: the held semaphores, I/O, or missing lineage the orphan
    // rules fear date from before the capture, are baked into the
    // snapshot, and are never re-executed.
    if (Cfg.Recovery && Cfg.CheckpointEvery) {
      auto It = G.Checkpoints.find(taskIndex(T->Id));
      if (It != G.Checkpoints.end() &&
          It->second.Epoch == T->SideEffectEpoch) {
        Recover.push_back({T, &It->second});
        continue;
      }
    }
    OrphanReason Why = OrphanReason::Recoverable;
    if (!Cfg.Recovery)
      Why = OrphanReason::Disabled;
    else if (!T->SpawnClosure.isObject())
      Why = OrphanReason::NoLineage;
    else if (T->SemaphoresHeld > 0)
      Why = OrphanReason::SemaphoreHeld;
    else if (T->BaseFrame > 0)
      Why = OrphanReason::SeamObserved;
    else if (T->DidIo)
      Why = OrphanReason::DidIo;
    if (Why == OrphanReason::Recoverable)
      Recover.push_back({T, nullptr});
    else
      Orphans.emplace_back(T, Why);
  }

  // Re-spawn the recoverable tasks round-robin over the survivors,
  // starting after the dead processor so the load spreads the same way
  // every replay. initForThunk on the existing task keeps its id, group
  // and result future, so tasks blocked on it resolve as if nothing
  // happened — only the cycles are paid twice.
  unsigned N = TheMachine.numProcessors();
  unsigned Next = Dead.Id;
  for (const RecoverItem &Item : Recover) {
    Task *T = Item.T;
    do
      Next = (Next + 1) % N;
    while (TheMachine.processor(Next).Dead);
    Processor &Home = TheMachine.processor(Next);
    if (Item.CP) {
      // Resume from the snapshot. Only the busy cycles since the capture
      // were lost, so the recovery charge is budgeted to that delta —
      // which the capture policy bounds by CheckpointEvery + one quantum.
      const CheckpointRecord &R = *Item.CP;
      uint64_t LostDelta = T->SinceCheckpoint;
      T->State = TaskState::Ready;
      T->LastProc = Home.Id;
      T->Stack = R.Stack;
      T->Frames = R.Frames;
      T->CurCode = R.CurCode;
      T->Pc = R.Pc;
      T->DynEnv = R.DynEnv;
      T->BlockedOn = Value::nil();
      T->HasWakeAction = false;
      T->WakePop = 0;
      T->WakeValue = Value::nil();
      T->StopCondition.clear();
      T->StopPop = 0;
      T->StopRestartable = false;
      T->UnstolenSeams = 0; // capture eligibility guarantees none
      T->BaseFrame = 0;
      T->SemaphoresHeld = R.SemaphoresHeld;
      T->DidIo = R.DidIo;
      T->SinceCheckpoint = 0;
      T->RecoveryCharged = 0;
      T->RecoveryBudget = LostDelta;
      T->Recovered = LostDelta > 0;
      Home.Queues.pushNew(T->Id, Home.Clock);
      ++Stats.TasksRestored;
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskRestored, P.Id, P.Clock, T->Id,
                         Home.Id, Dead.Id);
      continue;
    }
    T->initForThunk(T->Id, T->Group, T->SpawnClosure, T->ResultFuture,
                    T->SpawnDynEnv, Home.Id);
    T->Recovered = true;
    Home.Queues.pushNew(T->Id, Home.Clock);
    ++Stats.TasksRecovered;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::TaskRecovered, P.Id, P.Clock, T->Id,
                       Home.Id, Dead.Id);
  }

  // Unrecoverable tasks stop their group with a breakloop-inspectable
  // condition naming every orphaned future, mirroring the heap-exhausted
  // degradation. The simulator still holds the orphans' state, so the
  // stop is restartable: resume deliberately breaks the fail-stop
  // fiction and continues them on a survivor.
  for (size_t I = 0; I < Orphans.size(); ++I) {
    auto [T, Why] = Orphans[I];
    ++Stats.TasksOrphaned;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::TaskOrphaned, P.Id, P.Clock, T->Id,
                       static_cast<uint64_t>(Why), Dead.Id);
    Group &G = group(T->Group);
    if (G.State == GroupState::Stopped) {
      // A prior orphan already stopped this group; join its parked set
      // and append to the condition so the breakloop names every orphan.
      T->State = TaskState::Stopped;
      G.Parked.push_back(T->Id);
      G.Condition += strFormat(", task %u (%s)", taskIndex(T->Id),
                               orphanReasonName(Why));
      continue;
    }
    stopGroupRestartable(
        P, *T,
        strFormat("processor-lost: processor %u failed; orphaned futures: "
                  "task %u (%s)",
                  Dead.Id, taskIndex(T->Id), orphanReasonName(Why)));
  }
}

void Engine::maybeCheckpoint(Processor &P, Task &T) {
  // Capture eligibility: the task must own its whole stack. An unstolen
  // seam could be stolen *after* the capture (the thief's future would
  // dangle in the snapshot), and a nonzero BaseFrame means the frames
  // below already belong to a thief's parent-continuation task.
  if (T.UnstolenSeams > 0 || T.BaseFrame > 0 || T.Frames.empty())
    return;
  if (T.Group == InvalidGroup)
    return;
  Group &G = group(T.Group);
  CheckpointRecord &R = G.Checkpoints[taskIndex(T.Id)];
  R.Stack = T.Stack;
  R.Frames = T.Frames;
  R.CurCode = T.CurCode;
  R.Pc = T.Pc;
  R.DynEnv = T.DynEnv;
  R.SemaphoresHeld = T.SemaphoresHeld;
  R.DidIo = T.DidIo;
  R.Epoch = T.SideEffectEpoch;
  R.CaptureClock = P.Clock;
  // Snapshot cost: a base plus one cycle per four copied words (a frame
  // is modelled as four words of resume state).
  uint64_t CopiedWords =
      uint64_t(R.Stack.size()) + uint64_t(R.Frames.size()) * 4;
  uint64_t Cost = cost::CheckpointBase + CopiedWords / 4;
  P.charge(Cost);
  ++Stats.CheckpointsTaken;
  Stats.CheckpointCycles += Cost;
  ++P.CheckpointsTaken;
  P.LastCheckpointClock = P.Clock;
  T.SinceCheckpoint = 0;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::CheckpointTaken, P.Id, P.Clock, T.Id,
                     Cost, R.Epoch);
}

bool Engine::checkByzantineReturn(Processor &P, Task &T) {
  bool ChecksArmed = Injector.crossChecksArmed();
  if (!P.Lying && !ChecksArmed)
    return false;
  if (T.Stack.empty())
    return false;
  Value &Result = T.Stack.back();
  // A lie only corrupts fixnum results (a corrupted pointer would crash
  // the simulator host, not model a wrong answer); the fault stays armed
  // until a fixnum-returning finish comes along.
  bool Lie = P.Lying && Result.isFixnum();
  // The draw is consumed on every armed finishing return, whether or not
  // a lie is pending, so the cross-check schedule is independent of the
  // lie schedule (and bit-deterministic under a fixed seed).
  bool Check = ChecksArmed && Injector.hit(FaultClause::CrossCheckProb);

  constexpr int64_t kLieXor = 0x2a;
  if (Lie && !Check) {
    // Undetected: the corrupted value propagates (and poisons whatever
    // consumed the future) exactly as a silently faulty processor would.
    Result = Value::fixnum(Result.asFixnum() ^ kLieXor);
    P.Lying = false;
    ++Stats.ByzantineLies;
    noteFault(P, FaultKind::ProcLie, P.Id);
    return false;
  }
  if (!Check)
    return false;

  // Cross-check: seed-deterministically re-execute the task on a
  // different live processor and compare. The checker is charged the
  // task's full busy history plus a fixed dispatch cost (BusyCyclesTotal
  // slightly undercounts the final partial quantum; deterministic, and
  // documented in DESIGN.md).
  unsigned CheckerId = P.Id;
  for (unsigned Off = 1; Off < TheMachine.numProcessors(); ++Off) {
    unsigned C = (P.Id + Off) % TheMachine.numProcessors();
    if (!TheMachine.processor(C).Dead) {
      CheckerId = C;
      break;
    }
  }
  Processor &Checker = TheMachine.processor(CheckerId);
  ++Stats.CrossChecks;
  Checker.charge(cost::CrossCheckBase + T.BusyCyclesTotal);
  if (!Lie)
    return false;

  // Caught: the lying processor reported the corrupted value, the checker
  // recomputed the honest one. Stop the group restartably with both
  // values in the condition; the lie is disarmed, so resume re-runs the
  // return and resolves the future honestly.
  int64_t Honest = Result.asFixnum();
  int64_t Reported = Honest ^ kLieXor;
  P.Lying = false;
  ++Stats.ByzantineLies;
  ++Stats.ByzantineDetected;
  noteFault(P, FaultKind::ProcLie, P.Id);
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::ByzantineDetected, P.Id, P.Clock, T.Id,
                     P.Id, uint64_t(Honest));
  stopGroupRestartable(
      P, T,
      strFormat("byzantine-detected: processor %u returned %lld for task %u; "
                "cross-check on processor %u recomputed %lld",
                P.Id, static_cast<long long>(Reported), taskIndex(T.Id),
                Checker.Id, static_cast<long long>(Honest)));
  return true;
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

EvalResult Engine::runTopLevel(Code *TopCode, std::string_view Banner) {
  EvalResult R;

  // Group for this top-level expression.
  GroupId Gid = static_cast<GroupId>(Groups.size());
  Groups.emplace_back();
  Group &G = Groups.back();
  G.Id = Gid;
  G.Banner = std::string(Banner);
  G.Internal = Bootstrapping;
  applyTenantDefaults(G);

  // Root closure and future (GC-safe: the closure is protected via the
  // group's RootFuture only after both allocations, so allocate the
  // future first and keep the closure in a scanned slot).
  Object *Fut = allocOrGc(TypeTag::Future, Object::FutureSizeWords);
  if (!Fut) {
    R.K = EvalResult::Kind::HeapExhausted;
    R.Error = "heap exhausted allocating root future";
    return R;
  }
  Fut->setSlot(Object::FutState, Value::fixnum(0));
  Fut->setSlot(Object::FutValue, Value::unspecified());
  Fut->setSlot(Object::FutWaiters, Value::nil());
  Fut->setSlot(Object::FutTaskId, Value::fixnum(0));
  Fut->setSlot(Object::FutGroupId, Value::fixnum(Gid));
  G.RootFuture = Value::future(Fut);

  Object *Clo = allocOrGc(TypeTag::Closure, 1);
  if (!Clo) {
    R.K = EvalResult::Kind::HeapExhausted;
    R.Error = "heap exhausted allocating root closure";
    return R;
  }
  Clo->setSlot(0, Registry.templateFor(TopCode));
  // Re-read the future: allocating the closure may have collected.
  Fut = G.RootFuture.pointee();

  // Launch on processor 0 — or, if it fail-stopped, the nearest survivor.
  Processor &P0 = TheMachine.homeFor(0);
  TaskId Root = newTask(Gid, Value::object(Clo), G.RootFuture,
                        Value::nil(), P0.Id);
  Fut->setSlot(Object::FutTaskId,
               Value::fixnum(static_cast<int64_t>(taskIndex(Root))));

  P0.charge(P0.Queues.pushNew(Root, P0.Clock));

  beginRun(G.RootFuture, Gid);
  RunResult RR = TheMachine.run(*this);
  // Request latency for the multi-tenant story: every top-level eval is
  // one request, including the ones that end in a breakloop.
  Telem.add(TelemIds.EvalsTotal, P0.Id);
  Telem.record(TelemIds.EvalRequest, P0.Id, RR.ElapsedCycles);
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
  std::string Text =
      Banner.empty() ? valueToString(Form) : std::string(Banner);
  if (Text.size() > 60)
    Text.resize(60);
  return runTopLevel(CR.TopCode, Text);
}

EvalResult Engine::eval(std::string_view Source) {
  Reader Rd(Builder, Source);
  std::string Err;
  std::vector<Value> Forms = [&] {
    HostPhaseTimer HostRead(Telem, Telemetry::Phase::Read);
    return Rd.readAll(Err);
  }();
  if (!Err.empty()) {
    EvalResult R;
    R.K = EvalResult::Kind::ReadError;
    R.Error = Err;
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
  std::vector<EvalResult> Results(Launches.size());
  if (Launches.empty())
    return Results;
  for (const GroupLaunch &L : Launches)
    if (L.HeapQuotaWords || L.CycleBudget || !L.Supervise.empty())
      TenantOn = true;

  Super.beginRun();
  MLaunches.clear();
  MQueue.clear();
  MQueueHead = 0;
  MLive = 0;
  MOutstanding = 0;
  MEscalated = false;

  // Create every group, root future and root task up front. The admission
  // drain is then a single queue push from arbitrarily deep in the
  // scheduler — it never allocates mid-run.
  unsigned NP = TheMachine.numProcessors();
  for (size_t I = 0; I < Launches.size(); ++I) {
    const GroupLaunch &L = Launches[I];
    TenantLaunch TL;
    Reader Rd(Builder, L.Source);
    std::string Err;
    std::vector<Value> Forms = [&] {
      HostPhaseTimer HostRead(Telem, Telemetry::Phase::Read);
      return Rd.readAll(Err);
    }();
    if (!Err.empty() || Forms.size() != 1) {
      Results[I].K = EvalResult::Kind::ReadError;
      Results[I].Error =
          !Err.empty() ? Err
                       : (Forms.empty() ? "empty launch source"
                                        : "a launch must be a single form");
      TL.Terminal = true;
      MLaunches.push_back(TL);
      continue;
    }
    Compiler::Result CR = [&] {
      HostPhaseTimer HostCompile(Telem, Telemetry::Phase::Compile);
      return TheCompiler.compile(Forms[0]);
    }();
    if (!CR.ok()) {
      Results[I].K = EvalResult::Kind::CompileError;
      Results[I].Error = CR.Error;
      TL.Terminal = true;
      MLaunches.push_back(TL);
      continue;
    }

    GroupId Gid = static_cast<GroupId>(Groups.size());
    Groups.emplace_back();
    Group &G = Groups.back();
    G.Id = Gid;
    G.Banner = valueToString(Forms[0]);
    if (G.Banner.size() > 60)
      G.Banner.resize(60);
    applyTenantDefaults(G);
    if (L.HeapQuotaWords)
      G.HeapQuotaWords = L.HeapQuotaWords;
    if (L.CycleBudget)
      G.CycleBudget = L.CycleBudget;
    G.Priority = L.Priority;
    if (!L.Supervise.empty()) {
      Supervisor::Policy Pol;
      std::string PErr;
      if (Supervisor::parsePolicy(L.Supervise, Pol, PErr)) {
        Super.setGroupPolicy(Gid, Pol);
        SuperviseOn = true;
        TenantOn = true;
      } else {
        std::fprintf(stderr, "mult: ignoring launch policy: %s\n",
                     PErr.c_str());
      }
    }

    // Root future and closure, same GC discipline as runTopLevel.
    Object *Fut = allocOrGc(TypeTag::Future, Object::FutureSizeWords);
    if (!Fut) {
      Results[I].K = EvalResult::Kind::HeapExhausted;
      Results[I].Error = "heap exhausted allocating root future";
      G.State = GroupState::Killed;
      TL.Terminal = true;
      MLaunches.push_back(TL);
      continue;
    }
    Fut->setSlot(Object::FutState, Value::fixnum(0));
    Fut->setSlot(Object::FutValue, Value::unspecified());
    Fut->setSlot(Object::FutWaiters, Value::nil());
    Fut->setSlot(Object::FutTaskId, Value::fixnum(0));
    Fut->setSlot(Object::FutGroupId, Value::fixnum(Gid));
    G.RootFuture = Value::future(Fut);

    Object *Clo = allocOrGc(TypeTag::Closure, 1);
    if (!Clo) {
      Results[I].K = EvalResult::Kind::HeapExhausted;
      Results[I].Error = "heap exhausted allocating root closure";
      G.State = GroupState::Killed;
      TL.Terminal = true;
      MLaunches.push_back(TL);
      continue;
    }
    Clo->setSlot(0, Registry.templateFor(CR.TopCode));
    Fut = G.RootFuture.pointee();

    // Home processors round-robin so a single-tenant hot spot cannot
    // starve the others' root launches.
    Processor &Home = TheMachine.homeFor(unsigned(I % NP));
    TaskId Root =
        newTask(Gid, Value::object(Clo), G.RootFuture, Value::nil(), Home.Id);
    Fut->setSlot(Object::FutTaskId,
                 Value::fixnum(static_cast<int64_t>(taskIndex(Root))));

    TL.Gid = Gid;
    TL.Root = Root;
    TL.EnqueuedAt = Home.Clock;
    ++MOutstanding;
    Telem.add(TelemIds.EvalsTotal, Home.Id);
    MLaunches.push_back(TL);
  }

  // Admission gate: the first MaxLiveGroups launches run, the next
  // MaxQueuedGroups wait (FIFO), the rest are rejected outright.
  for (size_t I = 0; I < MLaunches.size(); ++I) {
    TenantLaunch &L = MLaunches[I];
    if (L.Terminal || L.Gid == InvalidGroup)
      continue;
    Task *T = liveTask(L.Root);
    Processor &Home = TheMachine.homeFor(T ? T->LastProc : 0);
    if (Cfg.MaxLiveGroups == 0 || MLive < Cfg.MaxLiveGroups) {
      L.Admitted = true;
      ++MLive;
      ++Stats.GroupsAdmitted;
      Home.charge(Home.Queues.pushNew(L.Root, Home.Clock));
      Telem.record(TelemIds.AdmissionWait, Home.Id, 0);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::GroupAdmitted, Home.Id, Home.Clock,
                         L.Gid, 0, 0);
    } else if (MQueue.size() - MQueueHead < Cfg.MaxQueuedGroups) {
      MQueue.push_back(I);
      ++Stats.GroupsQueued;
      Super.note(strFormat("queue: group %u \"%s\"", L.Gid,
                           Groups[L.Gid].Banner.c_str()));
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::GroupQueued, Home.Id, Home.Clock,
                         L.Gid, 0, 0);
    } else {
      ++Stats.GroupsRejected;
      Groups[L.Gid].Condition =
          "admission-rejected: live and queued launch limits reached";
      Super.note(strFormat("reject: group %u \"%s\"", L.Gid,
                           Groups[L.Gid].Banner.c_str()));
      killGroup(L.Gid); // MultiOn is still off: no termination hook fires
      L.Terminal = true;
      if (MOutstanding)
        --MOutstanding;
    }
  }

  RunResult RR;
  if (MOutstanding) {
    beginRun(Value::nil(), InvalidGroup);
    MultiOn = true;
    RR = TheMachine.run(*this);
    MultiOn = false;
  }

  // Per-launch results from the groups' final states.
  for (size_t I = 0; I < MLaunches.size(); ++I) {
    TenantLaunch &L = MLaunches[I];
    if (L.Gid == InvalidGroup)
      continue; // read/compile/alloc error already recorded
    Group &G = Groups[L.Gid];
    EvalResult &R = Results[I];
    switch (G.State) {
    case GroupState::Done: {
      R.K = EvalResult::Kind::Value;
      Value V = G.RootFuture;
      while (V.isFuture() && V.pointee()->futureResolved())
        V = V.pointee()->futureValue();
      R.Val = V;
      break;
    }
    case GroupState::Stopped:
      R.K = G.Condition.compare(0, 14, "heap-exhausted") == 0
                ? EvalResult::Kind::HeapExhausted
                : EvalResult::Kind::RuntimeError;
      R.Error = G.Condition;
      R.StoppedGroup = L.Gid;
      break;
    case GroupState::Killed:
      if (R.K == EvalResult::Kind::Value && R.Error.empty()) {
        R.K = EvalResult::Kind::RuntimeError;
        R.Error = G.Condition.empty() ? "group-killed" : G.Condition;
        R.StoppedGroup = L.Gid;
      }
      break;
    case GroupState::Running:
      // The run ended before this launch finished: escalation, deadlock
      // among other groups, the cycle watchdog, or a gate that never
      // opened.
      R.K = RR.Status == RunStatus::Deadlock ? EvalResult::Kind::Deadlock
            : RR.Status == RunStatus::CycleLimit
                ? EvalResult::Kind::CycleLimit
                : EvalResult::Kind::RuntimeError;
      R.Error = MEscalated
                    ? "run-escalated: a supervised group's policy ended "
                      "the run"
                : !L.Admitted
                    ? "admission-starved: the gate never opened"
                    : (RR.Error.empty() ? "run ended early" : RR.Error);
      break;
    }
  }

  // Launches the run abandoned (escalation, watchdog) still have runnable
  // tasks in processor queues; kill them so a later eval cannot dispatch
  // a half-finished tenant. Stopped groups stay inspectable.
  for (TenantLaunch &L : MLaunches) {
    if (L.Gid == InvalidGroup || L.Terminal)
      continue;
    if (Groups[L.Gid].State == GroupState::Running)
      killGroup(L.Gid);
    L.Terminal = true;
  }
  return Results;
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
    P.BusyCycles = 0;
    P.IdleCycles = 0;
    P.GcCycles = 0;
    P.ClockAtReset = P.Clock;
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
