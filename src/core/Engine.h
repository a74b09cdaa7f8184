//===----------------------------------------------------------------------===//
///
/// \file
/// The Mul-T engine: the public API of the library.
///
/// An Engine owns the heap, the symbol table, the compiler, the virtual
/// multiprocessor, the task/group registries and the collector, and exposes
/// `eval` plus group management (the paper's user-interface layer builds on
/// this). Construct one Engine per simulated machine; it is not
/// thread-safe (the multiprocessor is simulated in virtual time).
///
/// Typical use:
/// \code
///   mult::EngineConfig Cfg;
///   Cfg.NumProcessors = 8;
///   Cfg.InlineThreshold = 1; // the paper's T
///   mult::Engine E(Cfg);
///   auto R = E.eval("(touch (future (+ 1 2)))");
///   // R.Val is fixnum 3; E.stats() has cycle counts.
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_ENGINE_H
#define MULT_CORE_ENGINE_H

#include "compiler/CodeGen.h"
#include "core/Group.h"
#include "core/Recovery.h"
#include "core/SitePolicies.h"
#include "fault/Injector.h"
#include "core/Stats.h"
#include "core/Task.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "runtime/Gc.h"
#include "runtime/Heap.h"
#include "runtime/SymbolTable.h"
#include "sched/Machine.h"
#include "support/OutStream.h"
#include "support/Prng.h"

#include <cassert>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace mult {

class RaceDetector;
class Tenancy;
struct DecodedCode;

/// Construction-time configuration of a simulated Mul-T machine.
struct EngineConfig {
  /// Number of virtual processors (the Multimax had up to 20).
  unsigned NumProcessors = 1;
  /// The inlining threshold T of paper section 3: a processor evaluates a
  /// future inline when its queues already hold >= T tasks. nullopt means
  /// T = infinity (never inline); 0 means always inline.
  std::optional<unsigned> InlineThreshold;
  /// Lazy futures (paper section 3's proposed mechanism): provisionally
  /// inline every future; idle processors may retroactively split the
  /// parent off as a real task.
  bool LazyFutures = false;
  /// Adaptive inlining threshold (sched/Adaptive.h): each processor
  /// re-tunes its own T in fixed virtual-time windows from its steal
  /// activity and queue backlog. InlineThreshold (when set and finite)
  /// seeds the starting T; with this off the static threshold applies
  /// unchanged. Deterministic: same seed, same schedule.
  bool AdaptiveInline = false;
  /// Adaptation window length in per-processor virtual cycles.
  uint64_t AdaptiveWindowCycles = 4096;
  /// Bounds the adaptive T may move within, and the vote count needed
  /// before it moves (see AdaptiveTConfig).
  unsigned AdaptiveMinT = 0;
  unsigned AdaptiveMaxT = 16;
  unsigned AdaptiveHysteresis = 2;
  /// Path to a site-policy file (core/SitePolicies.h): per-future-site
  /// eager/inline/lazy decisions, typically emitted by the critical-path
  /// profiler (`:profile FILE`). Empty falls back to the
  /// MULT_SITE_POLICIES environment variable; load errors are reported to
  /// stderr at construction and the table stays empty.
  std::string SitePolicies;
  /// Compile implicit touches for strict operations. false = "T3 mode",
  /// the sequential baseline of Table 2.
  bool EmitTouchChecks = true;
  /// Run the first-order type analysis that removes redundant touches.
  bool OptimizeTouches = true;
  /// Compile known primitive names to open-coded/called primitives.
  bool IntegratePrims = true;

  size_t HeapWords = size_t(1) << 22;
  size_t ChunkWords = 4096;
  size_t LargeObjectWords = 512;
  /// Per-task stack limit, enforced by the procedure-entry check.
  size_t MaxStackWords = size_t(1) << 20;

  uint64_t RandomSeed = 0x4d756c54; // "MulT"
  /// Timeslice granularity of the virtual-time interleaving.
  uint64_t QuantumCycles = 64;
  /// Safety net against runaway programs; ~0 = unlimited. Exceeding it
  /// abandons the run with EvalResult::Kind::CycleLimit.
  uint64_t MaxRunCycles = ~uint64_t(0);
  /// Per-run cycle *budget* for the watchdog: unlike MaxRunCycles (which
  /// abandons the run), exceeding MaxCycles stops the running group with a
  /// `cycle-budget-exhausted` condition — breakloop-inspectable, resumable
  /// (with a fresh budget) or killable. ~0 = unlimited.
  uint64_t MaxCycles = ~uint64_t(0);
  StealOrder StealPolicy = StealOrder::Lifo;
  /// Load the Lisp prelude at construction (tests may disable).
  bool LoadPrelude = true;
  /// Record the virtual-time event trace (src/obs). Costs no virtual time
  /// either way; off by default so benches pay nothing. Can also be
  /// toggled at run time via Engine::tracer().setEnabled.
  bool EnableTracing = false;
  /// Trace sink spec: "" / "unbounded", "ring:N", or "stream[:PATH]"
  /// (see Tracer::configureSink). Malformed specs are reported to stderr
  /// at construction and the default unbounded sink is kept.
  std::string TraceSink;
  /// Deterministic fault-plan spec (see FaultPlan.h for the grammar).
  /// Empty falls back to the MULT_FAULTS environment variable; malformed
  /// specs are reported to stderr at construction and ignored. The plan
  /// arms after bootstrap, so the prelude always loads cleanly.
  std::string Faults;
  /// Lineage-based task recovery after a proc-kill fault: lost futures
  /// with no observed side effects are re-spawned on survivors. When off
  /// (MULT_RECOVERY=0), every task lost to a fail-stop is orphaned and
  /// its group stops with a `processor-lost` condition. Irrelevant when
  /// no proc-kill clause ever fires.
  bool Recovery = true;
  /// Checkpointed recovery interval (MULT_CHECKPOINT): when nonzero, a
  /// task that has executed this many busy cycles since its last capture
  /// is snapshotted at its next quantum boundary (if it owns its whole
  /// stack — no live seams), and a proc-kill restores it from the newest
  /// snapshot instead of re-running it from its spawn. Bounds the
  /// per-task recovery charge to CheckpointEvery + QuantumCycles.
  /// 0 = off (PR 5 spawn-replay semantics, bit-identical).
  uint64_t CheckpointEvery = 0;
  /// Telemetry export spec, "json:PATH": when the engine is destroyed it
  /// appends its whole registry to PATH as one JSON object on one line
  /// (exportJson in obs/Telemetry.h), so engines sharing a path leave one
  /// record each. Empty falls back to the MULT_TELEMETRY environment
  /// variable; empty both ways means no export (the registry still
  /// records -- recording is always on and costs no virtual time).
  std::string Telemetry;
  /// Determinacy-race detection (src/analysis, MULT_RACE): instrument
  /// box/vector/dynamic-env accesses with trace events and run the online
  /// SP-relation checker against the stream. Forces tracing on (the
  /// detector is a stream consumer) but charges no virtual time, so cycle
  /// counts are bit-identical either way; when off, every instrumentation
  /// site is a single dormant bool test.
  bool RaceDetect = false;

  /// \name Tenant fault domains (core/Tenancy.h; DESIGN.md "Tenant fault
  /// domains"). All dormant (bit-identical schedules) unless one of these
  /// fields, MULT_QUOTA / MULT_SUPERVISE, `:quota` / `:supervise`, a
  /// quota-squeeze fault clause, or an evalGroups launch arms the layer.
  /// @{
  /// Default per-group live-words heap quota applied to every new
  /// non-internal group; 0 = unlimited.
  uint64_t GroupHeapQuotaWords = 0;
  /// Default per-group busy-cycle budget; 0 = unlimited.
  uint64_t GroupCycleBudget = 0;
  /// Admission gate for evalGroups launches: at most this many launched
  /// groups run concurrently (0 = unlimited); the next MaxQueuedGroups
  /// wait in deterministic FIFO order, the rest are rejected outright.
  unsigned MaxLiveGroups = 0;
  unsigned MaxQueuedGroups = 0;
  /// Default supervision policy spec ("one-shot" | "escalate" |
  /// "restart[:max=N,backoff=B]"). Empty falls back to MULT_SUPERVISE;
  /// empty both ways leaves the supervisor off.
  std::string Supervise;
  /// @}
};

/// Result of Engine::eval and friends.
struct EvalResult {
  enum class Kind : uint8_t {
    Value,
    ReadError,
    CompileError,
    RuntimeError, ///< A group stopped on an exception.
    Deadlock,
    HeapExhausted,
    CycleLimit,
  };
  Kind K = Kind::Value;
  Value Val = Value::unspecified();
  std::string Error;
  GroupId StoppedGroup = InvalidGroup;
  /// Heap occupancy at the point of failure; meaningful for
  /// HeapExhausted (zeroed otherwise).
  HeapFacts Heap;

  bool ok() const { return K == Kind::Value; }
};

/// One tenant launch for Engine::evalGroups: a source form plus its
/// resource envelope. Zero fields inherit the EngineConfig defaults.
struct GroupLaunch {
  /// A single top-level form to evaluate as the group's root.
  std::string Source;
  /// Live-words heap quota (0 = EngineConfig::GroupHeapQuotaWords).
  uint64_t HeapQuotaWords = 0;
  /// Busy-cycle budget (0 = EngineConfig::GroupCycleBudget).
  uint64_t CycleBudget = 0;
  /// Load-shedding priority; lower sheds first.
  int Priority = 0;
  /// Per-group supervision policy spec; empty = the engine default.
  std::string Supervise;
};

/// The engine.
class Engine final : public GcClient {
public:
  explicit Engine(const EngineConfig &Config = EngineConfig());
  ~Engine() override;

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// \name Evaluation
  /// @{
  /// Reads and evaluates every form in \p Source; returns the last value.
  /// Each top-level form runs as its own group.
  EvalResult eval(std::string_view Source);
  /// Evaluates one already-read datum.
  EvalResult evalDatum(Value Form, std::string_view Banner = "");
  /// Launches every entry as its own concurrent group through the tenant
  /// admission gate and runs them to quiescence under quotas, budgets and
  /// the supervisor; returns one result per launch, in order. Groups stop
  /// independently: one tenant tripping its quota never ends the others'
  /// run (unless its policy escalates).
  std::vector<EvalResult> evalGroups(const std::vector<GroupLaunch> &Launches);
  /// @}

  /// \name Group management (the UI layer of paper section 2.3)
  /// @{
  const std::vector<Group> &allGroups() const { return Groups; }
  Group *findGroup(GroupId Id);
  std::vector<GroupId> stoppedGroups() const;
  /// Resumes a stopped group; \p ResumeValue becomes the value of the
  /// erring operation in the signalling task.
  EvalResult resumeGroup(GroupId Id, Value ResumeValue);
  void killGroup(GroupId Id);
  /// Most recently stopped group (the UI's "current group").
  GroupId currentStoppedGroup() const {
    return StoppedStack.empty() ? InvalidGroup : StoppedStack.back();
  }
  /// Renders a backtrace of \p T (frame names, innermost first).
  std::string backtrace(TaskId T);
  /// @}

  /// \name Output
  /// @{
  /// Returns and clears everything the program printed.
  std::string takeOutput();
  /// @}

  /// \name Statistics and observability
  /// @{
  EngineStats &stats() { return Stats; }
  const Gc::Stats &gcStats() const { return TheGc.stats(); }
  const CompileStats &compileStats() const { return TheCompiler.stats(); }
  /// The virtual-time event recorder (cleared by resetStats).
  Tracer &tracer() { return TheTracer; }
  const Tracer &tracer() const { return TheTracer; }
  void resetStats();

  /// \name Always-on latency telemetry (src/obs/Telemetry.h)
  ///
  /// Recording never charges virtual time, so cycle counts are
  /// bit-identical with or without anyone reading the histograms.
  /// Values are cleared by resetStats; registrations and ids persist.
  /// @{
  Telemetry &telemetry() { return Telem; }
  const Telemetry &telemetry() const { return Telem; }
  /// Well-known metric ids, registered once at construction.
  struct TelemetryIds {
    Telemetry::Id GcPause = Telemetry::InvalidId;     ///< per-collection pause
    Telemetry::Id TouchWait = Telemetry::InvalidId;   ///< touch-block -> resolve
    Telemetry::Id StealLatency = Telemetry::InvalidId;///< queue push -> steal
    Telemetry::Id SemWait = Telemetry::InvalidId;     ///< sem-P block -> V wake
    Telemetry::Id TaskLifetime = Telemetry::InvalidId;///< create -> finish
    Telemetry::Id EvalRequest = Telemetry::InvalidId; ///< top-level eval cycles
    Telemetry::Id RestartLatency = Telemetry::InvalidId; ///< stop -> restart fires
    Telemetry::Id AdmissionWait = Telemetry::InvalidId;  ///< queue -> admitted
  };
  const TelemetryIds &telemetryIds() const { return TelemIds; }
  /// Records one touch-wait sample into the global histogram and the
  /// per-site child keyed by \p Site (a Tracer::futureSiteId; ~0 =
  /// unknown site, global only).
  void recordTouchWait(uint32_t Site, uint64_t WaitCycles);
  /// @}

  /// \name Internals used by the VM, scheduler and primitives
  /// @{
  const EngineConfig &config() const { return Cfg; }
  Heap &heap() { return TheHeap; }
  SymbolTable &symbols() { return Syms; }
  DatumBuilder &builder() { return Builder; }
  Compiler &compiler() { return TheCompiler; }
  Machine &machine() { return TheMachine; }
  Prng &prng() { return Rng; }
  OutStream &console() { return ConsoleStream; }
  VirtualLock &terminalLock() { return TermLock; }

  /// Allocates a collectable object on behalf of \p P, adding the cycle
  /// charge to \p Cycles. Null means: request a GC and retry the
  /// instruction.
  Object *tryAlloc(Processor &P, TypeTag Tag, uint32_t SizeWords,
                   uint64_t &Cycles, uint8_t Flags = 0);

  /// Inline: the run loop looks up the running task and its group on
  /// every step.
  Task &task(TaskId Id) {
    uint32_t Idx = taskIndex(Id);
    assert(Idx < Tasks.size() && TaskGens[Idx] == taskGeneration(Id) &&
           "stale task id");
    return *Tasks[Idx];
  }
  /// Null if the id's generation is stale or the task is Done.
  Task *liveTask(TaskId Id);
  /// The task currently occupying registry slot \p Idx, regardless of
  /// generation; null when out of range or Done. Callers must validate
  /// the slot really is the task they mean (e.g. its ResultFuture) --
  /// used by the touch-wait telemetry to map a future back to the
  /// spawning site via the FutTaskId slot.
  Task *taskByIndex(uint32_t Idx);
  Group &group(GroupId Id) {
    assert(Id < Groups.size() && "bad group id");
    return Groups[Id];
  }
  /// Creates (or recycles) a task running \p Closure. \p Parent is the
  /// creating task (the future-spawn DAG edge recorded in the trace);
  /// InvalidTask for roots and server tasks that no task spawned.
  TaskId newTask(GroupId G, Value Closure, Value ResultFuture, Value DynEnv,
                 unsigned Proc, TaskId Parent = InvalidTask);
  /// Marks \p T done and recycles its slot.
  void finishTask(Task &T);
  size_t taskSlotCount() const { return Tasks.size(); }

  /// Lazy-future seam registry, oldest first.
  std::deque<SeamRef> &seams() { return Seams; }
  const std::deque<SeamRef> &seams() const { return Seams; }
  /// Next seam serial number (lazy-future bookkeeping).
  uint64_t nextSeamSerial() { return ++SeamSerialCounter; }
  /// Creates an empty task shell (lazy-future split fills it manually).
  TaskId newEmptyTask(GroupId G, unsigned Proc);

  /// Signals an exception in \p T: stops its whole group (paper
  /// section 2.3), running the per-processor exception-handler server task
  /// and the terminal server in virtual time.
  void stopGroup(Processor &P, Task &T, std::string Condition,
                 uint32_t StopPop);
  /// Like stopGroup, but the faulting instruction has NOT executed: the
  /// stack is untouched and resume simply re-runs it (no wake action).
  /// Used for injected faults and budget/heap conditions that hit before
  /// an instruction commits.
  void stopGroupRestartable(Processor &P, Task &T, std::string Condition);
  GroupId lastStoppedGroup() const { return LastStopped; }

  /// \name Fault injection (src/fault)
  /// @{
  FaultInjector &faults() { return Injector; }
  const FaultInjector &faults() const { return Injector; }
  /// (Re)installs a fault plan at run time (the REPL's `:faults`). Empty
  /// spec disarms. False (and \p Err set) on a malformed spec; the
  /// previous plan is kept then.
  bool configureFaults(std::string_view Spec, std::string &Err);
  /// Accounts one injected fault: bumps stats and records a FaultInjected
  /// trace event (A = kind, B = site detail, C = running count).
  void noteFault(Processor &P, FaultKind Kind, uint64_t Detail = 0);
  /// @}

  /// \name Tenant fault domains (core/Tenancy.h)
  ///
  /// See DESIGN.md "Tenant fault domains". The engine holds a Tenancy only
  /// while something arms the layer, so a dormant engine has no tenant
  /// state and no core path reads any.
  /// @{
  bool tenantArmed() const { return Ten != nullptr; }
  /// The armed layer; null when dormant.
  Tenancy *tenancy() { return Ten.get(); }
  /// (Re)configures quota defaults and the admission gate from
  /// semicolon/comma-separated clauses: `heap=WORDS`, `cycles=N`,
  /// `live=N`, `queue=N`; "off" disarms (the supervisor, if armed, keeps
  /// the layer on). False (and \p Err) on a malformed spec; the previous
  /// configuration is kept then.
  bool configureQuota(std::string_view Spec, std::string &Err);
  /// (Re)configures the default supervision policy (Supervisor::parsePolicy
  /// grammar; "off" disarms).
  bool configureSupervisor(std::string_view Spec, std::string &Err);
  /// @}

  /// \name Future-site scheduling policies (core/SitePolicies.h)
  /// @{
  const SitePolicyTable &sitePolicies() const { return SitePolicyTab; }
  /// Replaces the policy table (parses the *text format*, not a path).
  /// False (and \p Err set) on a parse error; the old table is kept.
  bool configureSitePolicies(std::string_view Text, std::string &Err);
  /// The policy for the future site at (\p CodeKey, \p Pc), or nullptr.
  /// Site names are matched the way the tracer names them:
  /// "<code-name>+<pc>". Memoized per site; O(1) after first use.
  const SitePolicy *sitePolicyFor(const void *CodeKey, uint32_t Pc,
                                  std::string_view CodeName);
  /// The threshold FutureOps compares queue depth against: the
  /// processor's adaptive T when AdaptiveInline is on, the static
  /// configuration otherwise.
  std::optional<unsigned> inlineThresholdFor(const Processor &P) const {
    if (Cfg.AdaptiveInline)
      return P.Adapt.T;
    return Cfg.InlineThreshold;
  }
  /// @}

  /// Fail-stop recovery, checkpoints, byzantine checks (core/Recovery.h).
  Recovery &recovery() { return Recov; }

  /// \name Determinacy-race detection (src/analysis)
  /// @{
  /// True when EngineConfig::RaceDetect / MULT_RACE armed the detector.
  bool raceDetectEnabled() const { return RaceDetectOn; }
  /// The online checker attached to the tracer; null when detection is
  /// off.
  RaceDetector *raceDetector() { return RaceDet.get(); }
  const RaceDetector *raceDetector() const { return RaceDet.get(); }
  /// Stable serial naming mutable cell \p Cell in trace events. Assigned
  /// on first use; the side map is remapped from the forwarding pointers
  /// after every collection, so a serial survives GC moves.
  uint64_t cellSerial(const Object *Cell);
  /// Emits a CellRead/CellWrite event for the detector. Costs no virtual
  /// time; a single dormant bool test when detection is off.
  void recordAccess(Processor &P, const Task &T, const Object *Cell,
                    uint32_t Slot, bool IsWrite) {
    if (!RaceDetectOn)
      return;
    recordAccessSlow(P, T, Cell, Slot, IsWrite);
  }
  /// @}

  /// Renders the task → future wait-for graph from scheduler state:
  /// every blocked task, what it waits on, and any wait cycle found.
  /// Empty string when nothing is blocked.
  std::string describeWaitGraph();

  /// \name Root-future tracking for Machine::run
  /// @{
  void beginRun(Value RootFuture, GroupId RootGroup);
  bool rootResolved() const { return RootDone; }
  void noteRootResolved(uint64_t Clock) {
    RootDone = true;
    RootClock = Clock;
  }
  Object *rootFutureObject() const {
    return RootFuture.isFuture() ? RootFuture.pointee() : nullptr;
  }
  Value rootValue() const;
  uint64_t rootResolvedClock() const { return RootClock; }
  GroupId rootGroup() const { return RootGroupId; }
  /// @}

  /// Runs a collection now; false means the heap is truly exhausted.
  bool collectGarbage();

  /// GcClient interface.
  unsigned numRootSegments() override;
  void scanRootSegment(unsigned Segment, const RootVisitor &Visit) override;
  void scanProcessorRoots(unsigned Proc, const RootVisitor &Visit) override;
  void preFlip() override;
  void remapWeakCaches() override;
  bool pollsGcKills() const override { return Recov.pollsGcKills(); }
  bool pollGcKill(uint64_t Clock, unsigned &Victim) override {
    return Recov.pollGcKill(Clock, Victim);
  }
  bool wantsLiveWordsTally() const override { return Ten != nullptr; }
  void noteLiveObject(uint16_t Aux, uint32_t TotalWords) override;
  /// @}

  /// \name Threaded dispatch (vm/Threaded.h)
  /// @{
  /// The interpreter's dispatch mechanism; bench labels.
  const char *dispatchName() const { return "threaded"; }
  /// Decodes \p C into the threaded pool on first use (cached via
  /// Code::Decoded thereafter).
  DecodedCode *ensureDecoded(const Code *C);
  /// @}

private:
  /// Loads the Lisp prelude and installs closure wrappers for primitives
  /// so primitive names work as first-class values.
  void bootstrap();
  void installPrimitiveWrappers();
  EvalResult runTopLevel(Code *TopCode, std::string_view Banner);
  EvalResult translateRunResult(const RunResult &R, GroupId G);
  /// Appends a user group (internal while bootstrapping) titled by the
  /// first 60 characters of \p Banner.
  GroupId newGroup(std::string Banner);
  /// Allocates group \p Gid's root future and a closure over \p TopCode,
  /// and creates its root task (not yet queued) on the nearest live
  /// processor from \p Preferred. InvalidTask, with \p Error set, when
  /// the heap is exhausted.
  TaskId newRootTask(GroupId Gid, Code *TopCode, unsigned Preferred,
                     std::string &Error);
  /// Re-queues a stopped group's parked members and marks it Running.
  void requeueParked(Group &G);
  /// Allocation that retries after GC; for setup paths outside the VM.
  Object *allocOrGc(TypeTag Tag, uint32_t SizeWords, uint8_t Flags = 0);
  void scanTask(Task &T, const RootVisitor &Visit);
  void recordAccessSlow(Processor &P, const Task &T, const Object *Cell,
                        uint32_t Slot, bool IsWrite);
  /// Rekeys CellSerials through the forwarding pointers; must run inside
  /// the collection (preFlip), while from-space headers are still
  /// readable. Dead cells drop out.
  void remapCellSerials();

  /// Host time the constructor began (Telemetry::Phase::Setup). Declared
  /// first so it is stamped before the heap or any other member is built.
  std::chrono::steady_clock::time_point SetupStart =
      std::chrono::steady_clock::now();
  EngineConfig Cfg;
  Heap TheHeap;
  SymbolTable Syms;
  DatumBuilder Builder;
  CodeRegistry Registry;
  Compiler TheCompiler;
  Gc TheGc;
  Machine TheMachine;
  Prng Rng;

  std::vector<std::unique_ptr<Task>> Tasks;
  std::vector<uint32_t> TaskGens;
  std::vector<uint32_t> FreeTaskSlots;
  std::vector<Group> Groups;
  std::deque<SeamRef> Seams;
  uint64_t SeamSerialCounter = 0;

  EngineStats Stats;
  Tracer TheTracer;
  FaultInjector Injector;
  Recovery Recov{*this};
  /// The tenant layer; null while dormant (see Tenancy.h).
  std::unique_ptr<Tenancy> Ten;
  friend class Tenancy;

  // Always-on latency telemetry. TelemetrySpec is the resolved export
  // destination (config or MULT_TELEMETRY), written by the destructor.
  // SiteTouchHists maps future-site ids to their labeled touch-wait
  // child histograms, registered on a site's first blocked touch.
  Telemetry Telem;
  TelemetryIds TelemIds;
  std::vector<Telemetry::Id> SiteTouchHists;
  std::string TelemetrySpec;

  // Determinacy-race detection (null/empty unless RaceDetect is on).
  std::unique_ptr<RaceDetector> RaceDet;
  bool RaceDetectOn = false;
  std::unordered_map<const Object *, uint64_t> CellSerials;
  uint64_t CellSerialCounter = 0;

  /// Threaded-code cache: every DecodedCode this engine produced, owned
  /// here (Code::Decoded is a raw back-pointer). Codes and pool die
  /// together — the CodeRegistry is engine-owned too. Call/TailCall
  /// inline-cache slots inside hold weak closure pointers that
  /// remapWeakCaches patches on every collection.
  std::vector<std::unique_ptr<DecodedCode>> DecodedPool;

  SitePolicyTable SitePolicyTab;
  /// Site-policy memo: (code object, pc) → table entry (nullptr = no
  /// policy), so the hot future path never rebuilds name strings.
  std::map<std::pair<const void *, uint32_t>, const SitePolicy *>
      SitePolicyMemo;

  std::string ConsoleBuf;
  StringOutStream ConsoleStream{ConsoleBuf};
  VirtualLock TermLock;

  Value RootFuture = Value::nil();
  GroupId RootGroupId = InvalidGroup;
  bool RootDone = false;
  uint64_t RootClock = 0;
  GroupId LastStopped = InvalidGroup;
  std::vector<GroupId> StoppedStack;
  bool Bootstrapping = false;
};

} // namespace mult

#endif // MULT_CORE_ENGINE_H
