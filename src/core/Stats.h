//===----------------------------------------------------------------------===//
///
/// \file
/// Run-time statistics the benchmark harnesses report.
///
/// Every engine counter is declared exactly once, as a row of
/// MULT_ENGINE_COUNTERS below. The table generates the EngineStats fields
/// (hot paths increment them by name, plain per-engine integers read only
/// at report time), the human-readable section lines of `:stats` and the
/// `;; metrics:` block, and the bench `;; run-json:` record (both rendered
/// in obs/Metrics.cpp). Adding a counter is adding one row.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_STATS_H
#define MULT_CORE_STATS_H

#include <cstdint>

namespace mult {

/// When a section's line is rendered and where its counters go in the
/// run-json record.
enum class StatRule : uint8_t {
  Always,     ///< always rendered; run-json "core"
  NonZero,    ///< rendered when any counter is nonzero; run-json "core"
  Faults,     ///< rendered when nonzero; run-json "faults" when armed
  Checkpoint, ///< rendered when nonzero; run-json "checkpoint" when armed
  Tenant,     ///< rendered when nonzero; run-json "tenant" when armed
};

/// The human-readable lines: S(Name, Prefix, Rule). A line reads
/// "<prefix>: <value> <label>, <value> <label>, ..." over its counters in
/// table order.
#define MULT_STAT_SECTIONS(S)                                                 \
  S(Tasks, "tasks", Always)                                                   \
  S(Futures, "futures", Always)                                               \
  S(Seams, "lazy seams", Always)                                              \
  S(Touches, "touches", Always)                                               \
  S(Scheduling, "scheduling", Always)                                         \
  S(Adaptive, "adaptive-T", NonZero)                                          \
  S(SitePolicies, "site policies", NonZero)                                   \
  S(Execution, "execution", Always)                                           \
  S(LastRun, "last run", Always)                                              \
  S(Robustness, "robustness", Faults)                                         \
  S(Recovery, "recovery", Faults)                                             \
  S(Checkpoints, "checkpoints", Checkpoint)                                   \
  S(Byzantine, "byzantine", Faults)                                           \
  S(TenantQuota, "tenant", Tenant)                                            \
  S(Supervision, "supervisor", Tenant)                                        \
  S(Admission, "admission", Tenant)

/// Every engine counter: X(Field, Key, Label, Section). Field is the
/// EngineStats member, Key its run-json name (also the collector's key
/// suffix, so keep it stable), Label what follows the value on its line.
#define MULT_ENGINE_COUNTERS(X)                                               \
  X(TasksCreated, "tasks-created", "created", Tasks)                          \
  /* futures evaluated inline (threshold T) */                                \
  X(TasksInlined, "tasks-inlined", "inlined", Tasks)                          \
  X(TasksCompleted, "tasks-completed", "completed", Tasks)                    \
  X(FuturesCreated, "futures-created", "created", Futures)                    \
  X(FuturesResolved, "futures-resolved", "resolved", Futures)                 \
  X(SeamsCreated, "seams-created", "created", Seams)                          \
  X(SeamsStolen, "seams-stolen", "stolen", Seams)                             \
  /* touches executed: touch instructions and the touches called            \
     primitives make inside their bodies (touch-error ordinals count only    \
     the instructions); those that found an unresolved future */             \
  X(TouchesExecuted, "touches-executed", "executed", Touches)                 \
  X(TouchesBlocked, "touches-blocked", "blocked", Touches)                    \
  /* One steal attempt is one stealNew/stealSuspended probe of a victim     \
     queue; it either dispatches a task (Steals) or not (StealsFailed:       \
     empty queue or vetoed task), so Steals + StealsFailed ==                \
     StealAttempts always. */                                                 \
  X(Dispatches, "dispatches", "dispatches", Scheduling)                       \
  X(Steals, "steals", "steals", Scheduling)                                   \
  X(StealAttempts, "steal-attempts", "steal attempts", Scheduling)            \
  X(StealsFailed, "steals-failed", "steals failed", Scheduling)               \
  /* sched/Adaptive.h; zero unless EngineConfig::AdaptiveInline */            \
  X(AdaptWindows, "adapt-windows", "windows closed", Adaptive)                \
  X(ThresholdRaises, "threshold-raises", "raises", Adaptive)                  \
  X(ThresholdLowers, "threshold-lowers", "lowers", Adaptive)                  \
  /* futures forced by a core/SitePolicies.h table */                         \
  X(PolicyEager, "policy-eager", "eager", SitePolicies)                       \
  X(PolicyInline, "policy-inline", "inline", SitePolicies)                    \
  X(PolicyLazy, "policy-lazy", "lazy", SitePolicies)                          \
  /* bytecode instructions; virtual NS32332 instructions charged */           \
  X(Instructions, "instructions", "insns", Execution)                         \
  X(CyclesExecuted, "cycles-executed", "cycles busy", Execution)              \
  X(IdleCycles, "idle-cycles", "idle", Execution)                             \
  /* the last run's elapsed virtual time */                                   \
  X(ElapsedCycles, "elapsed-cycles", "cycles", LastRun)                       \
  /* src/fault and the degradation paths it exercises */                      \
  X(FaultsInjected, "faults-injected", "faults injected", Robustness)         \
  X(HeapExhaustedStops, "heap-exhausted-stops", "heap-exhausted stops",       \
    Robustness)                                                               \
  X(DeadlocksDetected, "deadlocks-detected", "deadlocks detected",            \
    Robustness)                                                               \
  /* proc-kill: lost tasks re-spawned from lineage, or orphaned because      \
     of observed side effects; busy cycles re-executing them; post-mortem    \
     wakes rerouted to survivors */                                           \
  X(ProcsKilled, "procs-killed", "procs killed", Recovery)                    \
  X(TasksRecovered, "tasks-recovered", "tasks recovered", Recovery)           \
  X(TasksOrphaned, "tasks-orphaned", "orphaned", Recovery)                    \
  X(RecoveryCycles, "recovery-cycles", "recovery cycles", Recovery)           \
  X(WakesRedirected, "wakes-redirected", "wakes redirected", Recovery)        \
  /* EngineConfig::CheckpointEvery. MaxTaskRecoveryCycles is the largest     \
     re-execution charge of a restored task, bounded by CheckpointEvery +    \
     QuantumCycles by construction. */                                       \
  X(CheckpointsTaken, "checkpoints-taken", "taken", Checkpoints)              \
  X(CheckpointCycles, "checkpoint-cycles", "capture cycles", Checkpoints)     \
  X(TasksRestored, "tasks-restored", "tasks restored", Checkpoints)           \
  X(MaxTaskRecoveryCycles, "max-task-recovery-cycles",                        \
    "max task recovery cycles", Checkpoints)                                  \
  /* proc-lie / cross-check: corrupted finishing resolves, sampled           \
     re-executions, mismatches found (the group stops) */                     \
  X(ByzantineLies, "byzantine-lies", "lies told", Byzantine)                  \
  X(CrossChecks, "cross-checks", "cross-checks", Byzantine)                   \
  X(ByzantineDetected, "byzantine-detected", "detected", Byzantine)           \
  /* tenant fault domains: group-heap-quota and group-cycle-budget stops,    \
     free collections granted at a first trip, violators killed under        \
     pressure */                                                              \
  X(QuotaStops, "quota-stops", "quota stops", TenantQuota)                    \
  X(BudgetStops, "budget-stops", "budget stops", TenantQuota)                 \
  X(QuotaGraceGcs, "quota-grace-gcs", "grace collections", TenantQuota)       \
  X(GroupsShed, "groups-shed", "shed", TenantQuota)                           \
  /* restarts fired, restart storms ended, escalate policies that ended     \
     runs */                                                                  \
  X(SupervisorRestarts, "supervisor-restarts", "restarts", Supervision)       \
  X(SupervisorGaveUp, "supervisor-gave-up", "gave up", Supervision)           \
  X(SupervisorEscalations, "supervisor-escalations", "escalations",           \
    Supervision)                                                              \
  /* launches admitted (incl. from the queue), parked, shed at the gate */    \
  X(GroupsAdmitted, "groups-admitted", "admitted", Admission)                 \
  X(GroupsQueued, "groups-queued", "queued", Admission)                       \
  X(GroupsRejected, "groups-rejected", "rejected", Admission)

enum class StatSection : uint8_t {
#define MULT_STAT_SECTION_ENUM(Name, Prefix, Rule) Name,
  MULT_STAT_SECTIONS(MULT_STAT_SECTION_ENUM)
#undef MULT_STAT_SECTION_ENUM
};

/// Cycle totals attributed to the six steps of evaluating
/// `(touch (future 0))` (paper Table 1). Counts are events; Cycles are
/// virtual NS32332 instructions.
struct FutureStepStats {
  uint64_t MakeThunkCycles = 0;     ///< Step 1: make thunk, call *future.
  uint64_t CreateEnqueueCycles = 0; ///< Step 2: create future+task, enqueue.
  uint64_t BlockCycles = 0;         ///< Step 3: block the touching task.
  uint64_t DispatchNewCycles = 0;   ///< Step 4: dequeue + start a new task.
  uint64_t ResolveCycles = 0;       ///< Step 5: resolve, wake waiters.
  uint64_t DispatchSuspCycles = 0;  ///< Step 6: dequeue + resume.
  uint64_t total() const {
    return MakeThunkCycles + CreateEnqueueCycles + BlockCycles +
           DispatchNewCycles + ResolveCycles + DispatchSuspCycles;
  }
};

/// Engine-wide counters, cumulative until resetStats().
struct EngineStats {
#define MULT_STAT_FIELD(Field, Key, Label, Section) uint64_t Field = 0;
  MULT_ENGINE_COUNTERS(MULT_STAT_FIELD)
#undef MULT_STAT_FIELD

  FutureStepStats Steps;

  /// The paper's machine runs ~1 MIPS with a measured 220us for the ~196
  /// instructions of (touch (future 0)): 1.12 us per abstract instruction.
  static constexpr double MicrosecondsPerCycle = 1.12;

  double elapsedSeconds() const {
    return static_cast<double>(ElapsedCycles) * MicrosecondsPerCycle * 1e-6;
  }
  static double cyclesToSeconds(uint64_t Cycles) {
    return static_cast<double>(Cycles) * MicrosecondsPerCycle * 1e-6;
  }
};

} // namespace mult

#endif // MULT_CORE_STATS_H
