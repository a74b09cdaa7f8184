//===----------------------------------------------------------------------===//
///
/// \file
/// Construction-time configuration of a simulated Mul-T machine.
///
/// Every setting is one row of MULT_ENGINE_CONFIG. The rows generate the
/// EngineConfig fields, the environment reader (the only place the engine
/// reads a MULT_* variable), the range check EngineConfig::validate, and
/// the variable list `:help` prints. DESIGN.md "Configuration" states the
/// rules.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_CONFIG_H
#define MULT_CORE_CONFIG_H

#include "sched/TaskQueues.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace mult {

/// How a row's variable is read.
enum class ConfigParse : uint8_t {
  None, ///< the row has no variable
  Bool, ///< "0" or "off" is false, anything else true
  U64,  ///< a decimal count in the row's range, or "off" for 0
  Spec, ///< text parsed by the layer that owns its grammar
};

inline constexpr uint64_t NoMax = ~uint64_t(0);

/// X(Type, Field, Default, Var, Parse, Min, Max, Doc). A variable fills
/// its field only while the field holds its default: a setting made in
/// code wins. [Min, Max] bounds integer, bool and enum fields (and a set
/// optional); spec strings are checked by their own grammar.
#define MULT_ENGINE_CONFIG(X)                                                 \
  /* TraceEvent::Proc is 8 bits */                                            \
  X(unsigned, NumProcessors, 1, "", None, 1, 256, "virtual processors")       \
  /* Paper section 3: inline a future when the queues hold >= T tasks;        \
     nullopt is T = infinity (never inline), 0 always inlines. */             \
  X(std::optional<unsigned>, InlineThreshold, std::nullopt, "", None, 0, ~0u, \
    "the inlining threshold T")                                               \
  X(bool, LazyFutures, false, "", None, 0, 1, "lazy futures (section 3)")     \
  X(bool, AdaptiveInline, false, "", None, 0, 1, "per-processor adaptive T")  \
  X(uint64_t, AdaptiveWindowCycles, 4096, "", None, 1, NoMax,                 \
    "adaptation window in virtual cycles")                                    \
  X(std::string, SitePolicies, "", "MULT_SITE_POLICIES", Spec, 0, 0,          \
    "per-future-site policy file (:profile FILE writes one)")                 \
  /* false is "T3 mode", the sequential baseline of Table 2 */                \
  X(bool, EmitTouchChecks, true, "", None, 0, 1, "compile implicit touches")  \
  X(bool, OptimizeTouches, true, "", None, 0, 1, "remove redundant touches")  \
  /* validate() also checks LargeObjectWords <= ChunkWords <= HeapWords */    \
  X(size_t, HeapWords, size_t(1) << 22, "", None, 1, NoMax,                   \
    "words per semispace")                                                    \
  X(size_t, ChunkWords, 4096, "", None, 1, NoMax, "allocation chunk words")   \
  X(size_t, LargeObjectWords, 512, "", None, 0, NoMax, "large-object words")  \
  X(size_t, MaxStackWords, size_t(1) << 20, "", None, 0, NoMax,               \
    "per-task stack limit")                                                   \
  X(uint64_t, RandomSeed, 0x4d756c54, "", None, 0, NoMax, "seed, 'MulT'")     \
  X(uint64_t, QuantumCycles, 64, "", None, 0, NoMax, "timeslice in cycles")   \
  X(uint64_t, MaxRunCycles, NoMax, "", None, 0, NoMax,                        \
    "runaway guard: exceeding it abandons the run")                           \
  X(uint64_t, MaxCycles, NoMax, "", None, 0, NoMax,                           \
    "watchdog budget: exceeding it stops the group, resumably")               \
  X(StealOrder, StealPolicy, StealOrder::Lifo, "", None, 0, 1, "steal order") \
  X(bool, LoadPrelude, true, "", None, 0, 1, "load the Lisp prelude")         \
  X(bool, EnableTracing, false, "", None, 0, 1, "record the event trace")     \
  X(std::string, TraceSink, "", "", None, 0, 0,                               \
    "trace sink: unbounded, ring:N or stream[:PATH]")                         \
  X(std::string, Faults, "", "MULT_FAULTS", Spec, 0, 0,                       \
    "deterministic fault plan (grammar in fault/FaultPlan.h)")                \
  X(bool, Recovery, true, "MULT_RECOVERY", Bool, 0, 1,                        \
    "re-spawn futures lost to a fail-stop; 0 orphans them")                   \
  X(uint64_t, CheckpointEvery, 0, "MULT_CHECKPOINT", U64, 0, NoMax,           \
    "checkpoint interval in busy cycles (0 or off = none)")                   \
  X(std::string, Telemetry, "", "MULT_TELEMETRY", Spec, 0, 0,                 \
    "json:PATH appends the latency histograms to PATH at exit")               \
  X(bool, RaceDetect, false, "MULT_RACE", Bool, 0, 1,                         \
    "determinacy-race detection")                                             \
  /* Tenant fault domains (core/Tenancy.h). MULT_QUOTA sets all four quota    \
     fields; the gate sizes are capped like `:quota`'s. */                    \
  X(uint64_t, GroupHeapQuotaWords, 0, "MULT_QUOTA", Spec, 0, NoMax,           \
    "heap=WORDS;cycles=N;live=N;queue=N per-group quotas")                    \
  X(uint64_t, GroupCycleBudget, 0, "", None, 0, NoMax, "busy-cycle budget")   \
  X(unsigned, MaxLiveGroups, 0, "", None, 0, 100000, "live launches")         \
  X(unsigned, MaxQueuedGroups, 0, "", None, 0, 100000, "queued launches")     \
  X(std::string, Supervise, "", "MULT_SUPERVISE", Spec, 0, 0,                 \
    "one-shot, escalate or restart[:max=N,backoff=B]")

struct EngineConfig {
#define MULT_CONFIG_FIELD(Type, Field, Default, Var, Parse, Min, Max, Doc)   \
  Type Field = Default;
  MULT_ENGINE_CONFIG(MULT_CONFIG_FIELD)
#undef MULT_CONFIG_FIELD

  /// Fills each field still at its default from its row's variable; a
  /// malformed value is refused with warnIgnored.
  void readEnvironment();
  /// False, with \p Err naming the field and range, when a field is out
  /// of its row's range or the heap sizes do not nest.
  bool validate(std::string &Err) const;
};

/// Prints `mult: ignoring <What>: <Why>`, the one warning for a setting
/// that was refused and left as it was.
void warnIgnored(const char *What, const std::string &Why);

} // namespace mult

#endif // MULT_CORE_CONFIG_H
