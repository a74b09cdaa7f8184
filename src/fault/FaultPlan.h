//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault plans (the chaos-engineering layer).
///
/// A FaultPlan describes *when* the engine should misbehave, in terms of
/// deterministic counters and virtual-time offsets, so the same plan + the
/// same program + the same seed reproduce the same adversity bit-for-bit.
/// The paper's engine survives real adversity (queue overflow, heap
/// exhaustion, errors in parallel tasks) by design; the plan lets us
/// subject the reproduction to each of those on demand and replay any
/// failure from its spec string.
///
/// Spec grammar (clauses separated by ';', lists by ','):
///
///   seed=U64                 PRNG seed for probabilistic clauses
///   alloc-fail=N[,N...]      fail the Nth mutator allocation (1-based,
///                            counted after arming; a real GC then runs
///                            and the retry succeeds)
///   alloc-fail-every=K       additionally fail every Kth allocation
///   gc-at=C[,C...]           force a spurious collection once the run
///                            clock reaches C (run-start-relative;
///                            consumed once)
///   spawn-error=N[,N...]     raise `injected-fault` at the Nth future
///                            spawn (group stops; resume retries)
///   touch-error=N[,N...]     raise `injected-fault` at the Nth executed
///                            touch instruction (not counting the
///                            touches a called primitive makes inside
///                            its body, which touches-executed also
///                            counts)
///   steal-fail=P             each steal probe fails with probability P
///                            (a number in [0, 1], as for cross-check)
///   steal-fail-at=N[,N...]   fail the Nth steal probe exactly
///   queue-cap=Q              clamp task-queue capacity: futures inline
///                            when the spawning processor already holds
///                            >= Q queued tasks (the paper's
///                            queue-overflow degradation)
///   stall=P@B+L[,P@B+L...]   processor P goes offline for L cycles once
///                            the run clock reaches B (run-start-relative;
///                            models a slow or failed board on the bus).
///                            L >= 1 and B + L < 2^63, so the window's
///                            end stays a representable clock
///   adapt-clamp=N@V[,...]    when the Nth adaptation window closes
///                            (machine-wide 1-based ordinal), clamp the
///                            closing processor's adaptive inlining
///                            threshold to V and discard its pending
///                            hysteresis votes
///   adapt-reset=N[,N...]     when the Nth adaptation window closes,
///                            discard its samples and pending votes (the
///                            threshold keeps its value)
///   proc-kill=P@C[,P@C...]   fail-stop processor P once the run clock
///                            reaches C (run-start-relative; consumed
///                            once). The engine drains the dead
///                            processor's queues onto survivors and
///                            re-spawns lost futures from their spawn
///                            lineage (see DESIGN.md, "Processor
///                            fail-stop and recovery"); killing the last
///                            live processor is ignored. A mark landing
///                            inside a collection fires mid-GC: the
///                            victim dies between its root-scan and copy
///                            phases and survivors inherit its copy work
///   proc-lie=P@C[,P@C...]    byzantine fault: once the run clock
///                            reaches C, processor P corrupts the next
///                            future value it resolves at a
///                            task-finishing return (fixnum results
///                            only). Detected by cross-check
///                            re-execution (below); an unchecked lie
///                            propagates to every toucher
///   cross-check=P            each task-finishing future resolve is
///                            re-executed on a different processor with
///                            probability P (seed-deterministic, charged
///                            in virtual time). Defaults to 0.25 when a
///                            proc-lie clause is present, 0 otherwise.
///                            A mismatch stops the group restartably
///                            with a `byzantine-detected` condition
///                            carrying both values and the liar
///   seam-split-fail=N[,N...] fail the Nth lazy-future seam-split
///                            attempt (1-based): the thief backs off and
///                            the seam stays with its owner, who later
///                            evaluates it inline
///   quota-squeeze=G@C[,...]  once the run clock reaches C, clamp group
///                            G's heap quota to half its current account
///                            (arming the tenant layer if dormant), as if
///                            an operator tightened a tenant's envelope
///                            mid-run; the group trips group-heap-quota
///                            on its next poll unless it frees memory
///   admit-burst=N@C[,...]    once the run clock reaches C, push N >= 1
///                            synthetic launch probes through the
///                            admission gate, exercising the
///                            admitted/queued/rejected partition without
///                            creating tasks
///
/// Lists are 1-based ordinals (N) or run-relative cycles (C, B); the first
/// number of every X@C mark and of a stall is at most 65535. A repeated
/// clause appends to a list and overrides a scalar. This comment is the
/// one full statement of the grammar; DESIGN.md and README.md point here.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_FAULT_FAULTPLAN_H
#define MULT_FAULT_FAULTPLAN_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mult {

/// What kind of fault an injection site fired. Recorded as payload A of
/// every FaultInjected trace event, so the numeric values are fixed.
enum class FaultKind : uint8_t {
  AllocFail,  ///< forced mutator-allocation failure
  SpuriousGc, ///< forced collection at a virtual-time mark
  SpawnError, ///< injected exception at a future spawn
  TouchError, ///< injected exception at a touch instruction
  StealFail,  ///< forced steal-probe failure
  QueueClamp, ///< queue-capacity clamp forced an inline evaluation
  Stall,      ///< processor offline window
  AdaptClamp, ///< adaptive inlining threshold forced to a value
  AdaptReset, ///< adaptive controller window samples discarded
  ProcKill,   ///< fail-stop processor crash at a virtual-time mark
  SeamSplitFail, ///< forced lazy-future seam-split failure
  ProcLie,    ///< byzantine corruption of a resolved future value
  QuotaSqueeze, ///< group heap quota clamped at a virtual-time mark
  AdmitBurst,   ///< synthetic launch burst through the admission gate
  None,         ///< fires nothing itself (the seed); never recorded
};

/// The clause table: one row per spec clause, in canonical format() order.
///
///   X(key, type, field, init, min, kind)
///
/// `type` is the FaultPlan field's type, and it is the value's shape:
///   uint64_t, std::optional<uint32_t>   scalar (a repeat overrides)
///   double                              probability in [0, 1]
///   std::vector<uint64_t>               ordinal or cycle list (sorted,
///                                       deduped)
///   std::vector<MarkAt>                 X@C marks (stable-sorted by C)
///   std::vector<StallWindow>            P@B+L windows (stable-sorted by B)
///   std::vector<AdaptClampAt>           N@V clamps (stable-sorted by N)
/// A clause is set when its field differs from `init`. `min` is the least
/// accepted value of the clause's first number (1 for 1-based ordinals),
/// and `kind` is the FaultKind its injections record.
#define MULT_FAULT_CLAUSES(X)                                                  \
  X("seed", uint64_t, Seed, 0x4d756c54, 0, None)                               \
  X("alloc-fail", std::vector<uint64_t>, AllocFailAt, {}, 1, AllocFail)        \
  X("alloc-fail-every", uint64_t, AllocFailEvery, 0, 1, AllocFail)             \
  X("gc-at", std::vector<uint64_t>, GcAtCycles, {}, 0, SpuriousGc)             \
  X("spawn-error", std::vector<uint64_t>, SpawnErrorAt, {}, 1, SpawnError)     \
  X("touch-error", std::vector<uint64_t>, TouchErrorAt, {}, 1, TouchError)     \
  X("steal-fail", double, StealFailProb, 0.0, 0, StealFail)                    \
  X("steal-fail-at", std::vector<uint64_t>, StealFailAt, {}, 1, StealFail)     \
  X("queue-cap", std::optional<uint32_t>, QueueCap, {}, 0, QueueClamp)         \
  X("stall", std::vector<StallWindow>, Stalls, {}, 0, Stall)                   \
  X("adapt-clamp", std::vector<AdaptClampAt>, AdaptClamps, {}, 1, AdaptClamp)  \
  X("adapt-reset", std::vector<uint64_t>, AdaptResetAt, {}, 1, AdaptReset)     \
  X("proc-kill", std::vector<MarkAt>, ProcKills, {}, 0, ProcKill)              \
  X("proc-lie", std::vector<MarkAt>, ProcLies, {}, 0, ProcLie)                 \
  X("cross-check", double, CrossCheckProb, -1.0, 0, ProcLie)                   \
  X("seam-split-fail", std::vector<uint64_t>, SeamSplitFailAt, {}, 1,          \
    SeamSplitFail)                                                             \
  X("quota-squeeze", std::vector<MarkAt>, QuotaSqueezes, {}, 0, QuotaSqueeze)  \
  X("admit-burst", std::vector<MarkAt>, AdmitBursts, {}, 1, AdmitBurst)

/// One enumerator per clause, named after its FaultPlan field.
enum class FaultClause : uint8_t {
#define X(KEY, TYPE, FIELD, INIT, MIN, KIND) FIELD,
  MULT_FAULT_CLAUSES(X)
#undef X
};

/// The table's kind column, indexed by FaultClause.
inline constexpr FaultKind kClauseKind[] = {
#define X(KEY, TYPE, FIELD, INIT, MIN, KIND) FaultKind::KIND,
    MULT_FAULT_CLAUSES(X)
#undef X
};

/// The virtual-time mark clauses, in the order the machine's per-step
/// poll fires them when several are due at once (one per poll).
inline constexpr FaultClause kMarkPollOrder[] = {
    FaultClause::ProcKills,   FaultClause::ProcLies,
    FaultClause::Stalls,      FaultClause::QuotaSqueezes,
    FaultClause::AdmitBursts, FaultClause::GcAtCycles,
};

/// A parsed, deterministic fault schedule.
struct FaultPlan {
  struct StallWindow {
    unsigned Proc = 0;
    uint64_t Begin = 0;  ///< run-relative cycle the window opens
    uint64_t Length = 0; ///< cycles the processor stays offline
    bool operator==(const StallWindow &) const = default;
  };

  struct AdaptClampAt {
    uint64_t Window = 0; ///< machine-wide 1-based window ordinal
    uint32_t Value = 0;  ///< threshold to force (clamped to the T bounds)
    bool operator==(const AdaptClampAt &) const = default;
  };

  /// An X@C mark: once the run clock reaches AtCycles, the clause fires
  /// on Proc (a processor for proc-kill and proc-lie, a group for
  /// quota-squeeze, a probe count for admit-burst).
  struct MarkAt {
    unsigned Proc = 0;
    uint64_t AtCycles = 0; ///< run-relative cycle the mark fires
    bool operator==(const MarkAt &) const = default;
  };

#define X(KEY, TYPE, FIELD, INIT, MIN, KIND) TYPE FIELD = INIT;
  MULT_FAULT_CLAUSES(X)
#undef X

  /// The field of clause \p C if its type is \p T, else null.
  template <class T> const T *field(FaultClause C) const {
    switch (C) {
#define X(KEY, TYPE, FIELD, INIT, MIN, KIND)                                   \
  case FaultClause::FIELD:                                                     \
    if constexpr (std::is_same_v<T, TYPE>)                                     \
      return &FIELD;                                                           \
    break;
      MULT_FAULT_CLAUSES(X)
#undef X
    }
    return nullptr;
  }

  /// True when no clause can ever fire.
  bool empty() const;

  /// Canonical spec string (parse(format()) round-trips).
  std::string format() const;

  /// Parses \p Spec into \p Out. False (and \p Err set) on a malformed
  /// spec; \p Out is unspecified then.
  static bool parse(std::string_view Spec, FaultPlan &Out, std::string &Err);
};

/// The number a list entry is sorted by and consumed at: an ordinal or a
/// run-relative cycle.
inline uint64_t clauseKey(uint64_t V) { return V; }
inline uint64_t clauseKey(const FaultPlan::MarkAt &M) { return M.AtCycles; }
inline uint64_t clauseKey(const FaultPlan::StallWindow &W) { return W.Begin; }
inline uint64_t clauseKey(const FaultPlan::AdaptClampAt &A) { return A.Window; }

} // namespace mult

#endif // MULT_FAULT_FAULTPLAN_H
