//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injector.
///
/// The injector owns a FaultPlan plus one cursor per clause that decides
/// when the clause fires. All decisions are pure functions of the plan,
/// the plan's seed, and the order in which the engine consults the
/// injector — which is itself deterministic in virtual time — so a fault
/// schedule replays exactly. The injector stays disarmed during engine
/// bootstrap (the prelude must load unmolested) and is armed right after;
/// every injection site tests armed() before it asks anything else.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_FAULT_INJECTOR_H
#define MULT_FAULT_INJECTOR_H

#include "fault/FaultPlan.h"
#include "support/Prng.h"

#include <cstdint>
#include <iterator>
#include <optional>

namespace mult {

/// A virtual-time mark that came due.
struct FaultMark {
  FaultKind Kind = FaultKind::None;
  unsigned Target = 0; ///< X of an X@C mark; the stalled processor
  uint64_t At = 0;     ///< the mark's run-relative cycle (stall: its begin)
  uint64_t Until = 0;  ///< stall only: run-relative cycle the window ends
};

class FaultInjector {
public:
  FaultInjector() : Rng(FaultPlan().Seed) {}

  /// Installs \p P and resets every cursor. Does not arm.
  void configure(const FaultPlan &P);

  void arm() { Armed = !Plan.empty(); }
  void disarm() { Armed = false; }
  bool armed() const { return Armed; }
  const FaultPlan &plan() const { return Plan; }

  /// Counts one more event at clause \p C's site and reports whether the
  /// clause fires on it: an ordinal list fires on the listed 1-based
  /// ordinals, alloc-fail-every on multiples of its period, and a
  /// probability clause on a seed-deterministic draw (steal-fail and
  /// cross-check each draw from their own stream). An alloc-fail-kind hit
  /// also marks the failure pending, so the scheduler's heap-exhaustion
  /// heuristics can tell it from a genuinely full heap.
  bool hit(FaultClause C);

  /// hit() on both clauses (both count the event) and reports either.
  bool hitEither(FaultClause A, FaultClause B) {
    bool HitA = hit(A);
    return hit(B) || HitA;
  }

  /// For a list the caller numbers itself (adapt-reset, adapt-clamp by
  /// machine-wide window ordinal): consumes every entry up to \p Ordinal
  /// and reports whether \p Ordinal is listed. An adapt-clamp hit sets
  /// \p ValueOut to the forced threshold.
  bool hit(FaultClause C, uint64_t Ordinal, uint32_t *ValueOut = nullptr);

  /// Consumes the pending-injected-allocation flag hit() set. The machine
  /// calls this once per NeedsGc round.
  bool consumeInjectedAllocFail();

  /// If mark clause \p C (X@C marks, or gc-at) has its next mark due at
  /// run-relative cycle \p RelClock, consumes that one mark into \p Out.
  /// The mark's own cycle (Out.At) may be earlier than \p RelClock: the
  /// poll is quantum-granular.
  bool takeMark(FaultClause C, uint64_t RelClock, FaultMark &Out);

  /// The first mark due at \p RelClock when processor \p Proc is stepped,
  /// in kMarkPollOrder; at most one per call, so stacked marks fire on
  /// consecutive polls. A stall window matches only its own processor; one
  /// that elapsed before its processor was stepped is consumed silently.
  std::optional<FaultMark> nextMark(unsigned Proc, uint64_t RelClock);

  /// Queue-capacity clamp, if any.
  const std::optional<uint32_t> &queueCap() const { return Plan.QueueCap; }

  /// Effective cross-check sampling probability: the plan's explicit
  /// value, or 0.25 when proc-lie clauses are present and none was given.
  double crossCheckProb() const {
    if (Plan.CrossCheckProb >= 0.0)
      return Plan.CrossCheckProb;
    return Plan.ProcLies.empty() ? 0.0 : 0.25;
  }

  /// True when cross-check sampling can ever fire.
  bool crossChecksArmed() const { return Armed && crossCheckProb() > 0.0; }

private:
  FaultPlan Plan;
  bool Armed = false;
  Prng Rng;
  Prng LieRng{FaultPlan().Seed ^ kLieStream};

  /// Stream separator for LieRng so the two PRNGs seeded from the same
  /// plan seed stay decorrelated.
  static constexpr uint64_t kLieStream = 0x6c69652d73747265ull;

  struct Cursor {
    uint64_t Count = 0; ///< events counted at the clause's site
    size_t Next = 0;    ///< first unconsumed entry of the clause's list
  };
  Cursor Cursors[std::size(kClauseKind)];
  std::vector<bool> StallDone; ///< parallel to Plan.Stalls
  bool PendingInjectedAllocFail = false;
};

} // namespace mult

#endif // MULT_FAULT_INJECTOR_H
