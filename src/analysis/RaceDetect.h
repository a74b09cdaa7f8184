//===----------------------------------------------------------------------===//
///
/// \file
/// Determinacy-race detection over the virtual-time trace stream.
///
/// Futures give no mutual exclusion (paper section 2.2): a child task's
/// side effects on boxes, vectors, or fluid bindings can race with the
/// spawning continuation, and whether the program notices depends on the
/// schedule. The detector consumes the tracer's event stream — either
/// online, attached as the Tracer's observer, or offline over a loaded
/// trace — and checks every instrumented mutable-cell access against the
/// *series-parallel* relation of the run, in the style of SP-bags
/// (Feng & Leiserson) realized with FastTrack-shaped vector clocks
/// (Utterback et al., PAPERS.md): two accesses to the same cell slot race
/// when neither logically precedes the other and at least one is a write,
/// regardless of how this particular schedule happened to order them.
///
/// The series-parallel relation is rebuilt from the DAG edges the trace
/// already carries (see DESIGN.md "The trace is a task DAG"):
///
///   - TaskCreate        child begins after the spawn point (C = parent);
///   - FutureResolve /   the resolve serial links each resolve to the
///     TouchHit          touches it enables;
///   - TaskResume        a woken task begins after its waker (C = waker);
///   - InlineDecision /  a stolen lazy-seam continuation begins after the
///     SeamSteal         seam push (linked by the seam serial);
///   - SemAcquire /      semaphore P/V pairs add happens-before
///     SemRelease        cross-edges (lock-style, per semaphore).
///
/// The bookkeeping is paid per access, not per task. A task gets a clock
/// component -- a dense *component index* of its own, never reused --
/// only when it first touches a tracked cell. Vector clocks are
/// immutable sorted (component, tick) runs in one arena, named by a
/// 32-bit id (0 is the empty clock): a fork hands the child its parent's
/// clock id, a task with no component publishes that id unchanged, and a
/// join keeps whichever side dominates, so the ~10^5 pure tasks of a
/// bench run share a handful of clocks and copy none. Per-task state
/// sits in dense rows indexed by registry slot (taskIndex) and checked
/// against the id's generation: a recycled slot resets its row, and
/// since the new task gets a new component index, an access by the
/// slot's previous task is never taken for program order. Emission order
/// of the serial simulator is causally consistent, so the stream needs
/// no sorting.
///
/// The online detector observes events *before* sink buffering, so it is
/// complete even over a small ring sink. Offline analysis refuses a
/// dropped (ring-truncated) trace outright: a missing spawn or resolve
/// edge would surface as a false race or mask a real one.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_ANALYSIS_RACEDETECT_H
#define MULT_ANALYSIS_RACEDETECT_H

#include "obs/Trace.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mult {

/// The checker. Feed it events (onTraceEvent) in emission order; query
/// races() / raceCount() afterwards or at any point mid-stream.
class RaceDetector : public TraceObserver {
public:
  /// One side of a racing pair.
  struct Access {
    uint64_t Task = ~uint64_t(0); ///< Full task id of the accessor.
    uint64_t Clock = 0;           ///< Virtual time of the access.
    uint32_t Slot = 0;            ///< Cell slot (vector index; 0 for boxes).
    uint32_t SiteId = 0; ///< Accessor's future-site id + 1; 0 = no site
                         ///< (a top-level root or untraced spawn).
    uint8_t Proc = 0;
    bool Write = false;
  };

  /// Two logically-parallel accesses to the same cell slot, at least one
  /// a write. Prior is the one that appeared first in the stream.
  struct Race {
    uint64_t Cell = 0; ///< Engine cell serial (stable across GC).
    uint32_t Slot = 0;
    Access Prior;
    Access Current;
  };

  void onTraceEvent(const TraceEvent &E) override;

  /// Distinct races found so far (capped at kMaxStoredRaces entries;
  /// raceCount() keeps the uncapped total).
  const std::vector<Race> &races() const { return Races; }
  uint64_t raceCount() const { return RaceN; }
  uint64_t accessesChecked() const { return AccessN; }
  uint64_t cellsTracked() const { return CellsSeen.size(); }

  /// Forgets everything; the next stream describes a fresh run.
  void clear();

  /// Renders one race as a two-line report naming both accesses with
  /// their future-site provenance (\p SiteNames is the tracer's table).
  std::string describe(const Race &R,
                       const std::vector<std::string> &SiteNames) const;

  static constexpr size_t kMaxStoredRaces = 64;
  /// Offline, a task slot may exceed the stream's event count by this
  /// much: a trace cut by Engine::resetStats names slots the registry
  /// allocated before it began. The registry recycles slots, so its
  /// high-water mark stays small (386 slots for Table 3 Boyer's 92,632
  /// tasks).
  static constexpr uint64_t kOfflineSlotSlack = uint64_t(1) << 16;

private:
  friend bool analyzeRaces(const std::vector<TraceEvent> &Events,
                           uint64_t Dropped, RaceDetector &D,
                           std::string &Err);

  /// Names an immutable clock in the arena; 0 is the empty clock.
  using ClockId = uint32_t;
  struct Entry {
    uint32_t Comp; ///< Component index of a task that accessed a cell.
    uint32_t Tick;
  };
  static constexpr uint32_t NoComp = ~0u;

  /// The task now in one registry slot.
  struct Row {
    uint32_t Gen = 0;       ///< Generation of that task's id.
    ClockId Clock = 0;      ///< Joined knowledge of other tasks' ticks.
    uint32_t Comp = NoComp; ///< Own component; NoComp until first access.
    uint32_t SiteId = 0;    ///< Spawn-site provenance + 1.
  };
  struct ReadEpoch {
    uint32_t Comp = 0;
    uint32_t Tick = 0;
    Access Info;
  };
  struct SlotState {
    uint32_t WComp = NoComp; ///< Last writer's component; NoComp = never.
    uint32_t WTick = 0;
    Access WInfo;
    std::vector<ReadEpoch> Reads; ///< Reads since the last ordered write.
  };

  /// \p Id's row, reset first when the slot now holds a new generation.
  Row &row(uint64_t Id);
  /// Snapshot of \p R's knowledge for a fork/release edge; bumps the
  /// publisher's own tick so its later accesses stay parallel.
  ClockId publish(Row &R);
  /// The pointwise maximum of two clocks.
  ClockId join(ClockId A, ClockId B);
  /// The pointwise maximum of \p A and the sorted entries in Pending,
  /// which are clock \p IdB when nonzero. Builds a clock only when
  /// neither side dominates.
  ClockId joinPending(ClockId A, ClockId IdB);
  /// Joins \p Pub into \p Id's clock; returns its row.
  Row &joinInto(uint64_t Id, ClockId Pub);
  bool ordered(uint32_t PriorComp, uint32_t PriorTick, const Row &Cur) const;
  void report(uint64_t Cell, const Access &Prior, const Access &Cur);
  void access(const TraceEvent &E, bool Write);
  uint64_t runningOn(uint8_t Proc) const;

  std::vector<Row> Rows;       ///< by taskIndex
  std::vector<uint32_t> Ticks; ///< by component: its owner's current tick
  std::vector<Entry> Arena;    ///< every clock's entries, back to back
  /// Clock c spans Arena[Starts[c], Starts[c + 1]).
  std::vector<uint32_t> Starts{0, 0};
  std::vector<Entry> Pending;
  std::vector<ClockId> ResolveVC; ///< by resolve serial - ResolveBase
  uint64_t ResolveBase = 0;       ///< first resolve serial of the stream
  std::unordered_map<uint64_t, std::pair<ClockId, uint32_t>>
      SeamVC;                                  ///< seam serial -> (VC, site+1)
  std::unordered_map<uint64_t, ClockId> SemVC; ///< sem cell serial
  std::map<std::pair<uint64_t, uint32_t>, SlotState> Slots; ///< (cell, slot)
  std::unordered_set<uint64_t> CellsSeen;
  std::vector<uint64_t> Running; ///< per-proc task id from TaskStart
  std::set<std::tuple<uint64_t, uint32_t, uint64_t, uint64_t>> Reported;
  std::vector<Race> Races;
  uint64_t RaceN = 0;
  uint64_t AccessN = 0;
  /// Offline only: slots at or past this are refused, not allocated.
  uint64_t RowLimit = ~uint64_t(0);
  Row Spare;           ///< stands in for a refused slot's row
  std::string Refusal; ///< why the stream was refused; "" while it is not
};

/// Offline analysis: replays \p Events (a Tracer buffer or a loaded trace
/// file) through \p D. Refuses to run when \p Dropped != 0 — a truncated
/// ring trace is missing DAG edges and would report false negatives (and
/// false positives); \p Err says so. Also refuses a stream naming a task
/// slot past Events.size() + kOfflineSlotSlack, or a resolve serial out
/// of sequence. \p D is cleared first either way.
bool analyzeRaces(const std::vector<TraceEvent> &Events, uint64_t Dropped,
                  RaceDetector &D, std::string &Err);

} // namespace mult

#endif // MULT_ANALYSIS_RACEDETECT_H
