//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel stop-and-copy garbage collector (paper section 2.1.2).
///
/// The paper's protocol, reproduced in virtual time:
///   1. The processor that finds the global heap empty interrupts all
///      others (a Unix signal on UMAX; a rendezvous cost here) and waits.
///   2. All processors start collecting together.
///   3. Each processor first roots from the task it was executing, then
///      processes *segments* of the static data area (here: symbol-table
///      segments, code constant pools, and the task registry) from a shared
///      lock-protected queue until none remain.
///   4. Processors synchronize again and resume the mutator.
///
/// Copying is depth-first via an explicit per-processor stack (after Clark,
/// as in T3) and each object is moved exactly once — the per-object "move
/// lock" is the forwarding flag. As in the paper, once a processor moves an
/// object it also moves all of that object's components: there is no load
/// balancing below segment granularity, so the work distribution can be
/// uneven; bench_gc_parallel measures exactly that.
///
/// One deliberate improvement borrowed from contemporary systems: when the
/// collector encounters a pointer to a *resolved* future it splices the
/// future out, replacing the reference with the resolved value.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_RUNTIME_GC_H
#define MULT_RUNTIME_GC_H

#include "runtime/Heap.h"
#include "support/VirtualLock.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace mult {

/// Callback used to visit (and possibly rewrite) one root slot.
using RootVisitor = std::function<void(Value &)>;

/// Interface the engine implements to expose its roots to the collector.
class GcClient {
public:
  virtual ~GcClient();

  /// Number of shared root segments (static-area segments in the paper).
  virtual unsigned numRootSegments() = 0;

  /// Visits every root slot in segment \p Segment.
  virtual void scanRootSegment(unsigned Segment, const RootVisitor &Visit) = 0;

  /// Visits roots private to processor \p Proc — the task it was executing
  /// when the collection was signalled (paper step 3).
  virtual void scanProcessorRoots(unsigned Proc, const RootVisitor &Visit) = 0;

  /// Called after copying finishes but before the semispaces flip, while
  /// from-space forwarding headers are still readable. The only moment a
  /// client may translate weak (non-root) object pointers; after the flip
  /// the from-space contents are gone (debug builds poison them).
  virtual void preFlip() {}

  /// Called immediately before preFlip, at the same point in the
  /// collection: the client's chance to patch weak pointers cached in
  /// non-heap side structures (the threaded interpreter's inline-cache
  /// slots) through the still-readable forwarding headers. Split from
  /// preFlip so cache remapping and the serial-map remap stay independently
  /// overridable. Default: nothing.
  virtual void remapWeakCaches() {}

  /// Checked once per collection: when false, pollGcKill is never called
  /// during it. Default: off, so dormant runs pay one call per collection.
  virtual bool pollsGcKills() const { return false; }

  /// Polled between collection work units while pollsGcKills(), with the
  /// virtual clock of the processor about to be stepped. Returns true when
  /// a proc-kill fault fires *inside* this collection: \p Victim dies
  /// between its root-scan and copy phases. The collector completes the
  /// victim's pending scan, hands its copy stack to a survivor, and
  /// excludes it from further collection work; the client performs the
  /// machine-level fail-stop (and task recovery) after collect() returns.
  /// Default: never.
  virtual bool pollGcKill(uint64_t Clock, unsigned &Victim) {
    (void)Clock;
    (void)Victim;
    return false;
  }

  /// When true (checked once per collection), the collector reports every
  /// survivor it copies through noteLiveObject so the client can rebuild
  /// exact per-owner live-word accounts (tenant heap quotas). Default: off,
  /// so dormant runs pay nothing beyond one branch per collection.
  virtual bool wantsLiveWordsTally() const { return false; }

  /// One survivor of \p TotalWords (header included) carrying owner tag
  /// \p Aux (Object::aux(): GroupId + 1, 0 = untracked) was copied to
  /// to-space. Called only when wantsLiveWordsTally() returned true at the
  /// start of the collection. Purely host-side bookkeeping: charges no
  /// virtual cycles and never perturbs the collection schedule.
  virtual void noteLiveObject(uint16_t Aux, uint32_t TotalWords) {
    (void)Aux;
    (void)TotalWords;
  }
};

/// The collector. Stateless between collections except for statistics.
class Gc {
public:
  struct CollectionStats {
    uint64_t ObjectsCopied = 0;
    uint64_t WordsCopied = 0;
    uint64_t FuturesSpliced = 0;
    /// Virtual cycles the collection took (rendezvous to resume), i.e. the
    /// pause time experienced by every processor.
    uint64_t PauseCycles = 0;
    /// Sum over processors of productive GC cycles (excludes waiting for
    /// the slowest processor at the final barrier).
    uint64_t WorkCycles = 0;
    /// Productive cycles of the busiest processor.
    uint64_t MaxProcWorkCycles = 0;
  };

  struct Stats {
    uint64_t Collections = 0;
    uint64_t TotalPauseCycles = 0;
    /// Longest single collection pause (the metric the latency story
    /// lives or dies by; the full distribution is in the telemetry
    /// gc_pause_cycles histogram).
    uint64_t MaxPauseCycles = 0;
    uint64_t TotalWorkCycles = 0;
    uint64_t TotalWordsCopied = 0;
    CollectionStats Last;
  };

  Gc(Heap &H, unsigned NumProcessors)
      : TheHeap(H), NumProcs(NumProcessors) {}

  /// Runs one full collection. \p ProcClocks are the processors' virtual
  /// clocks; on return every clock equals the post-collection resume time.
  /// Returns false on to-space overflow (heap genuinely exhausted).
  bool collect(GcClient &Client, std::vector<uint64_t> &ProcClocks);

  const Stats &stats() const { return AllStats; }
  void resetStats() { AllStats = Stats(); }

private:
  Heap &TheHeap;
  unsigned NumProcs;
  Stats AllStats;
};

/// Cycle costs of collection steps, in abstract NS32332 instructions.
namespace gccost {
inline constexpr uint64_t SignalRendezvous = 180; ///< Unix signal + handshake
inline constexpr uint64_t Resume = 40;
inline constexpr uint64_t MoveObjectBase = 6; ///< plus one cycle per word
inline constexpr uint64_t ForwardedCheck = 2; ///< the per-object move lock
inline constexpr uint64_t ScanSlot = 1;
inline constexpr uint64_t SegmentFetchHold = 3;
} // namespace gccost

} // namespace mult

#endif // MULT_RUNTIME_GC_H
