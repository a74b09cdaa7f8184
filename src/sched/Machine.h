//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual-time multiprocessor.
///
/// Substitute for the Encore Multimax (see DESIGN.md): N virtual
/// processors, each with a cycle clock; the machine always steps the
/// processor with the smallest clock, for a quantum of cycles at a time.
/// One host thread plays all processors, so every runtime operation is
/// atomic and the schedule is deterministic; contention is modelled by
/// VirtualLock busy-intervals. Speedup numbers come out in virtual time,
/// which reproduces the *shape* of the paper's tables exactly and is
/// immune to host-machine noise (the paper's UMAX runs varied by ~5%; ours
/// are bit-stable).
///
//===----------------------------------------------------------------------===//

#ifndef MULT_SCHED_MACHINE_H
#define MULT_SCHED_MACHINE_H

#include "sched/Adaptive.h"
#include "sched/TaskQueues.h"

#include <string>
#include <vector>

namespace mult {

class Engine;

/// One virtual processor.
struct Processor {
  unsigned Id = 0;
  uint64_t Clock = 0;
  TaskQueues Queues;

  /// The task this processor is running (InvalidTask when idle). Written
  /// only through setCurrent, which keeps the machine's running-processor
  /// count exact.
  TaskId current() const { return Current; }
  void setCurrent(TaskId T) {
    *RunningTally = *RunningTally + (T != InvalidTask) -
                    (Current != InvalidTask);
    Current = T;
  }

  // Statistics. Every cycle the clock advances lands in exactly one of
  // BusyCycles (charge), IdleCycles (idle ticks + waiting for a run to
  // start) or GcCycles (collection pauses), so
  //   Clock == ClockAtReset + BusyCycles + IdleCycles + GcCycles
  // holds from any resetStats (TraceTest asserts it).
  uint64_t BusyCycles = 0;
  uint64_t IdleCycles = 0;
  uint64_t GcCycles = 0;           ///< collection pauses (rendezvous to resume)
  uint64_t ClockAtReset = 0;       ///< Clock at the last resetStats
  uint64_t Instructions = 0;
  uint64_t Dispatches = 0;
  uint64_t Steals = 0;
  uint64_t StealAttempts = 0; ///< probes this processor made as a thief
  uint64_t StealsFailed = 0;  ///< of those, probes that found nothing
  uint64_t StolenFrom = 0;    ///< tasks thieves took from this processor
  uint64_t TasksStarted = 0;
  uint64_t HandlerActivations = 0; ///< exception-handler server task runs

  /// Adaptive inlining-threshold controller state (sched/Adaptive.h);
  /// consulted only when EngineConfig::AdaptiveInline is set.
  AdaptiveTState Adapt;

  /// Fail-stopped by a proc-kill fault: never stepped again, skipped as a
  /// steal victim and as a wake-up home. Its queues are drained by
  /// Engine::recoverProcessor the moment it dies, and it still follows GC
  /// rendezvous clock jumps so busy + idle + GC cycles keep tiling its
  /// (now frozen) clock.
  bool Dead = false;

  /// Armed by a proc-lie fault: the next finishing future value this
  /// processor resolves is corrupted (byzantine fault). Cleared once the
  /// lie is told — or caught by a cross-check, so a resume after a
  /// byzantine-detected stop resolves honestly.
  bool Lying = false;

  /// Checkpoint records captured on this processor (zero unless
  /// EngineConfig::CheckpointEvery is armed; reset by resetStats).
  uint64_t CheckpointsTaken = 0;
  /// This processor's clock at its newest capture (0 = none yet).
  uint64_t LastCheckpointClock = 0;

  /// True between the first fruitless dispatch and the next successful
  /// one; lets the run loop emit one idle-begin/idle-end trace pair per
  /// idle interval instead of one per idle tick.
  bool TraceIdling = false;

  /// Parked by the run loop (see Machine::run): idle, and its steal
  /// sweeps are charged in closed form instead of being stepped. Clock is
  /// the clock of its next sweep; WakeClock is the clock of the first
  /// sweep that must be stepped after all (an adaptive window closes or
  /// the run's cycle limit fires there), and orders it in selection.
  bool Parked = false;
  uint64_t WakeClock = 0;

  void charge(uint64_t Cycles) {
    Clock += Cycles;
    BusyCycles += Cycles;
  }

private:
  friend class Machine;
  TaskId Current = InvalidTask;
  unsigned *RunningTally = nullptr; ///< set by the owning Machine
};

/// Why Machine::run returned.
enum class RunStatus : uint8_t {
  Completed,    ///< Root future resolved; Result holds the value.
  GroupStopped, ///< The root group hit an exception (breakloop time).
  Deadlock,     ///< Quiescent with the root unresolved.
  HeapExhausted,///< GC could not reclaim enough space.
  CycleLimit,   ///< Config.MaxRunCycles exceeded.
};

/// Snapshot of heap occupancy taken when a run ends on a heap condition,
/// so callers (and the breakloop user) can see *why* without poking the
/// engine.
struct HeapFacts {
  size_t UsedWords = 0;
  size_t CapacityWords = 0; ///< semispace size
  uint64_t Collections = 0;
  bool CollectorWedged = false; ///< to-space overflow left the heap unusable
  /// The group holding the most heap words when the condition was raised
  /// (InvalidGroup unless the tenant quota layer is armed — attribution
  /// needs the per-group accounting it maintains).
  GroupId OffenderGroup = InvalidGroup;
  uint64_t OffenderLiveWords = 0;
};

struct RunResult {
  RunStatus Status = RunStatus::Completed;
  Value Result = Value::unspecified();
  GroupId StoppedGroup = InvalidGroup;
  std::string Error;
  uint64_t ElapsedCycles = 0;
  HeapFacts Heap; ///< meaningful for HeapExhausted (and heap-caused stops)
};

/// The machine.
class Machine {
public:
  Machine(unsigned NumProcessors, uint64_t QuantumCycles,
          uint64_t MaxRunCycles, StealOrder Order,
          const AdaptiveTConfig &Adaptive = AdaptiveTConfig());
  // The processors' queues and running flags point back at the tallies.
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  /// Runs until the engine's root future resolves (or an exceptional
  /// status). Runnable tasks must already be enqueued.
  RunResult run(Engine &E);

  unsigned numProcessors() const {
    return static_cast<unsigned>(Procs.size());
  }
  Processor &processor(unsigned I) { return Procs[I]; }
  const Processor &processor(unsigned I) const { return Procs[I]; }

  /// Collects all processor clocks (GC rendezvous).
  std::vector<uint64_t> clocks() const;
  void setClocks(const std::vector<uint64_t> &C);

  StealOrder stealOrder() const { return Order; }

  const AdaptiveTConfig &adaptiveConfig() const { return Adaptive; }
  bool adaptiveEnabled() const { return Adaptive.Enabled; }

  /// Machine-lifetime count of closed adaptation windows (never reset —
  /// the ordinal that fault-plan adapt-clamp/adapt-reset clauses key on).
  /// Lets callers aim a clause at upcoming windows: the prelude and any
  /// earlier evals already consumed the low ordinals.
  uint64_t adaptWindowsClosed() const { return AdaptWindowOrdinal; }

  /// Re-baselines every processor's open adaptation window against the
  /// current counters (Engine::resetStats calls this after zeroing them,
  /// so window deltas never straddle a reset). Learned thresholds persist.
  void rebaselineAdaptiveWindows();

  /// True when nothing can make progress: no current tasks, all queues
  /// empty, and no stealable lazy seams. O(1): reads the machine-wide
  /// queued-entry and running-processor tallies.
  bool quiescent(const Engine &E) const;

  /// Charges every parked processor the idle sweeps it would have run
  /// before the current selection's step and unparks it. Anything that
  /// reads every processor clock mid-run (the GC rendezvous) calls this
  /// first; a no-op when nothing is parked.
  void settleParked(Engine &E);

  /// Machine-lifetime count of idle sweeps charged in closed form (never
  /// reset; zero on runs that keep the per-sweep loop).
  uint64_t sweepsSettled() const { return SweepsSettled; }

  /// Processors not fail-stopped by a proc-kill fault.
  unsigned liveProcessors() const;

  /// The quantum this machine steps processors by.
  uint64_t quantum() const { return Quantum; }

  /// True while run() is executing (fault clocks are run-relative; the
  /// GC kill poll must not fire from an allocation outside a run).
  bool inRun() const { return InRun; }

  /// The machine-wide clock run() started from (max processor clock at
  /// entry); converts absolute clocks to run-relative fault marks.
  uint64_t runStartClock() const { return RunStart; }

  /// \p Preferred if it is alive, else the next live processor in id
  /// order. Wake-ups (future resolve, semaphore V, group resume) route
  /// through this so a task whose home processor died is re-homed instead
  /// of sitting on a dead queue forever.
  Processor &homeFor(unsigned Preferred);

private:
  /// The live processor with the smallest (clock, id) key; a parked
  /// processor's key is its wake clock.
  unsigned minClockProcessor() const;

  /// The run loop proper; run() wraps it with the entry sync and the exit
  /// accounting every return path shares.
  RunResult runLoop(Engine &E, uint64_t Start);

  /// Parks idle processor \p P (its sweep just found nothing anywhere).
  void park(Processor &P, uint64_t Start);
  /// Charges parked \p P the sweeps ordered before the step keyed
  /// (\p Clock, \p Id) and unparks it.
  void settle(Engine &E, Processor &P, uint64_t Clock, unsigned Id);

  /// Closes \p P's adaptation window: reads the window's signals, feeds
  /// them through decideStep/applyStep (or an injected adapt-clamp /
  /// adapt-reset fault), charges cost::AdaptiveWindow, and opens the next
  /// window.
  void closeAdaptiveWindow(Engine &E, Processor &P);
  void beginAdaptiveWindow(Processor &P);

  std::vector<Processor> Procs;
  uint64_t Quantum;
  uint64_t MaxRunCycles;
  StealOrder Order;
  AdaptiveTConfig Adaptive;
  /// Machine-wide count of closed windows; the deterministic ordinal
  /// fault-plan adapt-* clauses key on.
  uint64_t AdaptWindowOrdinal = 0;
  /// See inRun()/runStartClock().
  bool InRun = false;
  uint64_t RunStart = 0;

  /// Machine-wide tallies: entries on every processor's queues (kept by
  /// TaskQueues) and processors with a current task (kept by
  /// Processor::setCurrent).
  size_t Queued = 0;
  unsigned Running = 0;

  /// Idle parking, decided once per run: off while anything observes
  /// individual probes or polls every iteration (tracing, race
  /// detection, a fault plan, the tenant layer).
  bool ParkingAllowed = false;
  unsigned ParkedCount = 0;
  /// One empty sweep: busy cycles, steal probes, busy + idle-tick cycles.
  uint64_t SweepBusy = 0;
  uint64_t SweepProbes = 0;
  uint64_t SweepCycles = 0;
  /// Key (clock, id) of the current selection; parked sweeps ordered
  /// before it are the ones settleParked charges.
  uint64_t SelClock = 0;
  unsigned SelId = 0;
  uint64_t SweepsSettled = 0;
};

} // namespace mult

#endif // MULT_SCHED_MACHINE_H
