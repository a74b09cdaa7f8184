//===----------------------------------------------------------------------===//
///
/// \file
/// The recovery layer: fail-stop recovery, checkpoints and byzantine
/// cross-checks (DESIGN.md "Processor fail-stop and recovery" and
/// "Checkpointed recovery"). The core calls it directly at named seams: a
/// processor's fail-stop, the end of a slice, a task-finishing return and
/// a collection. Each seam has one caller; a dormant run reaches none.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_RECOVERY_H
#define MULT_CORE_RECOVERY_H

#include <cstdint>
#include <vector>

namespace mult {

class Engine;
class Task;
struct CheckpointRecord;
struct EngineConfig;
struct Processor;

class Recovery {
public:
  explicit Recovery(Engine &E) : E(E) {}

  /// Applies MULT_RECOVERY and MULT_CHECKPOINT to \p Cfg.
  static void readEnvironment(EngineConfig &Cfg);

  /// Fail-stop recovery for a just-killed processor \p Dead, observed by
  /// live \p P: restores or re-spawns every recoverable lost task onto
  /// survivors and stops the groups of the rest with a `processor-lost`
  /// condition. Queue entries that arrived at or after \p DoomClock (the
  /// kill mark's absolute cycle) are post-mortem wakes, redirected intact
  /// to a survivor; ~0 treats every drained task as lost backlog.
  void recoverProcessor(Processor &P, Processor &Dead, uint64_t DoomClock);
  /// Resumes \p T on \p Home from checkpoint record \p R. \p Cause is the
  /// TaskRestored trace event's C payload.
  void restore(Processor &P, Task &T, const CheckpointRecord &R,
               Processor &Home, uint64_t Cause);
  /// Charges a recovered task's re-executed busy cycles, up to its budget.
  void chargeRecovery(Task &T, uint64_t BusyDelta);
  /// Captures \p T at a quantum boundary if it owns its whole stack.
  void maybeCheckpoint(Processor &P, Task &T);
  /// Byzantine-fault hook for a task-finishing return, with the result on
  /// top of \p T's stack: may corrupt it (an unobserved proc-lie) or catch
  /// the lie with a sampled cross-check and stop the group restartably.
  /// True when the group stopped (the return must not commit).
  bool checkByzantineReturn(Processor &P, Task &T);
  /// GcClient::pollsGcKills: a fault plan is armed and a run is on.
  bool pollsGcKills() const;
  /// GcClient::pollGcKill: the collector finishes the victim's copy work
  /// on survivors; finishGcKills fail-stops it once the heap is whole.
  bool pollGcKill(uint64_t Clock, unsigned &Victim);
  void finishGcKills(bool Collected);
  /// True once a task was restored or re-spawned: its re-executed cycles
  /// are charged as it runs, in this run or a later one.
  bool charging() const { return Charging; }

private:
  struct PendingGcKill {
    unsigned Victim = 0;
    uint64_t Mark = 0; ///< run-relative doom mark from the plan
  };

  Engine &E;
  std::vector<PendingGcKill> PendingGcKills;
  bool Charging = false;
};

} // namespace mult

#endif // MULT_CORE_RECOVERY_H
