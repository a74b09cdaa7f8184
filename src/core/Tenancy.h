//===----------------------------------------------------------------------===//
///
/// \file
/// The tenant fault-domain layer: per-group heap quotas and cycle budgets,
/// the supervisor, the admission gate, load shedding and multi-group runs
/// (DESIGN.md "Tenant fault domains").
///
/// The engine holds a Tenancy only while something arms the layer (see
/// EngineConfig); an envelope-less evalGroups run holds one for its
/// length. Every tenant account lives here, so a dormant engine has none
/// and disarming drops them all. The core calls the layer directly at
/// named seams, each with one caller: the quantum, slice end, allocation,
/// the GC tally and commit, group creation and termination, root
/// resolution and allocation failure.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_TENANCY_H
#define MULT_CORE_TENANCY_H

#include "core/Supervisor.h"

#include <string>
#include <string_view>
#include <vector>

namespace mult {

class Engine;
class Object;
class Task;
struct EngineConfig;
struct EvalResult;
struct Group;
struct GroupLaunch;
struct Processor;

class Tenancy {
public:
  /// One group's resource envelope and its accounts.
  struct Envelope {
    /// Live-words heap quota; 0 = unlimited. Charged against it: LiveWords
    /// (exact at the last collection) + AllocWords.
    uint64_t HeapQuotaWords = 0;
    uint64_t CycleBudget = 0; ///< busy-cycle budget; 0 = unlimited
    uint64_t CyclesUsed = 0;  ///< busy cycles since launch or last restart
    uint64_t LiveWords = 0;
    uint64_t AllocWords = 0; ///< words allocated since the last collection
    int Priority = 0;        ///< load-shedding priority; lower sheds first
    /// One free collection is granted when the account first exceeds the
    /// quota, so garbage never trips it; cleared once back under.
    bool QuotaGraceUsed = false;
  };

  explicit Tenancy(Engine &E);

  // Arming: Engine's entry points, and the two fault marks.
  /// From EngineConfig, after bootstrap.
  static void armFromConfig(Engine &E);
  /// Applies a quota spec (Engine::configureQuota's grammar) to \p Cfg's
  /// four quota fields. False (and \p Err) on a malformed spec.
  static bool parseQuota(std::string_view Spec, EngineConfig &Cfg,
                         std::string &Err);
  static bool configureQuota(Engine &E, std::string_view Spec,
                             std::string &Err);
  static bool configureSupervisor(Engine &E, std::string_view Spec,
                                  std::string &Err);
  static std::vector<EvalResult>
  evalGroups(Engine &E, const std::vector<GroupLaunch> &Launches);
  /// quota-squeeze=G@C: clamps group G's heap quota to half its account
  /// (the lowest-id running user group when G names none).
  static void applyQuotaSqueeze(Engine &E, unsigned Gid);
  /// admit-burst=N@C: N synthetic probes through the admission gate.
  static void admitSyntheticBurst(Engine &E, unsigned N);

  bool supervising() const { return Supervising; }
  Supervisor &supervisor() { return Super; }
  Envelope &envelope(GroupId Id);
  /// LiveWords + AllocWords: an upper bound on live.
  uint64_t heapAccount(GroupId Id) const;
  /// The live or stopped group holding the most heap words, for
  /// heap-exhausted attribution (\p Words receives its account).
  GroupId largestHeapGroup(uint64_t &Words) const;

  // Seams.
  void onGroupCreated(const Group &G);
  /// The header owner tag for an allocation by \p P (0 = unmetered).
  uint16_t allocOwner(const Processor &P) const;
  void chargeAlloc(uint16_t Owner, uint64_t Words) {
    envelope(Owner - 1).AllocWords += Words;
  }
  void beginTally();
  void noteLive(uint16_t Owner, uint32_t Words);
  void commitTally();
  /// Quantum-boundary quota/budget check of \p T's group: may run one
  /// grace collection, and may stop that group (only it) restartably.
  /// True when it stopped.
  bool poll(Processor &P, Task &T);
  void chargeCycles(const Task &T, uint64_t BusyDelta);
  /// Fires every supervisor restart due at or before \p P's clock.
  void supervisorTick(Processor &P);
  bool nextSupervisorEvent(uint64_t &Due) const;
  /// A group's stop or kill in a multi-group run: consults the
  /// supervisor, and finalizes the launch unless a restart is scheduled.
  void onGroupTerminated(unsigned ProcId, uint64_t Clock, GroupId Gid);
  /// True when \p Fut was a launched group's root: the group is Done.
  bool noteRootResolved(Object *Fut, uint64_t Clock);
  /// Kills the lowest-priority launched group over its heap quota;
  /// InvalidGroup when none is.
  GroupId shedForPressure(Processor &P);

private:
  struct Launch {
    GroupId Gid = InvalidGroup;
    TaskId Root = InvalidTask;
    bool Admitted = false;
    bool Terminal = false;
    uint64_t EnqueuedAt = 0; ///< home-proc clock when queued, for telemetry
  };

  static Tenancy &arm(Engine &E);
  std::vector<EvalResult> runLaunches(const std::vector<GroupLaunch> &L);
  /// Re-readies a restartable stop, or restores the signalling task from
  /// its newest epoch-valid checkpoint. False when neither is possible.
  bool restartGroup(Processor &P, GroupId Gid);
  /// Marks \p Gid's launch terminal and admits queued launches into the
  /// freed slots; ends the run once none is outstanding or one escalated.
  void finalizeLaunch(GroupId Gid);
  void drainAdmissions();

  Engine &E;
  Supervisor Super;
  bool Supervising = false;
  /// Held only for an envelope-less evalGroups run: dropped at its end.
  bool Transient = false;
  std::vector<Envelope> Envelopes; ///< by group id
  std::vector<uint64_t> LiveTally; ///< by the running collection

  /// Multi-group run state, kept only inside evalGroups.
  std::vector<Launch> Launches;
  std::vector<size_t> Queue; ///< launch indices awaiting admission (FIFO)
  size_t QueueHead = 0;
  unsigned Live = 0;        ///< admitted launches not yet terminal
  unsigned Outstanding = 0; ///< admitted-or-queued launches not yet terminal
  bool Escalated = false;
};

} // namespace mult

#endif // MULT_CORE_TENANCY_H
