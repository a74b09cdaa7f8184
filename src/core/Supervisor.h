//===----------------------------------------------------------------------===//
///
/// \file
/// Supervisor: declarative restart policies over task groups.
///
/// The tenant fault-domain layer treats each group (paper section 2.3) as a
/// supervised unit of work. When a group terminates abnormally — a
/// breakloop condition, a quota or budget trip, a processor loss that
/// orphaned its tasks — the supervisor consults a per-group policy:
///
///   one-shot                 the stop is final (default)
///   restart:max=N,backoff=B  schedule restart k at stop + B * 2^k virtual
///                            cycles; after N restarts, give up permanently
///   escalate                 propagate: the whole multi-group run ends
///
/// Everything happens in virtual time: restart events are ordered by their
/// due clock, so the schedule is deterministic and seed-stable — the same
/// plan replays bit-identically. The transcript records decisions with
/// *relative* backoff delays only (never absolute clocks), so the demo
/// transcript is stable across processor counts as long as the stop
/// sequence is.
///
/// The supervisor only decides; the tenant layer performs the mechanics
/// (Tenancy::restartGroup restores the signalling task from its newest
/// epoch-valid checkpoint record, or simply re-readies a restartable
/// stop). It acts exclusively at group-termination edges and
/// its bookkeeping charges no virtual cycles, so a dormant supervisor is
/// bit-invisible.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_SUPERVISOR_H
#define MULT_CORE_SUPERVISOR_H

#include "core/Task.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mult {

class Supervisor {
public:
  struct Policy {
    enum class Kind : uint8_t { OneShot, Restart, Escalate };
    Kind K = Kind::OneShot;
    /// Restart only: permanent give-up after this many restarts.
    unsigned MaxRestarts = 3;
    /// Restart k (1-based attempt) fires BackoffBase * 2^(k-1) virtual
    /// cycles after the stop.
    uint64_t BackoffBase = 4096;
  };

  /// What the supervisor decided at a group-termination edge.
  enum class Verdict : uint8_t {
    LeaveStopped,     ///< one-shot: the stop is final
    RestartScheduled, ///< a restart event was queued in virtual time
    GaveUp,           ///< restart storm: MaxRestarts exhausted
    Escalate,         ///< policy says propagate: end the whole run
  };

  /// Parses "one-shot" | "escalate" | "restart[:max=N,backoff=B]".
  static bool parsePolicy(std::string_view Spec, Policy &Out,
                          std::string &Err);
  /// Renders a policy back into the spec syntax.
  static std::string formatPolicy(const Policy &P);

  void setDefaultPolicy(const Policy &P) { Default = P; }
  const Policy &defaultPolicy() const { return Default; }
  void setGroupPolicy(GroupId G, const Policy &P);
  const Policy &policyFor(GroupId G) const;

  /// Consults the policy for group \p G which stopped at \p Clock; may
  /// queue a restart event. \p Condition is used for the transcript only
  /// (its prefix up to the first ':', so no clock-bearing text leaks in).
  Verdict onGroupStopped(GroupId G, uint64_t Clock, std::string_view Banner,
                         std::string_view Condition);

  /// A scheduled restart of group G.
  struct Pending {
    uint64_t Due = 0;
    GroupId G = InvalidGroup;
    unsigned Attempt = 0;
    uint64_t StopClock = 0;
  };
  /// Earliest pending restart event, if any.
  bool nextEventClock(uint64_t &Due) const;
  /// Pops one event due at or before \p Now (earliest first).
  std::optional<Pending> takeDue(uint64_t Now);

  unsigned restartsTaken(GroupId G) const;

  /// Deterministic decision log (see file comment); printed by
  /// `:supervise` and the tenant demo.
  const std::vector<std::string> &transcript() const { return Transcript; }
  void note(std::string Line) { Transcript.push_back(std::move(Line)); }

  /// Starts a fresh supervised run: clears pending events, per-group
  /// policies, restart counters and the transcript. The default policy
  /// survives (it is configuration, not run state).
  void beginRun();

private:
  struct GroupSup {
    Policy Pol;
    bool HasPolicy = false;
    unsigned Restarts = 0;
  };

  Policy Default;
  std::map<GroupId, GroupSup> PerGroup;
  /// Pending restarts sorted by (Due, G); consumed from Head.
  std::vector<Pending> Queue;
  size_t Head = 0;
  std::vector<std::string> Transcript;
};

} // namespace mult

#endif // MULT_CORE_SUPERVISOR_H
