//===----------------------------------------------------------------------===//
///
/// \file
/// Supervisor implementation: policy parsing, restart scheduling, and the
/// deterministic decision transcript.
///
//===----------------------------------------------------------------------===//

#include "core/Supervisor.h"

#include "support/StrUtil.h"

#include <algorithm>

using namespace mult;

namespace {

/// The condition's class: everything before the first ':' ("group-heap-quota",
/// "processor-lost", ...). Keeps clock-bearing detail text out of the
/// transcript so it stays stable across processor counts.
std::string_view conditionClass(std::string_view Condition) {
  return Condition.substr(0, Condition.find(':'));
}

} // namespace

bool Supervisor::parsePolicy(std::string_view Spec, Policy &Out,
                             std::string &Err) {
  Spec = trim(Spec);
  Policy P;
  if (Spec == "one-shot" || Spec == "oneshot" || Spec == "escalate") {
    P.K = Spec == "escalate" ? Policy::Kind::Escalate : Policy::Kind::OneShot;
    Out = P;
    return true;
  }
  std::string_view Opts; // empty: the defaults
  if (Spec.rfind("restart:", 0) == 0) {
    Opts = Spec.substr(8);
  } else if (Spec != "restart") {
    Err = strFormat("unknown policy '%.*s' (want one-shot | escalate | "
                    "restart[:max=N,backoff=B])",
                    int(Spec.size()), Spec.data());
    return false;
  }
  P.K = Policy::Kind::Restart;
  for (std::string_view Part : splitAny(Opts, ",")) {
    std::string_view Clause = trim(Part);
    if (Clause.empty())
      continue;
    size_t Eq = Clause.find('=');
    uint64_t V = 0;
    bool Ok = Eq != std::string_view::npos &&
              parseU64(trim(Clause.substr(Eq + 1)), V);
    std::string_view Key = trim(Clause.substr(0, Eq));
    if (Ok && Key == "max" && V <= 1000) {
      P.MaxRestarts = unsigned(V);
    } else if (Ok && Key == "backoff" && V > 0) {
      P.BackoffBase = V;
    } else {
      Err = strFormat("bad restart option '%.*s'", int(Clause.size()),
                      Clause.data());
      return false;
    }
  }
  Out = P;
  return true;
}

std::string Supervisor::formatPolicy(const Policy &P) {
  switch (P.K) {
  case Policy::Kind::OneShot:
    return "one-shot";
  case Policy::Kind::Escalate:
    return "escalate";
  case Policy::Kind::Restart:
    return strFormat("restart:max=%u,backoff=%llu", P.MaxRestarts,
                     (unsigned long long)P.BackoffBase);
  }
  return "one-shot";
}

void Supervisor::setGroupPolicy(GroupId G, const Policy &P) {
  GroupSup &S = PerGroup[G];
  S.Pol = P;
  S.HasPolicy = true;
}

const Supervisor::Policy &Supervisor::policyFor(GroupId G) const {
  auto It = PerGroup.find(G);
  if (It != PerGroup.end() && It->second.HasPolicy)
    return It->second.Pol;
  return Default;
}

Supervisor::Verdict Supervisor::onGroupStopped(GroupId G, uint64_t Clock,
                                               std::string_view Banner,
                                               std::string_view Condition) {
  const Policy &Pol = policyFor(G);
  std::string B(Banner), Cls(conditionClass(Condition));
  switch (Pol.K) {
  case Policy::Kind::OneShot:
    note(strFormat("one-shot: group %u \"%s\" left stopped (%s)", G,
                   B.c_str(), Cls.c_str()));
    return Verdict::LeaveStopped;
  case Policy::Kind::Escalate:
    note(strFormat("escalate: group %u \"%s\" stopped (%s); ending run", G,
                   B.c_str(), Cls.c_str()));
    return Verdict::Escalate;
  case Policy::Kind::Restart:
    break;
  }
  GroupSup &S = PerGroup[G];
  if (!S.HasPolicy) {
    S.Pol = Pol;
    S.HasPolicy = true;
  }
  if (S.Restarts >= Pol.MaxRestarts) {
    note(strFormat("gave-up: group %u \"%s\" after %u restarts (%s)", G,
                   B.c_str(), S.Restarts, Cls.c_str()));
    return Verdict::GaveUp;
  }
  unsigned Attempt = ++S.Restarts;
  // Backoff = base * 2^(attempt-1); the shift is clamped so a huge
  // max-restarts setting cannot overflow into an instant retry.
  unsigned Shift = std::min(Attempt - 1, 32u);
  uint64_t Delay = Pol.BackoffBase << Shift;
  Pending E{Clock + Delay, G, Attempt, Clock};
  // Sorted insert after Head; ties break by group id for determinism.
  auto Less = [](const Pending &A, const Pending &B) {
    return A.Due != B.Due ? A.Due < B.Due : A.G < B.G;
  };
  Queue.insert(std::upper_bound(Queue.begin() + long(Head), Queue.end(), E,
                                Less),
               E);
  note(strFormat("restart: group %u \"%s\" attempt %u/%u after %llu "
                 "cycles (%s)",
                 G, B.c_str(), Attempt, Pol.MaxRestarts,
                 (unsigned long long)Delay, Cls.c_str()));
  return Verdict::RestartScheduled;
}

bool Supervisor::nextEventClock(uint64_t &Due) const {
  if (Head >= Queue.size())
    return false;
  Due = Queue[Head].Due;
  return true;
}

std::optional<Supervisor::Pending> Supervisor::takeDue(uint64_t Now) {
  if (Head >= Queue.size() || Queue[Head].Due > Now)
    return std::nullopt;
  Pending E = Queue[Head++];
  if (Head == Queue.size()) {
    Queue.clear();
    Head = 0;
  }
  return E;
}

unsigned Supervisor::restartsTaken(GroupId G) const {
  auto It = PerGroup.find(G);
  return It == PerGroup.end() ? 0 : It->second.Restarts;
}

void Supervisor::beginRun() {
  PerGroup.clear();
  Queue.clear();
  Head = 0;
  Transcript.clear();
}
