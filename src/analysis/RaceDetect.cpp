//===----------------------------------------------------------------------===//
///
/// \file
/// SP-relation vector-clock race checking (see RaceDetect.h).
///
//===----------------------------------------------------------------------===//

#include "analysis/RaceDetect.h"

#include "core/Task.h"
#include "support/StrUtil.h"

#include <algorithm>

using namespace mult;

RaceDetector::Row &RaceDetector::row(uint64_t Id) {
  uint32_t Idx = taskIndex(Id);
  if (Idx >= Rows.size()) {
    if (Idx >= RowLimit) {
      Refusal = strFormat("task slot %u is out of range", Idx);
      Spare = Row();
      return Spare;
    }
    Rows.resize(Idx + 1);
  }
  Row &R = Rows[Idx];
  if (R.Gen != taskGeneration(Id))
    R = Row{taskGeneration(Id)};
  return R;
}

RaceDetector::ClockId RaceDetector::publish(Row &R) {
  if (R.Comp == NoComp)
    return R.Clock;
  // Accesses after this fork/release point stay parallel to it.
  Pending.assign(1, Entry{R.Comp, Ticks[R.Comp]++});
  return joinPending(R.Clock, 0);
}

RaceDetector::ClockId RaceDetector::join(ClockId A, ClockId B) {
  if (A == B || B == 0)
    return A;
  if (A == 0)
    return B;
  Pending.assign(Arena.begin() + Starts[B], Arena.begin() + Starts[B + 1]);
  return joinPending(A, B);
}

RaceDetector::ClockId RaceDetector::joinPending(ClockId A, ClockId IdB) {
  // Merge into the arena's tail, then keep the result only if it is a
  // new clock. Arena is read by index: the appends may move it.
  size_t Start = Arena.size();
  bool ACovers = true, BCovers = true;
  size_t I = Starts[A], IEnd = Starts[A + 1], J = 0;
  while (I < IEnd || J < Pending.size()) {
    Entry X = I < IEnd ? Arena[I] : Entry{NoComp, 0};
    Entry Y = J < Pending.size() ? Pending[J] : Entry{NoComp, 0};
    if (X.Comp < Y.Comp) {
      BCovers = false;
      ++I;
    } else if (Y.Comp < X.Comp) {
      ACovers = false;
      X = Y;
      ++J;
    } else {
      ACovers &= X.Tick >= Y.Tick;
      BCovers &= Y.Tick >= X.Tick;
      X.Tick = std::max(X.Tick, Y.Tick);
      ++I;
      ++J;
    }
    Arena.push_back(X);
  }
  if (ACovers || (BCovers && IdB)) {
    Arena.resize(Start);
    return ACovers ? A : IdB;
  }
  Starts.push_back(static_cast<uint32_t>(Arena.size()));
  return static_cast<ClockId>(Starts.size() - 2);
}

RaceDetector::Row &RaceDetector::joinInto(uint64_t Id, ClockId Pub) {
  Row &R = row(Id);
  R.Clock = join(R.Clock, Pub);
  return R;
}

bool RaceDetector::ordered(uint32_t PriorComp, uint32_t PriorTick,
                           const Row &Cur) const {
  if (PriorComp == Cur.Comp)
    return true; // program order within one task
  auto End = Arena.begin() + Starts[Cur.Clock + 1];
  auto It = std::lower_bound(
      Arena.begin() + Starts[Cur.Clock], End, PriorComp,
      [](const Entry &E, uint32_t Comp) { return E.Comp < Comp; });
  return It != End && It->Comp == PriorComp && It->Tick >= PriorTick;
}

uint64_t RaceDetector::runningOn(uint8_t Proc) const {
  return Proc < Running.size() ? Running[Proc] : InvalidTask;
}

void RaceDetector::report(uint64_t Cell, const Access &Prior,
                          const Access &Cur) {
  if (!Reported.emplace(Cell, Cur.Slot, Prior.Task, Cur.Task).second)
    return; // same pair of tasks on the same slot already reported
  ++RaceN;
  if (Races.size() < kMaxStoredRaces)
    Races.push_back({Cell, Cur.Slot, Prior, Cur});
}

void RaceDetector::access(const TraceEvent &E, bool Write) {
  ++AccessN;
  CellsSeen.insert(E.A);
  Row &T = row(E.C);
  if (T.Comp == NoComp) {
    // Materialize: this task now owns a clock component.
    T.Comp = static_cast<uint32_t>(Ticks.size());
    Ticks.push_back(1);
  }
  uint32_t Tick = Ticks[T.Comp];

  Access Cur;
  Cur.Task = E.C;
  Cur.Clock = E.Clock;
  Cur.Slot = E.B;
  Cur.SiteId = T.SiteId;
  Cur.Proc = E.Proc;
  Cur.Write = Write;

  SlotState &S = Slots[{E.A, E.B}];
  if (S.WComp != NoComp && !ordered(S.WComp, S.WTick, T))
    report(E.A, S.WInfo, Cur);
  if (Write) {
    for (const ReadEpoch &R : S.Reads)
      if (!ordered(R.Comp, R.Tick, T))
        report(E.A, R.Info, Cur);
    S.WComp = T.Comp;
    S.WTick = Tick;
    S.WInfo = Cur;
    S.Reads.clear();
    return;
  }
  for (ReadEpoch &R : S.Reads)
    if (R.Comp == T.Comp) {
      R.Tick = Tick;
      R.Info = Cur;
      return;
    }
  S.Reads.push_back({T.Comp, Tick, Cur});
}

void RaceDetector::onTraceEvent(const TraceEvent &E) {
  switch (E.Kind) {
  case TraceEventKind::TaskCreate:
    if (E.C != InvalidTask) {
      joinInto(E.A, publish(row(E.C)));
    } else {
      // A parentless task is a run root: Machine::run starts from
      // quiescence, so everything already seen happens-before it. This
      // serializes successive top-level evals -- a REPL define does not
      // "race" with the program run after it.
      Pending.clear();
      for (uint32_t C = 0; C < Ticks.size(); ++C)
        Pending.push_back({C, Ticks[C]});
      Row &Child = row(E.A);
      Child.Clock = joinPending(Child.Clock, 0);
    }
    break;
  case TraceEventKind::TaskStart:
    if (E.Proc >= Running.size())
      Running.resize(E.Proc + 1, InvalidTask);
    Running[E.Proc] = E.A;
    break;
  case TraceEventKind::FutureCreate:
    row(E.A).SiteId = static_cast<uint32_t>(E.B) + 1;
    break;
  case TraceEventKind::FutureResolve: {
    // The resolver is whatever task the emitting processor last started.
    if (E.C == 0)
      break;
    uint64_t Resolver = runningOn(E.Proc);
    ClockId Pub = Resolver != InvalidTask ? publish(row(Resolver)) : 0;
    // Serials come from one counter, one resolve each, so a stream's
    // serials run on from its first.
    if (ResolveVC.empty())
      ResolveBase = E.C;
    if (E.C < ResolveBase || E.C - ResolveBase > ResolveVC.size()) {
      Refusal = strFormat("resolve serial %llu is out of sequence",
                          static_cast<unsigned long long>(E.C));
      break;
    }
    if (E.C - ResolveBase == ResolveVC.size())
      ResolveVC.push_back(Pub);
    else
      ResolveVC[E.C - ResolveBase] = Pub;
    break;
  }
  case TraceEventKind::TouchHit: {
    // Serial 0: resolved while tracing was off. Before ResolveBase:
    // resolved before the detector was last cleared. No edge either way.
    if (E.C < ResolveBase || E.C - ResolveBase >= ResolveVC.size())
      break;
    if (ClockId Pub = ResolveVC[E.C - ResolveBase])
      joinInto(E.A, Pub);
    break;
  }
  case TraceEventKind::TaskResume:
    if (E.C != InvalidTask)
      joinInto(E.A, publish(row(E.C)));
    break;
  case TraceEventKind::InlineDecision: {
    // A lazy seam (A == 2) is a fork point: snapshot the pusher so a
    // stolen continuation starts parallel to the child code the pusher
    // keeps running.
    if (E.A != 2)
      break;
    uint64_t Pusher = runningOn(E.Proc);
    if (Pusher != InvalidTask)
      SeamVC[E.C] = {publish(row(Pusher)), static_cast<uint32_t>(E.B) + 1};
    break;
  }
  case TraceEventKind::SeamSteal: {
    auto It = SeamVC.find(E.C);
    if (It != SeamVC.end()) {
      joinInto(E.A, It->second.first).SiteId = It->second.second;
      SeamVC.erase(It);
    }
    break;
  }
  case TraceEventKind::SemAcquire: {
    auto It = SemVC.find(E.A);
    if (It != SemVC.end())
      joinInto(E.C, It->second);
    break;
  }
  case TraceEventKind::SemRelease: {
    // Accumulate rather than overwrite: transitive release knowledge
    // only adds happens-before edges (conservative, fewer false races).
    ClockId Pub = publish(row(E.C));
    ClockId &L = SemVC[E.A];
    L = join(L, Pub);
    break;
  }
  case TraceEventKind::CellRead:
    access(E, /*Write=*/false);
    break;
  case TraceEventKind::CellWrite:
    access(E, /*Write=*/true);
    break;
  default:
    break; // lifecycle/GC/idle/fault events carry no SP edges
  }
}

void RaceDetector::clear() {
  Rows.clear();
  Ticks.clear();
  Arena.clear();
  Starts.assign(2, 0);
  ResolveVC.clear();
  ResolveBase = 0;
  SeamVC.clear();
  SemVC.clear();
  Slots.clear();
  CellsSeen.clear();
  Running.clear();
  Reported.clear();
  Races.clear();
  RaceN = 0;
  AccessN = 0;
  RowLimit = ~uint64_t(0);
  Refusal.clear();
}

std::string
RaceDetector::describe(const Race &R,
                       const std::vector<std::string> &SiteNames) const {
  auto Side = [&](const Access &A) {
    std::string Site =
        A.SiteId && A.SiteId <= SiteNames.size()
            ? "spawned at " + SiteNames[A.SiteId - 1]
            : std::string("top level");
    return strFormat("%s by task %llu (%s) at cycle %llu on proc %u",
                     A.Write ? "write" : "read ",
                     static_cast<unsigned long long>(A.Task & 0xffffffffu),
                     Site.c_str(), static_cast<unsigned long long>(A.Clock),
                     static_cast<unsigned>(A.Proc));
  };
  return strFormat("race on cell %llu slot %u:\n  %s\n  %s\n",
                   static_cast<unsigned long long>(R.Cell), R.Slot,
                   Side(R.Prior).c_str(), Side(R.Current).c_str());
}

bool mult::analyzeRaces(const std::vector<TraceEvent> &Events,
                        uint64_t Dropped, RaceDetector &D, std::string &Err) {
  D.clear();
  if (Dropped != 0) {
    Err = strFormat(
        "trace dropped %llu events (ring overflow or sink error); the "
        "series-parallel relation is incomplete and race verdicts would be "
        "unreliable -- rerun with an unbounded/larger sink or the online "
        "detector (MULT_RACE=1)",
        static_cast<unsigned long long>(Dropped));
    return false;
  }
  D.RowLimit = Events.size() + RaceDetector::kOfflineSlotSlack;
  for (const TraceEvent &E : Events) {
    D.onTraceEvent(E);
    if (!D.Refusal.empty()) {
      Err = "malformed trace: " + D.Refusal +
            "; it was not emitted by a Mul-T engine, so race verdicts "
            "would be meaningless";
      return false;
    }
  }
  return true;
}
