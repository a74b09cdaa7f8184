//===----------------------------------------------------------------------===//
///
/// \file
/// Critical-path analyzer implementation.
///
/// The algorithm is a single chronological sweep that maintains, per
/// processor, an *open run segment* (which task is on the processor,
/// since which clock, and the critical-path length accumulated at that
/// anchor) and, per task, the path length at which the task last became
/// ready. Busy cycles advance both the global work counter and the
/// current segment's path; dependence edges (spawn, resolve->touch,
/// resolve->resume, seam split) transfer path lengths between tasks with
/// a max. Span is the largest path length any task reaches. Every path
/// increment is also a work increment and joins only copy existing path
/// values, so span <= work holds by construction.
///
/// Per-task state lives in a dense table reached through one hash lookup
/// of the full TaskId. Registry slots are recycled under a new generation,
/// so a taskIndex alone would merge distinct tasks. Each processor caches
/// its running task's row, so accruing busy cycles needs no lookup.
///
/// Two outputs break ties explicitly: the span task is the lowest TaskId
/// among those reaching the longest path, and sites order by ChildWork
/// descending, then by site id ascending.
///
/// For the per-site on-path attribution each task keeps the short chain
/// of joins that *raised* its path (strictly increasing path values),
/// linked newest first through one pool all tasks share. The
/// final backtrack walks from the span endpoint through dominating
/// predecessors; the cycles a task contributes on the path are the
/// difference between the target path and its last dominating join below
/// it. This attributes the span exactly; the only approximation in the
/// whole analysis is touch-hits whose future was resolved while tracing
/// was off (counted in UnknownJoins, which can only underestimate span).
///
//===----------------------------------------------------------------------===//

#include "obs/CriticalPath.h"

#include "core/Task.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

using namespace mult;

namespace {

constexpr uint32_t NoSite = ~uint32_t(0);
constexpr uint32_t NoJoin = ~uint32_t(0);

/// A join that raised a task's path: after it, the task's path grows only
/// by the task's own busy cycles until the next dominating join.
struct Join {
  TaskId Pred;         ///< InvalidTask: creation with no traced parent.
  uint64_t PathAtJoin; ///< Path length inherited from Pred.
};

/// A Join in the pool every task's joins share, linked to the task's
/// previous join.
struct JoinLink {
  Join J;
  uint32_t Prev;
};

struct TaskInfo {
  uint64_t ReadyPath = 0; ///< Path at which the task last became ready.
  uint64_t Work = 0;      ///< Busy cycles executed so far.
  uint64_t EndPath = 0;   ///< Path at finish (or last block when unfinished).
  uint32_t Site = NoSite; ///< Future site that spawned it, if any.
  uint32_t LastJoin = NoJoin; ///< Newest join in the pool. PathAtJoin
                              ///< strictly increases oldest to newest.
  bool Started = false;
  bool FirstStartStolen = false;
};

/// Rows in first-use order, reached from their key through one hash
/// lookup.
template <class Key, class Row> class DenseTable {
public:
  void reserve(size_t N) {
    Index.reserve(N);
    Keys.reserve(N);
    Rows.reserve(N);
  }

  /// The row of \p K, created on first use.
  uint32_t ordinal(Key K) {
    auto [It, Fresh] = Index.try_emplace(K, static_cast<uint32_t>(Rows.size()));
    if (Fresh) {
      Keys.push_back(K);
      Rows.emplace_back();
    }
    return It->second;
  }
  Row &operator[](Key K) { return Rows[ordinal(K)]; }
  Row *find(Key K) {
    auto It = Index.find(K);
    return It == Index.end() ? nullptr : &Rows[It->second];
  }

  std::vector<Key> Keys;
  std::vector<Row> Rows;

private:
  std::unordered_map<Key, uint32_t> Index;
};

struct ProcState {
  bool HasTask = false;
  bool InGc = false;
  TaskId Task = InvalidTask;
  uint32_t TaskRow = 0; ///< Task's row in the task table, while HasTask.
  uint64_t Anchor = 0;  ///< Clock at which Path was last brought current.
  uint64_t Path = 0;    ///< Critical-path length of the running chain.
};

/// Events that publish a path other processors may consume at the same
/// clock sort before plain consumers (stable within a rank, so per-proc
/// emission order is preserved).
int sortRank(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::TaskCreate:
  case TraceEventKind::FutureCreate:
  case TraceEventKind::FutureResolve:
  case TraceEventKind::TaskResume:
  case TraceEventKind::SeamSteal:
  case TraceEventKind::TaskFinish:
    return 0;
  default:
    return 1;
  }
}

/// Event indices in sweep order: by clock, then rank, then index (so a
/// rank's events keep their emission order). The keys are flat words,
/// clock offset | rank | index, sorted by a stable LSD radix sort over
/// the clock and rank bits only: the index bits start sorted. A trace
/// whose clock span leaves no room for the index in one word (2^31
/// cycles or more at 2^32 events) sorts (clock, rank | index) pairs.
std::vector<uint32_t> sweepOrder(const std::vector<TraceEvent> &Events) {
  const size_t N = Events.size();
  uint64_t MinClock = ~uint64_t(0), MaxClock = 0;
  for (const TraceEvent &E : Events) {
    MinClock = std::min(MinClock, E.Clock);
    MaxClock = std::max(MaxClock, E.Clock);
  }
  unsigned IdxBits = 1;
  while ((uint64_t(1) << IdxBits) < N)
    ++IdxBits;
  const uint64_t Span = MaxClock - MinClock;
  std::vector<uint32_t> Order(N);
  if (Span >> (63 - IdxBits)) {
    std::vector<std::pair<uint64_t, uint64_t>> Keys(N);
    for (uint32_t I = 0; I < N; ++I)
      Keys[I] = {Events[I].Clock,
                 uint64_t(sortRank(Events[I].Kind)) << 32 | I};
    std::sort(Keys.begin(), Keys.end());
    for (size_t J = 0; J < N; ++J)
      Order[J] = static_cast<uint32_t>(Keys[J].second);
    return Order;
  }
  std::vector<uint64_t> Keys(N), Spare(N);
  for (uint32_t I = 0; I < N; ++I)
    Keys[I] = (Events[I].Clock - MinClock) << (IdxBits + 1) |
              uint64_t(sortRank(Events[I].Kind)) << IdxBits | I;
  constexpr unsigned DigitBits = 13;
  constexpr uint64_t DigitMask = (uint64_t(1) << DigitBits) - 1;
  const uint64_t HighBits = Span << 1 | 1; // clock offset and rank
  std::vector<size_t> Start(DigitMask + 2);
  for (unsigned Digit = 0; Digit < 64 && HighBits >> Digit;
       Digit += DigitBits) {
    unsigned Shift = IdxBits + Digit;
    std::fill(Start.begin(), Start.end(), 0);
    for (uint64_t K : Keys)
      ++Start[((K >> Shift) & DigitMask) + 1];
    for (size_t D = 1; D < Start.size(); ++D)
      Start[D] += Start[D - 1];
    for (uint64_t K : Keys)
      Spare[Start[(K >> Shift) & DigitMask]++] = K;
    Keys.swap(Spare);
  }
  const uint64_t IdxMask = (uint64_t(1) << IdxBits) - 1;
  for (size_t J = 0; J < N; ++J)
    Order[J] = static_cast<uint32_t>(Keys[J] & IdxMask);
  return Order;
}

} // namespace

CriticalPathReport
mult::analyzeCriticalPath(const std::vector<TraceEvent> &Events,
                          uint64_t Dropped,
                          const std::vector<std::string> &SiteNames) {
  CriticalPathReport R;
  if (Dropped) {
    R.Error = "trace dropped " + std::to_string(Dropped) +
              " events (ring overflow or sink error); the DAG is "
              "incomplete — rerun with an unbounded or larger sink";
    return R;
  }
  if (Events.empty()) {
    R.Error = "trace is empty (was tracing enabled for the run?)";
    return R;
  }

  // Chronological sweep order: by clock, publishers first within a clock,
  // per-processor emission order preserved.
  std::vector<uint32_t> Order = sweepOrder(Events);

  // One pre-pass sizes the tables and pairs restores with captures. A
  // restore resumes from the task's newest capture in emission order. The
  // dead processor can run (and capture) past the clock at which its kill
  // was polled, so that capture may sort after the restore: map each
  // TaskRestored to its capture now, and resolve the edge whichever of the
  // two the sweep reaches last.
  std::unordered_map<uint32_t, uint32_t> RestoreCapture; // restore -> capture
  size_t Creates = 0, Resolves = 0, Seams = 0;
  {
    std::unordered_map<TaskId, uint32_t> Newest;
    for (uint32_t I = 0; I < Events.size(); ++I) {
      const TraceEvent &E = Events[I];
      Creates += E.Kind == TraceEventKind::TaskCreate;
      Resolves += E.Kind == TraceEventKind::FutureResolve;
      Seams += E.Kind == TraceEventKind::InlineDecision && E.A == 2;
      if (E.Kind == TraceEventKind::CheckpointTaken) {
        Newest[E.A] = I;
      } else if (E.Kind == TraceEventKind::TaskRestored) {
        auto It = Newest.find(E.A);
        if (It != Newest.end())
          RestoreCapture[I] = It->second;
      }
    }
  }

  DenseTable<TaskId, TaskInfo> Tasks;
  Tasks.reserve(Creates);
  std::vector<ProcState> Procs(size_t(UINT8_MAX) + 1); // by TraceEvent::Proc
  // Resolve serial -> (path, resolver) published by FutureResolve.
  std::unordered_map<uint64_t, Join> ResolveEdges;
  ResolveEdges.reserve(Resolves);
  // Seam serial -> (path, pusher, site) published by InlineDecision(lazy).
  struct SeamPub {
    Join J;
    uint32_t Site;
  };
  std::unordered_map<uint64_t, SeamPub> SeamEdges;
  SeamEdges.reserve(Seams);
  std::unordered_map<uint32_t, uint64_t> CapturePath;  // capture -> path
  std::unordered_map<uint32_t, TaskId> PendingRestore; // capture -> task
  // Site ids come from the trace, so they key a table rather than index a
  // vector: one stray id must not size an allocation.
  DenseTable<uint32_t, FutureSiteProfile> SiteTable;

  std::vector<JoinLink> JoinPool;
  JoinPool.reserve(Creates + Resolves + Seams);
  auto addJoin = [&](TaskInfo &T, Join J) {
    JoinPool.push_back(JoinLink{J, T.LastJoin});
    T.LastJoin = static_cast<uint32_t>(JoinPool.size() - 1);
  };

  auto site = [&](uint32_t Id) -> FutureSiteProfile & {
    FutureSiteProfile &S = SiteTable[Id];
    if (S.Name.empty())
      S.Name = Id < SiteNames.size() ? SiteNames[Id]
                                     : "site#" + std::to_string(Id);
    return S;
  };

  // Accrues busy cycles up to \p Clock on \p PS's open segment.
  auto advance = [&](ProcState &PS, uint64_t Clock) {
    if (Clock > PS.Anchor) {
      if (PS.HasTask && !PS.InGc) {
        uint64_t Delta = Clock - PS.Anchor;
        PS.Path += Delta;
        R.Work += Delta;
        Tasks.Rows[PS.TaskRow].Work += Delta;
      }
      PS.Anchor = Clock;
    }
  };

  auto closeSegment = [&](ProcState &PS, uint64_t Clock, bool Finished) {
    advance(PS, Clock);
    if (!PS.HasTask)
      return;
    TaskInfo &T = Tasks.Rows[PS.TaskRow];
    if (Finished)
      T.EndPath = PS.Path;
    else
      T.ReadyPath = std::max(T.ReadyPath, PS.Path);
    PS.HasTask = false;
  };

  for (uint32_t Idx : Order) {
    const TraceEvent &E = Events[Idx];
    ProcState &PS = Procs[E.Proc];
    switch (E.Kind) {
    case TraceEventKind::TaskCreate: {
      advance(PS, E.Clock);
      TaskInfo &Child = Tasks[E.A];
      // The creating processor's current path is the child's earliest
      // possible start. This also covers parentless root tasks: successive
      // top-level forms run by one engine are issued serially, so a root
      // created after earlier work on this processor depends on it even
      // though no task id links them.
      Child.ReadyPath = PS.Path;
      TaskId Parent = E.C != InvalidTask && PS.HasTask ? PS.Task : InvalidTask;
      addJoin(Child, Join{Parent, PS.Path});
      break;
    }
    case TraceEventKind::TaskStart: {
      advance(PS, E.Clock);
      uint32_t Row = Tasks.ordinal(E.A);
      TaskInfo &T = Tasks.Rows[Row];
      if (!T.Started) {
        T.Started = true;
        T.FirstStartStolen = E.B == 1;
        ++R.Tasks;
      }
      PS.HasTask = true;
      PS.Task = E.A;
      PS.TaskRow = Row;
      PS.Anchor = E.Clock;
      PS.Path = T.ReadyPath;
      ++R.Segments;
      break;
    }
    case TraceEventKind::TaskBlock:
    case TraceEventKind::TaskStopped:
      closeSegment(PS, E.Clock, /*Finished=*/false);
      break;
    case TraceEventKind::TaskFinish:
      closeSegment(PS, E.Clock, /*Finished=*/true);
      break;
    case TraceEventKind::TaskResume: {
      // Emitted by the waker's processor: the waiter cannot run before
      // the waker's path at this point.
      advance(PS, E.Clock);
      TaskInfo &T = Tasks[E.A];
      if (PS.Path > T.ReadyPath) {
        T.ReadyPath = PS.Path;
        addJoin(T, Join{E.C, PS.Path});
        ++R.JoinEdges;
      }
      break;
    }
    case TraceEventKind::FutureResolve:
      advance(PS, E.Clock);
      if (E.C)
        ResolveEdges[E.C] =
            Join{PS.HasTask ? PS.Task : InvalidTask, PS.Path};
      break;
    case TraceEventKind::TouchHit: {
      advance(PS, E.Clock);
      if (!E.C) {
        ++R.UnknownJoins; // Resolved while tracing was off; edge unknowable.
        break;
      }
      auto It = ResolveEdges.find(E.C);
      if (It == ResolveEdges.end()) {
        ++R.UnknownJoins; // Stale stamp from before the last resetStats.
        break;
      }
      if (PS.HasTask && It->second.PathAtJoin > PS.Path) {
        PS.Path = It->second.PathAtJoin;
        addJoin(Tasks.Rows[PS.TaskRow], It->second);
        ++R.JoinEdges;
      }
      break;
    }
    case TraceEventKind::InlineDecision: {
      FutureSiteProfile &S = site(static_cast<uint32_t>(E.B));
      if (E.A == 0) {
        ++S.Inlined;
      } else if (E.A == 1) {
        ++S.Queued;
      } else {
        ++S.LazySeams;
        advance(PS, E.Clock);
        SeamEdges[E.C] =
            SeamPub{Join{PS.HasTask ? PS.Task : InvalidTask, PS.Path},
                    static_cast<uint32_t>(E.B)};
      }
      break;
    }
    case TraceEventKind::FutureCreate:
      Tasks[E.A].Site = static_cast<uint32_t>(E.B);
      break;
    case TraceEventKind::SeamSteal: {
      // The split-off parent continuation (task E.A) became runnable when
      // the seam was pushed, not when the thief arrived.
      TaskInfo &T = Tasks[E.A];
      auto It = SeamEdges.find(E.C);
      if (It != SeamEdges.end()) {
        T.ReadyPath = It->second.J.PathAtJoin;
        addJoin(T, It->second.J);
        T.Site = It->second.Site;
        ++site(It->second.Site).SeamSplits;
        ++R.JoinEdges;
      } else {
        addJoin(T, Join{InvalidTask, 0});
      }
      break;
    }
    case TraceEventKind::CheckpointTaken: {
      // The capture runs inside the task's own segment; remember how far
      // along its path it was, so a restore can resume from there.
      advance(PS, E.Clock);
      if (!PS.HasTask || PS.Task != E.A)
        break;
      CapturePath[Idx] = PS.Path;
      auto It = PendingRestore.find(Idx);
      if (It == PendingRestore.end())
        break;
      // The restore was swept first. If the restored task already runs
      // elsewhere, rebase its open segment onto the capture's path.
      TaskInfo &T = Tasks[It->second];
      if (PS.Path > T.ReadyPath) {
        for (ProcState &Other : Procs)
          if (&Other != &PS && Other.HasTask && Other.Task == It->second)
            Other.Path += PS.Path - T.ReadyPath;
        T.ReadyPath = PS.Path;
      }
      PendingRestore.erase(It);
      break;
    }
    case TraceEventKind::TaskRestored: {
      // Edge checkpoint -> resumed task: the task replays from its capture
      // (fail-stop recovery or a supervisor restart), so it is ready at
      // the capture's path. The lost attempt after the capture stays in
      // Work but leaves the path; the replay re-traces its own joins, and
      // the epoch rule guarantees nothing after the capture was observed.
      auto Cap = RestoreCapture.find(Idx);
      if (Cap == RestoreCapture.end())
        break; // Captured while tracing was off: the edge is unknowable.
      auto It = CapturePath.find(Cap->second);
      if (It != CapturePath.end())
        Tasks[E.A].ReadyPath = It->second;
      else
        PendingRestore[Cap->second] = E.A;
      break;
    }
    case TraceEventKind::GcBegin:
      advance(PS, E.Clock);
      PS.InGc = true;
      break;
    case TraceEventKind::GcEnd:
      PS.Anchor = std::max(PS.Anchor, E.Clock);
      PS.InGc = false;
      break;
    case TraceEventKind::TaskParked:
    case TraceEventKind::TaskDropped:
    case TraceEventKind::TouchBlock:
    case TraceEventKind::StealAttempt:
    case TraceEventKind::IdleBegin:
    case TraceEventKind::IdleEnd:
    case TraceEventKind::FaultInjected:
    case TraceEventKind::ThresholdChange:
    case TraceEventKind::PolicyDecision:
    case TraceEventKind::ProcKilled:
    case TraceEventKind::TaskRecovered:
    case TraceEventKind::TaskOrphaned:
    case TraceEventKind::CellRead:
    case TraceEventKind::CellWrite:
    case TraceEventKind::SemAcquire:
    case TraceEventKind::SemRelease:
      break; // No effect on the DAG.
    case TraceEventKind::ByzantineDetected:
      // The cross-check is charged to the checker, off this task's path;
      // the stop it triggers emits its own TaskStopped.
    case TraceEventKind::GroupQuotaStop:
    case TraceEventKind::GroupBudgetStop:
    case TraceEventKind::GroupShed:
      // Group-level notices: the affected tasks' own TaskStopped or
      // TaskDropped events close their segments.
    case TraceEventKind::SupervisorRestart:
      // A restartable stop re-queues the task at the path its
      // TaskStopped recorded; a checkpoint restore emits TaskRestored.
    case TraceEventKind::SupervisorGaveUp:
      // Terminal: nothing of the group runs again.
    case TraceEventKind::GroupQueued:
    case TraceEventKind::GroupAdmitted:
      // Admission is a capacity wait, not a data dependence; the root's
      // TaskCreate already carries its creation edge.
      break;
    }
  }

  // Span: the longest path reached anywhere, including tasks still open
  // at the end of the trace (blocked forever, or cut off mid-run).
  // Among tasks tied at the longest path, the lowest TaskId is the span
  // task; a processor's open segment wins only with a strictly longer one.
  TaskId SpanTask = InvalidTask;
  for (uint32_t Row = 0; Row < Tasks.Rows.size(); ++Row) {
    const TaskInfo &T = Tasks.Rows[Row];
    uint64_t End = std::max(T.EndPath, T.ReadyPath);
    TaskId Id = Tasks.Keys[Row];
    if (Row == 0 || End > R.Span || (End == R.Span && Id < SpanTask)) {
      R.Span = End;
      SpanTask = Id;
    }
  }
  for (const ProcState &PS : Procs) {
    if (PS.HasTask && PS.Path > R.Span) {
      R.Span = PS.Path;
      SpanTask = PS.Task;
    }
  }

  // Backtrack the critical path, attributing each task's on-path cycles
  // to its future site. Joins have strictly increasing PathAtJoin, so the
  // dominating join below a target is the last entry <= target.
  {
    TaskId Cur = SpanTask;
    uint64_t Target = R.Span;
    size_t Steps = 0, MaxSteps = Tasks.Rows.size() + Events.size();
    while (Cur != InvalidTask && Steps++ < MaxSteps) {
      const TaskInfo *T = Tasks.find(Cur);
      if (!T)
        break;
      const Join *Dom = nullptr;
      for (uint32_t L = T->LastJoin; L != NoJoin; L = JoinPool[L].Prev)
        if (JoinPool[L].J.PathAtJoin <= Target) {
          Dom = &JoinPool[L].J;
          break;
        }
      uint64_t From = Dom ? Dom->PathAtJoin : 0;
      if (T->Site != NoSite)
        site(T->Site).ChildOnPath += Target - From;
      if (!Dom)
        break;
      Cur = Dom->Pred;
      Target = From;
    }
  }

  for (const TaskInfo &T : Tasks.Rows) {
    if (T.Site == NoSite)
      continue;
    FutureSiteProfile &S = site(T.Site);
    S.ChildWork += T.Work;
    if (T.FirstStartStolen)
      ++S.StolenStarts;
  }

  // Sites by ChildWork descending, ties by site id ascending.
  std::vector<uint32_t> SiteOrder(SiteTable.Rows.size());
  std::iota(SiteOrder.begin(), SiteOrder.end(), 0);
  std::sort(SiteOrder.begin(), SiteOrder.end(), [&](uint32_t L, uint32_t Rr) {
    const FutureSiteProfile &LS = SiteTable.Rows[L], &RS = SiteTable.Rows[Rr];
    if (LS.ChildWork != RS.ChildWork)
      return LS.ChildWork > RS.ChildWork;
    return SiteTable.Keys[L] < SiteTable.Keys[Rr];
  });
  R.Sites.reserve(SiteOrder.size());
  for (uint32_t Row : SiteOrder)
    R.Sites.push_back(std::move(SiteTable.Rows[Row]));

  R.Ok = true;

  return R;
}

CriticalPathReport mult::analyzeCriticalPath(const Tracer &Tr) {
  if (Tr.mode() == TraceSinkMode::Stream) {
    CriticalPathReport R;
    R.Error = "tracer is in stream mode; load the file '" + Tr.streamPath() +
              "' with readTraceFile and analyze that";
    return R;
  }
  return analyzeCriticalPath(Tr.events(), Tr.dropped(), Tr.siteNames());
}
