//===----------------------------------------------------------------------===//
///
/// \file
/// Critical-path (work/span) analysis of the trace stream.
///
/// The paper's headline results are speedup curves; this analyzer answers
/// the question those curves raise — *why does a run stop scaling?* It
/// reconstructs the future-spawn DAG of a traced run (the same
/// well-structured DAG Herlihy & Liu's futures model describes) and
/// computes:
///
///   - **work**: total busy virtual cycles across all processors;
///   - **span**: the longest dependence-ordered chain of cycles — the
///     critical path, i.e. the run's virtual time on infinitely many
///     processors;
///   - **parallelism** = work / span, the maximum useful processor count;
///   - an ideal-speedup curve from Brent's bound,
///     `T_P >= max(work / P, span)`, to set next to the measured
///     Table 3/4 curves;
///   - a per-future-site profile: for each textual `future` expression,
///     how often it inlined / queued a real task / left a lazy seam, how
///     often its children started stolen, how many cycles its children
///     executed, and how many of those sat on the critical path.
///
/// DAG edges come from the trace events (obs/Trace.h):
///
///   continuation   TaskStart/TaskResume after a block on the same task
///   spawn          TaskCreate.C = parent task, SeamSteal.C = seam serial
///   join           FutureResolve.C = resolve serial, echoed by the
///                  TouchHit that reads the value and implied for blocked
///                  tasks by TaskResume.C = waker
///
/// The analyzer is offline and pure: it never touches an Engine, only a
/// vector of events, so it can equally run over a buffer or a trace file
/// loaded with readTraceFile. It refuses traces with dropped events — a
/// ring-truncated trace is missing edges and any span computed from it
/// would be silently wrong.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_OBS_CRITICALPATH_H
#define MULT_OBS_CRITICALPATH_H

#include "obs/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mult {

class Tracer;

/// Aggregate profile of one future site (one textual `future` expression).
struct FutureSiteProfile {
  std::string Name;          ///< "<code name>+<pc>" from the site table.
  uint64_t Inlined = 0;      ///< InlineDecision A=0 at this site.
  uint64_t Queued = 0;       ///< InlineDecision A=1 (real child task).
  uint64_t LazySeams = 0;    ///< InlineDecision A=2 (provisional inline).
  uint64_t SeamSplits = 0;   ///< Seams later stolen into real parallelism.
  uint64_t StolenStarts = 0; ///< Child tasks whose first start was a steal.
  uint64_t ChildWork = 0;    ///< Busy cycles executed by this site's children.
  uint64_t ChildOnPath = 0;  ///< Child cycles lying on the critical path.
};

/// Result of analyzeCriticalPath.
struct CriticalPathReport {
  bool Ok = false;   ///< False: trace unusable; see Error.
  std::string Error; ///< Why the analysis refused.

  uint64_t Work = 0; ///< Total busy cycles (GC pauses excluded).
  uint64_t Span = 0; ///< Critical-path length in cycles; Span <= Work.
  /// Work / Span; 0 when the trace contains no busy cycles.
  double parallelism() const {
    return Span ? static_cast<double>(Work) / static_cast<double>(Span) : 0.0;
  }
  /// Brent's bound: ideal virtual run time on \p P processors.
  uint64_t idealCycles(unsigned P) const {
    uint64_t ByWork = P ? (Work + P - 1) / P : Work;
    return ByWork > Span ? ByWork : Span;
  }

  uint64_t Tasks = 0;      ///< Distinct tasks that ran.
  uint64_t Segments = 0;   ///< Run segments (start..block/finish) observed.
  uint64_t JoinEdges = 0;  ///< Resolve->touch/resume edges applied.
  uint64_t UnknownJoins = 0; ///< Touch-hits with no resolve serial (edge
                             ///< unknowable; span may be underestimated).

  /// Per-site rows, sorted by ChildWork descending, then by site id. Sites
  /// whose children never ran (always inlined) still appear with counts
  /// only.
  std::vector<FutureSiteProfile> Sites;
};

/// Analyzes \p Events (chronological emission order). \p Dropped must be
/// the tracer's drop count — nonzero refuses with Ok = false. \p SiteNames
/// labels the per-site rows (indexes match InlineDecision/FutureCreate B
/// payloads); pass an empty vector when unavailable (rows get "site#N").
CriticalPathReport
analyzeCriticalPath(const std::vector<TraceEvent> &Events, uint64_t Dropped,
                    const std::vector<std::string> &SiteNames);

/// Convenience overload reading buffer, drop count and site table from a
/// live tracer. Refuses stream-mode tracers (the buffer is on disk; load
/// it with readTraceFile and use the vector overload).
CriticalPathReport analyzeCriticalPath(const Tracer &Tr);

} // namespace mult

#endif // MULT_OBS_CRITICALPATH_H
