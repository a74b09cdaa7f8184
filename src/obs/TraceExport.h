//===----------------------------------------------------------------------===//
///
/// \file
/// Chrome trace-event JSON export of a virtual-time trace.
///
/// The output is the Trace Event Format consumed by chrome://tracing and
/// Perfetto: one process, one thread row per virtual processor. Task run
/// slices, GC pauses and idle intervals render as duration ("X") events;
/// the fine-grained protocol events (touches, steals, future create/
/// resolve, inlining decisions) render as instants. Timestamps are virtual
/// microseconds (cycles x EngineStats::MicrosecondsPerCycle), so the
/// timeline shares units with the paper's tables.
///
/// A final set of counter events carries each processor's busy/idle/GC
/// cycle totals; by construction busy + idle + gc equals the cycles the
/// processor's clock advanced since the last resetStats (TraceTest holds
/// the runtime to that invariant).
///
//===----------------------------------------------------------------------===//

#ifndef MULT_OBS_TRACEEXPORT_H
#define MULT_OBS_TRACEEXPORT_H

#include "obs/Trace.h"
#include "sched/Machine.h"
#include "support/OutStream.h"

namespace mult {

/// writeChromeTrace formats into a buffer of this many bytes and hands the
/// sink one chunk per fill, so no write exceeds it.
inline constexpr size_t ChromeTraceChunkBytes = 64 * 1024;

/// Writes the whole trace as one Chrome trace JSON object to \p OS.
void writeChromeTrace(OutStream &OS, const Tracer &Tr, const Machine &M);

/// Convenience: renders the JSON into a string.
std::string chromeTraceJson(const Tracer &Tr, const Machine &M);

/// Room formatTraceMicros needs at \p Out.
inline constexpr size_t TraceMicrosMaxChars = 32;

/// Writes \p Cycles as microseconds with three decimals, the digits
/// std::to_chars gives for the double cycles x MicrosecondsPerCycle, and
/// returns the end. Below 2^40 cycles the digits come from integer
/// arithmetic; there the double is within 0.0005 of the exact value in
/// hundredths, so both agree.
char *formatTraceMicros(char *Out, uint64_t Cycles);

} // namespace mult

#endif // MULT_OBS_TRACEEXPORT_H
