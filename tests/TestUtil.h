//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the Mul-T test suite.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_TESTS_TESTUTIL_H
#define MULT_TESTS_TESTUTIL_H

#include "analysis/RaceDetect.h"
#include "core/Engine.h"
#include "obs/Trace.h"
#include "runtime/Printer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string_view>

namespace mult {
namespace testutil {

inline EngineConfig config(unsigned Procs = 1) {
  EngineConfig C;
  C.NumProcessors = Procs;
  // Keep tests fast to diagnose if something spins.
  C.MaxRunCycles = 500'000'000;
  return C;
}

/// Evaluates \p Src expecting success.
inline Value evalOk(Engine &E, std::string_view Src) {
  EvalResult R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << "error `" << R.Error << "` evaluating: " << Src;
  return R.Val;
}

/// Evaluates \p Src expecting a fixnum result.
inline int64_t evalFixnum(Engine &E, std::string_view Src) {
  Value V = evalOk(E, Src);
  EXPECT_TRUE(V.isFixnum()) << "non-fixnum result " << valueToString(V)
                            << " for: " << Src;
  return V.isFixnum() ? V.asFixnum() : 0;
}

/// Checks the cycle accounting of every processor, dead ones included.
/// Busy cycles are derived (Processor::busyCycles), so the clock tiles by
/// definition; what can still go wrong is checked instead: idle plus GC
/// time never exceeds the clock's advance since the last resetStats, the
/// per-processor idle tallies sum to the engine's (the two are kept
/// separately at every idle site), and in Debug the shadow busy counter
/// agrees with the derived one.
inline void expectCyclesTile(Engine &E, std::string_view Context = "") {
  uint64_t Idle = 0;
  for (unsigned I = 0; I < E.machine().numProcessors(); ++I) {
    const Processor &P = E.machine().processor(I);
    EXPECT_GE(P.Clock, P.ClockAtReset) << Context << " processor " << I;
    EXPECT_LE(P.IdleCycles + P.GcCycles, P.Clock - P.ClockAtReset)
        << Context << " idle or GC over-counted on processor " << I
        << (P.Dead ? " (dead)" : "");
#ifndef NDEBUG
    EXPECT_EQ(P.BusyShadow, P.busyCycles())
        << Context << " busy cycles not charged on processor " << I
        << (P.Dead ? " (dead)" : "");
#endif
    Idle += P.IdleCycles;
  }
  EXPECT_EQ(Idle, E.stats().IdleCycles) << Context;
}

/// Evaluates \p Src and renders the result with `write`.
inline std::string evalPrint(Engine &E, std::string_view Src) {
  return valueToString(evalOk(E, Src));
}

/// Evaluates \p Src expecting a specific failure kind; returns the message.
inline std::string evalErr(Engine &E, std::string_view Src,
                           EvalResult::Kind Kind) {
  EvalResult R = E.eval(Src);
  EXPECT_EQ(static_cast<int>(R.K), static_cast<int>(Kind))
      << "for: " << Src << " (got `" << R.Error << "`)";
  return R.Error;
}

/// 64-bit FNV-1a of \p S: the hash the pinned-output tests record.
inline uint64_t fnv1a64(std::string_view S) {
  uint64_t H = 14695981039346656037ULL;
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 1099511628211ULL;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Pinned run fingerprints
//===----------------------------------------------------------------------===//

/// Everything observable about one engine run.
struct RunFingerprint {
  std::string Result;       ///< printed value (or error text)
  uint64_t ElapsedCycles;   ///< virtual time of the run
  uint64_t Instructions;    ///< architectural instruction count
  uint64_t CyclesExecuted;  ///< busy cycles charged
  uint64_t IdleCycles;
  uint64_t TasksCreated;
  uint64_t FuturesResolved;
  uint64_t TouchesExecuted;
  uint64_t TouchesBlocked;
  uint64_t Steals;
  uint64_t StealAttempts;
  uint64_t Dispatches;
  uint64_t FaultsInjected;
  uint64_t Collections;     ///< GC runs
  uint64_t GcPauseCycles;   ///< total GC pause time
  uint64_t Races;           ///< race detector verdict (0 if unarmed)
  std::string Trace;        ///< serialized event stream ("" if untraced)
  std::string Launches;     ///< evalGroups results, one line per launch
};

/// One "name value" line per scalar field; the trace hash stands in for
/// the (possibly long) event stream.
inline std::string renderFields(const RunFingerprint &F) {
  std::ostringstream OS;
  OS << "result " << F.Result << "\nelapsed-cycles " << F.ElapsedCycles
     << "\ninstructions " << F.Instructions << "\ncycles-executed "
     << F.CyclesExecuted << "\nidle-cycles " << F.IdleCycles
     << "\ntasks-created " << F.TasksCreated << "\nfutures-resolved "
     << F.FuturesResolved << "\ntouches " << F.TouchesExecuted
     << "\ntouches-blocked " << F.TouchesBlocked << "\nsteals " << F.Steals
     << "\nsteal-attempts " << F.StealAttempts << "\ndispatches "
     << F.Dispatches << "\nfaults " << F.FaultsInjected << "\ncollections "
     << F.Collections << "\ngc-pause " << F.GcPauseCycles << "\nraces "
     << F.Races << "\ntrace " << F.Trace.size() << " chars, fnv1a64 "
     << std::hex << fnv1a64(F.Trace) << "\n";
  // Rendered only for evalGroups runs, so eval-run pins keep their hash.
  if (!F.Launches.empty())
    OS << "launches\n" << F.Launches;
  return OS.str();
}

/// The pinned hash: every field, then the full serialized trace.
inline uint64_t fingerprintHash(const RunFingerprint &F) {
  return fnv1a64(renderFields(F) + F.Trace);
}

inline std::string serializeTrace(const Tracer &Tr) {
  std::ostringstream OS;
  for (const TraceEvent &E : Tr.events())
    OS << unsigned(E.Proc) << ' ' << traceEventKindName(E.Kind) << ' '
       << E.Clock << ' ' << E.A << ' ' << E.B << ' ' << E.C << '\n';
  return OS.str();
}

struct RunOpts {
  unsigned Procs = 1;
  bool Trace = false;
  std::string Faults;
  bool RaceDetect = false;
  uint64_t HeapWords = 0; ///< 0 = default size
  std::vector<std::string> Prelude; ///< forms evaluated before the program
  std::function<void(EngineConfig &)> Configure; ///< further config tweaks
  /// When nonempty, the run is E.evalGroups(Launches) and the program
  /// text is unused.
  std::vector<GroupLaunch> Launches;
};

/// One evalGroups or eval result: the printed value or the error text.
inline std::string resultText(const EvalResult &R) {
  return R.ok() ? valueToString(R.Val) : "ERROR: " + R.Error;
}

inline RunFingerprint runOnce(const std::string &Program, const RunOpts &O) {
  EngineConfig C = config(O.Procs);
  C.EnableTracing = O.Trace;
  C.Faults = O.Faults;
  C.RaceDetect = O.RaceDetect;
  if (O.HeapWords)
    C.HeapWords = O.HeapWords;
  if (O.Configure)
    O.Configure(C);
  Engine E(C);
  for (const std::string &Form : O.Prelude)
    evalOk(E, Form);
  E.resetStats();
  RunFingerprint F;
  if (O.Launches.empty())
    F.Result = resultText(E.eval(Program));
  else
    for (const EvalResult &R : E.evalGroups(O.Launches))
      F.Launches += resultText(R) + "\n";
  const EngineStats &S = E.stats();
  F.ElapsedCycles = S.ElapsedCycles;
  F.Instructions = S.Instructions;
  F.CyclesExecuted = S.CyclesExecuted;
  F.IdleCycles = S.IdleCycles;
  F.TasksCreated = S.TasksCreated;
  F.FuturesResolved = S.FuturesResolved;
  F.TouchesExecuted = S.TouchesExecuted;
  F.TouchesBlocked = S.TouchesBlocked;
  F.Steals = S.Steals;
  F.StealAttempts = S.StealAttempts;
  F.Dispatches = S.Dispatches;
  F.FaultsInjected = S.FaultsInjected;
  F.Collections = E.gcStats().Collections;
  F.GcPauseCycles = E.gcStats().TotalPauseCycles;
  F.Races = E.raceDetector() ? E.raceDetector()->raceCount() : 0;
  if (O.Trace)
    F.Trace = serializeTrace(E.tracer());
  return F;
}

/// Runs \p Program and expects its fingerprint hash to equal \p Pin, the
/// hash recorded for the same run from the reference implementation.
inline void expectPinned(uint64_t Pin, const std::string &Program,
                  const RunOpts &O = {}) {
  RunFingerprint F = runOnce(Program, O);
  uint64_t Got = fingerprintHash(F);
  EXPECT_EQ(Got, Pin) << "fingerprint drifted from its pinned reference ("
                      << O.Procs << " procs), got 0x" << std::hex << Got
                      << ":\n"
                      << renderFields(F);
}

} // namespace testutil
} // namespace mult

#endif // MULT_TESTS_TESTUTIL_H
