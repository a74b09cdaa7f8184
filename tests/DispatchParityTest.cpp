//===----------------------------------------------------------------------===//
///
/// \file
/// Pinned run fingerprints: the direct-threaded interpreter (vm/Threaded.h)
/// must stay observationally identical to the portable switch interpreter
/// it replaced — same results, same virtual cycles, same instruction
/// counts, same trace event stream, same fault/race behavior. Each pin is
/// the FNV-1a hash of a full RunFingerprint recorded from the switch
/// dispatcher before it was deleted, so the reference survives as data.
/// "Virtual cycles are sacred": if any pin here fails, a handler body or a
/// fused superinstruction has drifted from the reference semantics.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/RaceDetect.h"
#include "obs/Trace.h"
#include "runtime/Printer.h"

#include <sstream>

using namespace mult;
using namespace mult::testutil;

namespace {

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
};

/// One "name value" line per scalar field; the trace hash stands in for
/// the (possibly long) event stream.
std::string renderFields(const RunFingerprint &F) {
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
  return OS.str();
}

/// The pinned hash: every field, then the full serialized trace.
uint64_t fingerprintHash(const RunFingerprint &F) {
  return fnv1a64(renderFields(F) + F.Trace);
}

std::string serializeTrace(const Tracer &Tr) {
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
};

RunFingerprint runOnce(const std::string &Program, const RunOpts &O) {
  EngineConfig C = config(O.Procs);
  C.EnableTracing = O.Trace;
  C.Faults = O.Faults;
  C.RaceDetect = O.RaceDetect;
  if (O.HeapWords)
    C.HeapWords = O.HeapWords;
  Engine E(C);
  for (const std::string &Form : O.Prelude)
    evalOk(E, Form);
  E.resetStats();
  EvalResult R = E.eval(Program);

  RunFingerprint F;
  F.Result = R.ok() ? valueToString(R.Val) : "ERROR: " + R.Error;
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
/// hash the switch dispatcher produced for the same run.
void expectPinned(uint64_t Pin, const std::string &Program,
                  const RunOpts &O = {}) {
  RunFingerprint F = runOnce(Program, O);
  uint64_t Got = fingerprintHash(F);
  EXPECT_EQ(Got, Pin) << "fingerprint drifted from the switch-dispatch "
                         "reference ("
                      << O.Procs << " procs), got 0x" << std::hex << Got
                      << ":\n"
                      << renderFields(F);
}

//===----------------------------------------------------------------------===//
// Sequential runs: results + cycles + instruction counts.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, ArithLoop) {
  // Dense fused-pair territory: Local/PushFixnum heads feeding arithmetic
  // and comparisons, with fixnum and non-fixnum (overflow) paths.
  expectPinned(0x298aa9a14f8e054fULL, R"lisp(
    (let loop ((i 0) (acc 1))
      (if (= i 40) acc
          (loop (+ i 1) (+ (* acc 3) (- i 7)))))
  )lisp");
}

TEST(DispatchParityTest, OverflowToFlonumInFusedArith) {
  // The fused arithmetic fast path must bail to the generic handler when
  // the result leaves fixnum range; totals must not change.
  expectPinned(0x2e79497909c440a5ULL, R"lisp(
    (let loop ((i 0) (acc 1))
      (if (= i 80) acc (loop (+ i 1) (* acc 7))))
  )lisp");
}

TEST(DispatchParityTest, GlobalHeavyLoop) {
  // GlobalRef/GlobalSet inline caches: reads and writes of several
  // globals, plus redefinition mid-run.
  expectPinned(0x94ad357a2430a10aULL, R"lisp(
    (begin
      (define a 1) (define b 2) (define sum 0)
      (let loop ((i 0))
        (if (= i 100) sum
            (begin
              (set! sum (+ sum (+ a b)))
              (if (= i 50) (set! a 100) #f)
              (loop (+ i 1))))))
  )lisp");
}

TEST(DispatchParityTest, CallHeavyFib) {
  expectPinned(0x119bf5d780ef1906ULL,
               "(begin (define (fib n) (if (< n 2) n (+ (fib (- n 1)) "
               "(fib (- n 2))))) (fib 15))");
}

TEST(DispatchParityTest, PolymorphicCallSites) {
  // One call site fed closures that change identity every iteration: the
  // call IC misses forever, which must be invisible in virtual time.
  expectPinned(0xfe026b24cacd2d54ULL, R"lisp(
    (begin
      (define (apply-n f n acc)
        (if (= n 0) acc (apply-n f (- n 1) (f acc))))
      (define (make-adder k) (lambda (x) (+ x k)))
      (let loop ((i 0) (acc 0))
        (if (= i 30) acc
            (loop (+ i 1) (apply-n (make-adder i) 4 acc)))))
  )lisp");
}

TEST(DispatchParityTest, ErrorPathsIdentical) {
  expectPinned(0x86a92e01772bf44eULL, "(car 5)");
  expectPinned(0x27926eff795a890bULL, "(vector-ref (make-vector 3 0) 9)");
  expectPinned(0x23aebcbb5caee287ULL, "(+ 'a 1)");
  expectPinned(0x5644c7a0ea096a53ULL, "((lambda (x) x) 1 2)");
}

TEST(DispatchParityTest, DataStructuresAndVectors) {
  expectPinned(0x06a0572077d51185ULL, R"lisp(
    (begin
      (define v (make-vector 20 0))
      (let fill ((i 0))
        (if (= i 20) #t (begin (vector-set! v i (* i i)) (fill (+ i 1)))))
      (let sum ((i 0) (acc '()))
        (if (= i 20) (length acc)
            (sum (+ i 1) (cons (vector-ref v i) acc)))))
  )lisp");
}

//===----------------------------------------------------------------------===//
// Parallel runs: 1/4/16 processors, traces pinned event-for-event.
//===----------------------------------------------------------------------===//

const char *ParallelFutures = R"lisp(
  (define (spawn n)
    (if (= n 0) '()
        (cons (future (let loop ((i 0))
                        (if (= i 300) (* n n) (loop (+ i 1)))))
              (spawn (- n 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (drain (spawn 24) 0)
)lisp";

/// The pin for processor count \p Procs out of the {1, 4, 16} sweep.
uint64_t pinFor(unsigned Procs, uint64_t P1, uint64_t P4, uint64_t P16) {
  return Procs == 1 ? P1 : Procs == 4 ? P4 : P16;
}

class DispatchParityProcsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DispatchParityProcsTest, ParallelFuturesTraced) {
  RunOpts O;
  O.Procs = GetParam();
  O.Trace = true;
  expectPinned(pinFor(O.Procs, 0xc1fa00427fa63b78ULL, 0x8a7ee6846565aa6fULL,
                      0x4f7fae19c026b68eULL),
               ParallelFutures, O);
}

TEST_P(DispatchParityProcsTest, GcUnderLoadTraced) {
  RunOpts O;
  O.Procs = GetParam();
  O.Trace = true;
  O.HeapWords = 1 << 16; // small heap: several collections mid-run
  expectPinned(pinFor(O.Procs, 0x9f501a777694df2bULL, 0x8f6eed1a51ea77a8ULL,
                      0x99c59935f24cfbf5ULL),
               R"lisp(
    (begin
      (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
      (define (churn k acc)
        (if (= k 0) acc (churn (- k 1) (+ acc (length (build 500))))))
      (define (spawn n)
        (if (= n 0) '() (cons (future (churn 4 0)) (spawn (- n 1)))))
      (define (drain l acc)
        (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
      (drain (spawn 8) 0))
  )lisp", O);
}

INSTANTIATE_TEST_SUITE_P(Procs, DispatchParityProcsTest,
                         ::testing::Values(1u, 4u, 16u));

//===----------------------------------------------------------------------===//
// Inline caches across GC: forced collections between global accesses and
// closure calls pin the weak-cache remap (Engine::remapWeakCaches).
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, ForcedGcBetweenGlobalAccesses) {
  // gc-at fires collections at fixed virtual times while the loop is
  // reading/writing globals and calling a heap-allocated closure through
  // a warmed call IC. After each collection the closure has moved: a stale
  // IC would either crash or silently call dead code; the remap keeps the
  // hit path and the golden cycles intact.
  RunOpts O;
  O.Faults = "gc-at=2000,6000,12000";
  O.Prelude = {"(define counter 0)",
               "(define bump (let ((k 3)) (lambda (x) (+ x k))))"};
  expectPinned(0xe5cf11e59eeb9fcbULL, R"lisp(
    (let loop ((i 0))
      (if (= i 200) counter
          (begin (set! counter (bump counter)) (loop (+ i 1)))))
  )lisp", O);
}

TEST(DispatchParityTest, ForcedGcCorrectResultThreaded) {
  // Same shape, asserting the actual value (not just the pin): the IC
  // must still reach the *moved* closure.
  RunOpts O;
  O.Faults = "gc-at=2000,6000,12000";
  O.Prelude = {"(define counter 0)",
               "(define bump (let ((k 3)) (lambda (x) (+ x k))))"};
  RunFingerprint F = runOnce(R"lisp(
    (let loop ((i 0))
      (if (= i 200) counter
          (begin (set! counter (bump counter)) (loop (+ i 1)))))
  )lisp", O);
  EXPECT_EQ(F.Result, "600");
  EXPECT_GE(F.FaultsInjected, 1u);
}

TEST(DispatchParityTest, AllocFaultPlanParity) {
  RunOpts O;
  O.Procs = 4;
  O.Faults = "seed=11; steal-fail=0.3; stall=1@5000+400";
  O.Trace = true;
  expectPinned(0xfb8967313ad179cbULL, ParallelFutures, O);
}

//===----------------------------------------------------------------------===//
// Race detector: the detector consumes the trace stream, so a racy program
// must keep its verdict and its event stream.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, RaceDetectorSameVerdict) {
  RunOpts O;
  O.Procs = 4;
  O.RaceDetect = true;
  O.Trace = true;
  // Two tasks racing on one global through set!; nondeterministic in a
  // real machine, deterministic here. The detector does not yet watch
  // global set!, so the pinned verdict is 0 races; instrumenting it will
  // move this pin on purpose.
  expectPinned(0x5aae4daf915507baULL, R"lisp(
    (begin
      (define shared 0)
      (define (bump n)
        (let loop ((i 0))
          (if (= i n) shared
              (begin (set! shared (+ shared 1)) (loop (+ i 1))))))
      (let ((a (future (bump 50))) (b (future (bump 50))))
        (+ (touch a) (touch b))))
  )lisp", O);
}

} // namespace
