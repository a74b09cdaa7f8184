//===----------------------------------------------------------------------===//
///
/// \file
/// Host speed of the direct-threaded interpreter (vm/Threaded.h), with
/// its pre-folded costs, inline caches and fused superinstructions, on
/// five workloads that each stress one of those devices.
///
/// Unlike the table benches, the number under test here is *host*
/// nanoseconds per virtual cycle — simulator self-time, machine-dependent
/// by nature. Virtual cycles and results are asserted identical across
/// repetitions, so the figure is host overhead over fixed virtual work.
///
/// Each workload runs several repetitions and keeps the *minimum*
/// ns/virtual-cycle (the standard noise-robust estimator: host
/// interference only ever adds time). One machine-parseable line
///
///     ;; host-dispatch: <workload> ns-per-vcycle=<min>
///
/// is printed per workload; tools/collect_metrics.py --host runs this
/// binary N times and takes the median per workload into
/// BENCH_host.json. Its virtual cycles are golden like every bench's:
/// each repetition's engine prints its run-json record.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"


using namespace multbench;

namespace {

struct Workload {
  const char *Name;   ///< tag prefix
  const char *Brief;  ///< one-line description for the table
  const char *Setup;  ///< definitions (untimed)
  const char *Expr;   ///< timed expression
};

// Sized so the timed region runs long enough on a cold host (tens of
// milliseconds) for a stable ns/virtual-cycle quotient.
const Workload Workloads[] = {
    {"arith_loop", "tight fixnum arithmetic (fused-pair territory)", "",
     "(let loop ((i 0) (a 0))\n"
     "  (if (= i 400000) a (loop (+ i 1) (+ a (* 3 i)))))"},

    {"global_loop", "global read/write traffic (global inline caches)",
     "(define ga 1) (define gb 2) (define gsum 0)",
     "(let loop ((i 0))\n"
     "  (if (= i 150000) gsum\n"
     "      (begin (set! gsum (+ gsum (+ ga gb))) (loop (+ i 1)))))"},

    {"fib_calls", "call-heavy recursion (call inline caches)",
     "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
     "(fib 24)"},

    {"mono_calls", "monomorphic closure call site (IC always hits)",
     "(define (apply-n f n acc)\n"
     "  (if (= n 0) acc (apply-n f (- n 1) (f acc))))\n"
     "(define inc (let ((k 1)) (lambda (x) (+ x k))))",
     "(apply-n inc 200000 0)"},

    {"poly_calls", "polymorphic call site (IC always misses)",
     "(define (apply-n f n acc)\n"
     "  (if (= n 0) acc (apply-n f (- n 1) (f acc))))\n"
     "(define (make-adder k) (lambda (x) (+ x k)))",
     "(let loop ((i 0) (acc 0))\n"
     "  (if (= i 2000) acc\n"
     "      (loop (+ i 1) (apply-n (make-adder i) 90 acc))))"},
};

struct Measured {
  uint64_t VirtualCycles = 0;
  double NsPerCycle = 0;
  std::string Result;
};

constexpr int Reps = 9;

Measured runOne(const Workload &W) {
  Measured M;
  double BestNs = 0;
  for (int R = 0; R < Reps; ++R) {
    // A fresh engine per rep: every rep sees the identical heap and cache
    // state, so virtual cycles match exactly (asserted below) and the
    // per-run host timer (reset with the stats) reads cleanly.
    Engine E(machine(1));
    std::string Result;
    runVirtualSeconds(E, W.Setup, W.Expr, &Result);
    uint64_t RunNs = E.telemetry().hostNs(Telemetry::Phase::Run);
    uint64_t Cycles = E.stats().ElapsedCycles;
    double Ns = Cycles ? static_cast<double>(RunNs) /
                             static_cast<double>(Cycles)
                       : 0.0;
    reportRun(E, strFormat("dispatch_%s_r%d", W.Name, R));
    if (R == 0) {
      M.VirtualCycles = Cycles;
      M.Result = Result;
      BestNs = Ns;
    } else {
      if (Cycles != M.VirtualCycles || Result != M.Result) {
        std::fprintf(stderr, "%s: nondeterministic across reps!\n", W.Name);
        std::exit(1);
      }
      BestNs = Ns < BestNs ? Ns : BestNs;
    }
  }
  M.NsPerCycle = BestNs;
  std::printf(";; host-dispatch: %s ns-per-vcycle=%.3f\n", W.Name,
              M.NsPerCycle);
  return M;
}

} // namespace

int main() {
  printTitle("Dispatch: host ns per virtual cycle, threaded interpreter");
  std::printf("  %-12s %14s %12s  %s\n", "workload", "vcycles", "threaded",
              "note");
  for (const Workload &W : Workloads) {
    Measured M = runOne(W);
    std::printf("  %-12s %14llu %9.2f ns  %s\n", W.Name,
                static_cast<unsigned long long>(M.VirtualCycles),
                M.NsPerCycle, W.Brief);
  }
  printRule();
  return 0;
}
