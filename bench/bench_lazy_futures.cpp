//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the *lazy futures* mechanism the paper proposes but did not
/// implement (section 3): revocable inlining via stack splitting.
///
/// Three comparisons, each against eager futures (T=inf) and plain
/// inlining (T=1):
///   1. a divide-and-conquer tree: lazy should match inlining's low
///      overhead on 1 processor AND eager's speedup on 8;
///   2. bursty task creation (the starvation case where fixed-threshold
///      inlining loses);
///   3. the section-3 semaphore example: plain inlining deadlocks, lazy
///      futures complete (the "unwelding" claim).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace multbench;

namespace {

const char *TreeProgram = R"lisp(
  (define (work) (let loop ((i 0)) (if (< i 300) (loop (+ i 1)) 1)))
  (define (tree n)
    (if (< n 2)
        (work)
        (+ (future (tree (- n 1))) (tree (- n 2)))))
  (tree 14)
)lisp";

/// Bursty creation: a burst of futures, then a long futureless stretch,
/// repeated. Fixed-threshold inlining kills the burst's parallelism
/// because the queue looks full at creation time.
const char *BurstyProgram = R"lisp(
  (define (work) (let loop ((i 0)) (if (< i 2500) (loop (+ i 1)) 1)))
  (define (spawn-burst k)
    (if (= k 0) '() (cons (future (work)) (spawn-burst (- k 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (let loop ((round 0) (acc 0))
    (if (= round 6)
        acc
        (loop (+ round 1) (+ acc (drain (spawn-burst 16) 0)))))
)lisp";

const char *DeadlockProgram = R"lisp(
  (let ((x (make-semaphore)))
    (let ((f (future (begin (semaphore-p x) 7))))
      (semaphore-v x)
      (touch f)))
)lisp";

struct Mode {
  const char *Name;
  std::optional<unsigned> T;
  bool Lazy;
};

const Mode Modes[] = {
    {"eager (T=inf)", std::nullopt, false},
    {"inlining (T=1)", 1u, false},
    {"inlining (T=8)", 8u, false},
    {"lazy futures", std::nullopt, true},
};

void sweep(const char *Name, const char *Key, const char *Prog) {
  std::printf("\n  %s (virtual seconds; futures created):\n", Name);
  std::printf("    %-16s %10s %18s %10s %8s\n", "mode", "1 proc",
              "8 procs", "speedup", "futures");
  for (const Mode &M : Modes) {
    Engine E1(machine(1, M.T, M.Lazy));
    double S1 = runVirtualSeconds(E1, "", Prog);
    Engine E8(machine(8, M.T, M.Lazy));
    double S8 = runVirtualSeconds(E8, "", Prog);
    reportRun(E8, strFormat("lazy_%s_%s_p8", Key, M.Name));
    std::printf("    %-16s %10s %10s (%llu st) %9.2fx %8llu\n", M.Name,
                formatSeconds(S1).c_str(), formatSeconds(S8).c_str(),
                static_cast<unsigned long long>(E8.stats().SeamsStolen),
                S1 / S8,
                static_cast<unsigned long long>(E8.stats().FuturesCreated));
  }
}

} // namespace

int main() {
  printTitle("Lazy futures: the paper's proposed revocable inlining "
             "(section 3)");
  sweep("divide-and-conquer tree", "tree", TreeProgram);
  sweep("bursty task creation", "bursty", BurstyProgram);

  std::printf("\n  parent-child welding (the section-3 semaphore "
              "example):\n");
  for (const Mode &M : Modes) {
    Engine E(machine(2, M.Lazy ? std::nullopt : std::optional<unsigned>(0),
                     M.Lazy));
    EvalResult R = E.eval(DeadlockProgram);
    const char *Outcome =
        R.ok() ? "completes"
               : (R.K == EvalResult::Kind::Deadlock ? "DEADLOCK"
                                                    : R.Error.c_str());
    std::printf("    %-16s -> %s\n",
                M.Lazy ? "lazy futures" : "always inline (T=0)", Outcome);
    if (!M.Lazy)
      break; // one representative inlining row is enough
  }
  {
    Engine E(machine(2, std::nullopt, true));
    EvalResult R = E.eval(DeadlockProgram);
    std::printf("    %-16s -> %s (seams stolen: %llu)\n", "lazy futures",
                R.ok() ? "completes" : "DEADLOCK",
                static_cast<unsigned long long>(E.stats().SeamsStolen));
  }

  printRule();
  std::printf("  claim (paper section 3): lazy futures get inlining's "
              "cheap creation\n  everywhere except where splitting is "
              "actually needed, and unweld blocked\n  children so the "
              "inlining deadlock cannot happen.\n");
  return 0;
}
