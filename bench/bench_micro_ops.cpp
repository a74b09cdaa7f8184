//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the runtime's host-side building
/// blocks: wall-clock cost of simulation, allocation, touch checks,
/// future create/resolve, queue operations, compilation, and GC. These
/// measure the *simulator's* speed (useful when sizing experiments), not
/// the virtual-machine cycle counts the tables report.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "reader/Reader.h"

#include <benchmark/benchmark.h>

using namespace multbench;

namespace {

void BM_EngineConstruction(benchmark::State &State) {
  unsigned I = 0;
  for (auto _ : State) {
    Engine E(machine(1));
    benchmark::DoNotOptimize(&E);
    State.PauseTiming();
    reportRun(E, strFormat("micro_construction_%u", I++));
    State.ResumeTiming();
  }
}
BENCHMARK(BM_EngineConstruction)->Unit(benchmark::kMillisecond)->Iterations(20);

void BM_CompileSmallForm(benchmark::State &State) {
  Engine E(machine(1));
  Reader Rd(E.builder(), "(define (f x) (+ x 1))");
  ReadResult RR = Rd.read();
  for (auto _ : State) {
    Compiler::Result R = E.compiler().compile(RR.Datum);
    benchmark::DoNotOptimize(R.TopCode);
  }
  reportRun(E, "micro_compile");
}
BENCHMARK(BM_CompileSmallForm)->Iterations(2000);

void BM_EvalArithmeticLoop(benchmark::State &State) {
  Engine E(machine(1));
  for (auto _ : State) {
    EvalResult R = E.eval(
        "(let loop ((i 0) (a 0)) (if (= i 1000) a (loop (+ i 1) "
        "(+ a i))))");
    benchmark::DoNotOptimize(R.Val.bits());
  }
  State.SetItemsProcessed(State.iterations() * 1000);
  reportRun(E, "micro_arith");
}
BENCHMARK(BM_EvalArithmeticLoop)->Iterations(500);

void BM_ConsAllocation(benchmark::State &State) {
  Engine E(machine(1));
  for (auto _ : State) {
    EvalResult R = E.eval(
        "(let loop ((i 0) (l '())) (if (= i 500) l (loop (+ i 1) "
        "(cons i l))))");
    benchmark::DoNotOptimize(R.Val.bits());
  }
  State.SetItemsProcessed(State.iterations() * 500);
  reportRun(E, "micro_cons");
}
BENCHMARK(BM_ConsAllocation)->Iterations(500);

void BM_FutureCreateResolveTouch(benchmark::State &State) {
  Engine E(machine(1));
  for (auto _ : State) {
    EvalResult R = E.eval("(touch (future 0))");
    benchmark::DoNotOptimize(R.Val.bits());
  }
  reportRun(E, "micro_future");
}
BENCHMARK(BM_FutureCreateResolveTouch)->Iterations(2000);

void BM_FutureInlined(benchmark::State &State) {
  Engine E(machine(1, 0u));
  for (auto _ : State) {
    EvalResult R = E.eval("(touch (future 0))");
    benchmark::DoNotOptimize(R.Val.bits());
  }
  reportRun(E, "micro_future_inlined");
}
BENCHMARK(BM_FutureInlined)->Iterations(2000);

void BM_TouchCheckHot(benchmark::State &State) {
  // 1000 dynamic touch checks of a non-future (the tbit fast path).
  Engine E(machine(1));
  EvalResult D = E.eval("(define cell (cons 5 '()))");
  (void)D;
  for (auto _ : State) {
    EvalResult R = E.eval(
        "(let loop ((i 0)) (if (= i 1000) 'done (begin (touch (car cell)) "
        "(loop (+ i 1)))))");
    benchmark::DoNotOptimize(R.Val.bits());
  }
  State.SetItemsProcessed(State.iterations() * 1000);
  reportRun(E, "micro_touch");
}
BENCHMARK(BM_TouchCheckHot)->Iterations(500);

void BM_WorkStealingFanout(benchmark::State &State) {
  // 32 tasks drained across 8 virtual processors.
  unsigned I = 0;
  for (auto _ : State) {
    Engine E(machine(8));
    EvalResult R = E.eval(
        "(define (spawn n) (if (= n 0) '() (cons (future (* n n)) "
        "(spawn (- n 1)))))"
        "(define (drain l a) (if (null? l) a (drain (cdr l) "
        "(+ a (touch (car l))))))"
        "(drain (spawn 32) 0)");
    benchmark::DoNotOptimize(R.Val.bits());
    State.PauseTiming();
    reportRun(E, strFormat("micro_fanout_%u", I++));
    State.ResumeTiming();
  }
}
BENCHMARK(BM_WorkStealingFanout)->Unit(benchmark::kMillisecond)->Iterations(20);

void BM_GarbageCollection(benchmark::State &State) {
  EngineConfig C = machine(4);
  C.HeapWords = size_t(1) << 18;
  Engine E(C);
  EvalResult D = E.eval(
      "(define (build n) (if (= n 0) '() (cons (make-vector 6 n) "
      "(build (- n 1)))))"
      "(define keep (build 500))");
  (void)D;
  for (auto _ : State) {
    EvalResult R = E.eval("(%gc)");
    benchmark::DoNotOptimize(R.Val.bits());
  }
  reportRun(E, "micro_gc");
}
BENCHMARK(BM_GarbageCollection)->Unit(benchmark::kMicrosecond)->Iterations(500);

void BM_LazyFutureSeams(benchmark::State &State) {
  Engine E(machine(1, std::nullopt, /*Lazy=*/true));
  for (auto _ : State) {
    EvalResult R = E.eval("(touch (future 0))");
    benchmark::DoNotOptimize(R.Val.bits());
  }
  reportRun(E, "micro_lazy");
}
BENCHMARK(BM_LazyFutureSeams)->Iterations(2000);

} // namespace

BENCHMARK_MAIN();
