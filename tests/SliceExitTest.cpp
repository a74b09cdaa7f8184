//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter holds the clock, the pc, the instruction count and the
/// stack top in locals for the length of a slice and hands them back to
/// the processor and the task only where control leaves it (DESIGN.md,
/// "What the dispatch path counts"). These tests read that state where a
/// slice ends — it blocks, needs a collection, raises, or stops at a
/// quantum boundary — and where a push outgrows the room a frame made,
/// and compare it to values recorded from the interpreter that kept the
/// state in the processor and task on every instruction. A missed sync
/// point shows as a stale pc, depth, clock or count here; in Debug, as a
/// poisoned one.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <sstream>

using namespace mult;
using namespace mult::testutil;

namespace {

constexpr const char Defs[] =
    "(define (spin n) (if (= n 0) 0 (spin (- n 1))))"
    "(define (forever) (forever))"
    "(define (upto n acc) (if (= n 0) acc (upto (- n 1) (cons n acc))))"
    "(define (churn n) (if (= n 0) 0 (begin (upto 8 '()) (churn (- n 1)))))"
    "(define (fib n) (if (< n 2) n"
    "  (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))";

/// Renders what a slice exit hands back: the task's pc and stack depth,
/// and its processor's clock and instruction count.
std::string exitState(const char *Kind, const Task &T, uint64_t Clock,
                      const Processor &P) {
  std::ostringstream OS;
  OS << Kind << " p" << P.Id << " pc " << T.Pc << " depth "
     << T.Stack.size() << " clock " << Clock << " insns " << P.Instructions
     << "\n";
  return OS.str();
}

/// Logs exitState at every event a slice exit records: a block (TaskBlock,
/// from the touch slow path and the called primitives), a stop
/// (TaskStopped, from a raise or an injected fault) and a collection
/// (GcBegin, after a NeedsGc exit; its clock is the processor's clock when
/// the collection began).
class ExitLog : public TraceObserver {
public:
  explicit ExitLog(Engine &E) : E(E) {}

  void onTraceEvent(const TraceEvent &Ev) override {
    const Processor &P = E.machine().processor(Ev.Proc);
    const char *Kind;
    TaskId Id;
    switch (Ev.Kind) {
    case TraceEventKind::TaskBlock:
      Kind = "block";
      Id = Ev.A;
      break;
    case TraceEventKind::TaskStopped:
      Kind = "stop";
      Id = Ev.A;
      break;
    case TraceEventKind::GcBegin:
      Kind = "gc";
      Id = P.current();
      break;
    default:
      return;
    }
    if (Id == InvalidTask)
      return;
    std::string Line = exitState(Kind, E.task(Id), Ev.Clock, P);
    if (First.empty())
      First = Line;
    All += Line;
    ++Count;
  }

  Engine &E;
  std::string First;
  std::string All;
  unsigned Count = 0;
};

struct ExitCase {
  const char *Name;
  unsigned Procs;
  const char *Expr;
  EvalResult::Kind Kind;
  size_t HeapWords;
  /// First logged exit, number of exits, FNV-1a of the whole log.
  const char *First;
  unsigned Count;
  uint64_t Hash;
};

/// Values recorded from the interpreter that charged P and T on every
/// instruction.
const ExitCase Cases[] = {
    // Blocks on a touch of a queued future, and on an empty semaphore.
    {"TouchBlocks", 1, "(let ((f (future (spin 300)))) (+ 1 (touch f)))",
     EvalResult::Kind::Value, 0,
     "block p0 pc 4 depth 4 clock 3080 insns 20\n", 1, 0x4b8af7459aa357cULL},
    {"SemaphoreBlocks", 1, "(begin (spin 50) (semaphore-p (make-semaphore)))",
     EvalResult::Kind::Deadlock, 0,
     "block p0 pc 6 depth 2 clock 3815 insns 579\n", 1, 0x2565ab535e6f1bf9ULL},
    {"TouchBlocksAtP4", 4, "(fib 12)", EvalResult::Kind::Value, 0,
     "block p0 pc 10 depth 3 clock 3097 insns 28\n", 232,
     0x19c85f4ec159df9aULL},
    // Allocation fails (NeedsGc) and the collection runs.
    {"NeedsGc", 1, "(churn 600)", EvalResult::Kind::Value, 1 << 13,
     "gc p0 pc 13 depth 9 clock 75450 insns 44583\n", 2, 0x945aeb8b9f2c5b5bULL},
    {"NeedsGcAtP4", 4, "(begin (future (churn 2000)) (churn 2000))",
     EvalResult::Kind::Value, 1 << 15,
     "gc p0 pc 13 depth 9 clock 150889 insns 90948\n", 8,
     0x40a35ef72be69b24ULL},
    // Raises: open-coded primitives' checks and a called primitive's.
    {"OpenCodedRaise", 1, "(begin (spin 40) (car (spin 3)))",
     EvalResult::Kind::RuntimeError, 0,
     "stop p0 pc 10 depth 2 clock 3674 insns 513\n", 1, 0x2f86a5b5e379e644ULL},
    {"VectorRaise", 1, "(begin (spin 40) (vector-ref (make-vector 1) 5))",
     EvalResult::Kind::RuntimeError, 0,
     "stop p0 pc 8 depth 3 clock 3630 insns 471\n", 1, 0x9b1efb94a8fa5113ULL},
    {"CalledPrimitiveRaise", 1, "(begin (spin 40) (modulo 7 0))",
     EvalResult::Kind::RuntimeError, 0,
     "stop p0 pc 7 depth 3 clock 3620 insns 470\n", 1, 0x810eef9c7f59af70ULL},
};

// Names the case in test output (the default would dump its pointers).
void PrintTo(const ExitCase &C, std::ostream *OS) { *OS << C.Name; }

class SliceExitTest : public ::testing::TestWithParam<ExitCase> {};

TEST_P(SliceExitTest, StateAtEachExitMatchesTheRecordedValues) {
  const ExitCase &C = GetParam();
  EngineConfig Cfg = config(C.Procs);
  if (C.HeapWords)
    Cfg.HeapWords = C.HeapWords;
  Engine E(Cfg);
  evalOk(E, Defs);
  ExitLog Log(E);
  E.tracer().setEnabled(true);
  E.tracer().setObserver(&Log);
  EvalResult R = E.eval(C.Expr);
  E.tracer().setObserver(nullptr);
  ASSERT_EQ(static_cast<int>(R.K), static_cast<int>(C.Kind)) << R.Error;
  EXPECT_GT(Log.Count, 0u);
  EXPECT_EQ(Log.First, C.First);
  EXPECT_EQ(Log.Count, C.Count);
  EXPECT_EQ(fnv1a64(Log.All), C.Hash) << Log.All;
  expectCyclesTile(E, C.Name);
}

INSTANTIATE_TEST_SUITE_P(Exits, SliceExitTest, ::testing::ValuesIn(Cases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

/// A run that ends at its cycle limit stops at a quantum boundary with the
/// task still current: its state is what the boundary exit handed back.
TEST(SliceExitTest, QuantumBoundaryExitAtTheCycleLimit) {
  struct Limit {
    unsigned Procs;
    const char *Expected;
  } Limits[] = {
      {1, "limit p0 pc 2 depth 2 clock 252974 insns 149972\n"},
      {4, "limit p0 pc 2 depth 2 clock 252974 insns 149972\n"
          "limit p1 pc 8 depth 3 clock 252949 insns 183226\n"},
  };
  for (const Limit &L : Limits) {
    EngineConfig Cfg = config(L.Procs);
    Cfg.MaxRunCycles = 250'000;
    Engine E(Cfg);
    evalOk(E, Defs);
    EvalResult R = E.eval("(begin (future (spin 100000)) (forever))");
    ASSERT_EQ(static_cast<int>(R.K),
              static_cast<int>(EvalResult::Kind::CycleLimit));
    std::string State;
    for (unsigned I = 0; I < L.Procs; ++I) {
      const Processor &P = E.machine().processor(I);
      if (P.current() != InvalidTask)
        State += exitState("limit", E.task(P.current()), P.Clock, P);
    }
    EXPECT_EQ(State, L.Expected) << "P=" << L.Procs;
  }
}

/// Pushes past a frame's MaxFrameWords: `apply` through CallPrim spreads a
/// 200-element list onto the stack, and a variadic wrapper (MaxFrameWords
/// 8) pushes its result above more arguments than that.
TEST(SliceExitTest, PushesPastTheFrameRoomGrowTheStack) {
  struct Push {
    const char *Expr;
    const char *Value;
    uint64_t Instructions;
    uint64_t Cycles;
  } Pushes[] = {
      {"(apply + (upto 200 '()))", "20100", 2817, 5931},
      {"(length (apply list (upto 200 '())))", "200", 2818, 6942},
      {"(let ((f +)) (f 1 2 3 4 5 6 7 8 9 10 11 12))", "78", 18, 147},
      {"(let ((f list)) (length (f 1 2 3 4 5 6 7 8 9 10 11 12)))", "12", 20,
       220},
  };
  for (const Push &X : Pushes) {
    Engine E(config(1));
    evalOk(E, Defs);
    E.resetStats();
    EXPECT_EQ(evalPrint(E, X.Expr), X.Value) << X.Expr;
    EXPECT_EQ(E.stats().Instructions, X.Instructions) << X.Expr;
    EXPECT_EQ(E.stats().CyclesExecuted, X.Cycles) << X.Expr;
  }
}

} // namespace
