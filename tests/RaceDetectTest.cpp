//===----------------------------------------------------------------------===//
///
/// \file
/// Determinacy-race detection over the trace stream: racy programs must
/// be flagged with both access sites named, synchronized programs (touch
/// ordering, semaphore P/V pairs) must come out clean, the detector must
/// not perturb virtual time, and the ring-sink drop accounting that
/// guards offline analysis must balance. See DESIGN.md "Determinacy
/// races and the series-parallel relation".
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "../bench/programs/BoyerProgram.h"
#include "analysis/RaceDetect.h"
#include "obs/Metrics.h"
#include "support/StrUtil.h"
#include "ui/Repl.h"

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>

using namespace mult;
using namespace mult::testutil;

namespace {

/// Eager-spawning config (a huge inline threshold keeps every future a
/// real task; load-based inlining would serialize the racy accesses and
/// hide the race) with the detector armed.
EngineConfig raceConfig(unsigned Procs) {
  EngineConfig C = config(Procs);
  C.InlineThreshold = 1'000'000;
  C.RaceDetect = true;
  return C;
}

/// Two future children both set! the same closed-over variable with no
/// ordering between them.
const char *const RacyWrites = R"lisp(
  (begin
    (define (racy)
      (let ((x 0))
        (let ((f (future (set! x 1)))
              (g (future (set! x 2))))
          (touch f) (touch g) x)))
    (racy))
)lisp";

/// The parent reads the cell in parallel with the child's write; the
/// touch comes too late to order them.
const char *const RacyReadWrite = R"lisp(
  (begin
    (define vv (make-vector 1 0))
    (define (racy)
      (let ((f (future (vector-set! vv 0 1))))
        (let ((seen (vector-ref vv 0)))
          (touch f)
          seen)))
    (racy))
)lisp";

/// Fully touch-ordered: the parent only reads after the child resolved.
const char *const TouchOrdered = R"lisp(
  (begin
    (define vv (make-vector 1 0))
    (define (ok)
      (let ((f (future (vector-set! vv 0 1))))
        (touch f)
        (vector-set! vv 0 2)
        (vector-ref vv 0)))
    (ok))
)lisp";

/// Builds the dining-philosophers program with per-fork use counters
/// written inside the critical section. Fork k's counter is written by
/// the two neighbours that share fork k, always while holding it, so the
/// semaphore happens-before edges make the program race-free. With
/// \p DropPV, philosopher 0 skips the P/V pair on its second fork but
/// still bumps that fork's counter — exactly one pair removed, and the
/// counter write races with the neighbour's protected write.
std::string philosophers(bool DropPV) {
  const char *P2 = DropPV ? "(if (> who 0) (semaphore-p second) #t)"
                          : "(semaphore-p second)";
  const char *V2 = DropPV ? "(if (> who 0) (semaphore-v second) #t)"
                          : "(semaphore-v second)";
  return strFormat(R"lisp(
   (begin
    (define n 5)
    (define rounds 3)
    (define forks (make-vector n 0))
    (define uses (make-vector n 0))
    (do ((i 0 (+ i 1))) ((= i n) #t)
      (vector-set! forks i (make-semaphore 1)))
    (define (dine who)
      (let ((li who) (ri (remainder (+ who 1) n)))
        (let ((fi (if (even? who) li ri))
              (si (if (even? who) ri li)))
          (let ((first (vector-ref forks fi))
                (second (vector-ref forks si)))
            (let loop ((r 0))
              (if (= r rounds)
                  'full
                  (begin
                    (semaphore-p first)
                    %s
                    (vector-set! uses li (+ (vector-ref uses li) 1))
                    (vector-set! uses ri (+ (vector-ref uses ri) 1))
                    %s
                    (semaphore-v first)
                    (loop (+ r 1)))))))))
    (define (spawn who)
      (if (= who n) '() (cons (future (dine who)) (spawn (+ who 1)))))
    (define (wait-all l)
      (if (null? l) 'done (begin (touch (car l)) (wait-all (cdr l)))))
    (wait-all (spawn 0))
    (vector-ref uses 0))
  )lisp",
                   P2, V2);
}

} // namespace

TEST(RaceDetectTest, RacyFutureWritesAreFlaggedWithBothSites) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  const RaceDetector *D = E.raceDetector();
  ASSERT_NE(D, nullptr);
  ASSERT_GE(D->raceCount(), 1u) << "unordered sibling writes must race";
  const RaceDetector::Race &R = D->races().front();
  EXPECT_TRUE(R.Prior.Write && R.Current.Write);
  EXPECT_NE(R.Prior.Task, R.Current.Task);
  std::string Report = D->describe(R, E.tracer().siteNames());
  // Both accesses must carry future-site provenance ("spawned at ...").
  size_t First = Report.find("spawned at");
  ASSERT_NE(First, std::string::npos) << Report;
  EXPECT_NE(Report.find("spawned at", First + 1), std::string::npos)
      << Report;
}

TEST(RaceDetectTest, ParallelReadAgainstWriteIsFlagged) {
  Engine E(raceConfig(4));
  evalOk(E, RacyReadWrite);
  const RaceDetector *D = E.raceDetector();
  ASSERT_NE(D, nullptr);
  ASSERT_GE(D->raceCount(), 1u);
  const RaceDetector::Race &R = D->races().front();
  EXPECT_TRUE(R.Prior.Write != R.Current.Write)
      << "one side is the child write, the other the parent read";
}

TEST(RaceDetectTest, TouchOrderingIsRaceFree) {
  Engine E(raceConfig(4));
  EXPECT_EQ(evalFixnum(E, TouchOrdered), 2);
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "touch is a series edge; no parallel accesses remain";
  EXPECT_GT(E.raceDetector()->accessesChecked(), 0u)
      << "the program does access tracked cells";
}

TEST(RaceDetectTest, DistinctVectorSlotsDoNotRace) {
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define vv (make-vector 2 0))
      (let ((f (future (vector-set! vv 0 1)))
            (g (future (vector-set! vv 1 2))))
        (touch f) (touch g)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "slot granularity: parallel writes to different indices are fine";
}

TEST(RaceDetectTest, SemaphoreProtectedCounterIsRaceFree) {
  Engine E(raceConfig(4));
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (begin
      (define s (make-semaphore 1))
      (define vv (make-vector 1 0))
      (define (bump)
        (semaphore-p s)
        (vector-set! vv 0 (+ (vector-ref vv 0) 1))
        (semaphore-v s))
      (let ((f (future (bump))) (g (future (bump))))
        (touch f) (touch g) (vector-ref vv 0)))
  )lisp"),
            2);
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "P/V pairs must contribute happens-before cross-edges";
}

TEST(RaceDetectTest, SameCounterWithoutSemaphoreIsFlagged) {
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define vv (make-vector 1 0))
      (define (bump) (vector-set! vv 0 (+ (vector-ref vv 0) 1)))
      (let ((f (future (bump))) (g (future (bump))))
        (touch f) (touch g) (vector-ref vv 0)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_GE(E.raceDetector()->raceCount(), 1u);
}

TEST(RaceDetectTest, FluidDefaultBoxRaces) {
  // Two tasks set! the same fluid with no task-local binding in scope:
  // both hit the shared global default box.
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define-fluid *mode* 0)
      (let ((f (future (set-fluid! *mode* 1)))
            (g (future (set-fluid! *mode* 2))))
        (touch f) (touch g)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_GE(E.raceDetector()->raceCount(), 1u)
      << "dynamic-env mutation of the shared default must be tracked";
}

TEST(RaceDetectTest, TaskLocalFluidBindingsDoNotRace) {
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define-fluid *mode* 0)
      (let ((f (future (bind ((*mode* 1)) (set-fluid! *mode* 5))))
            (g (future (bind ((*mode* 2)) (set-fluid! *mode* 6)))))
        (touch f) (touch g)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "bind gives each task its own box; deep binding isolates them";
}

// --- Satellite 4: dining philosophers under semaphore happens-before ----

class RaceDetectStealOrderTest
    : public ::testing::TestWithParam<StealOrder> {};

TEST_P(RaceDetectStealOrderTest, DiningPhilosophersRaceFree) {
  EngineConfig C = raceConfig(4);
  C.StealPolicy = GetParam();
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, philosophers(/*DropPV=*/false)), 6)
      << "fork 0 is used by its two neighbours, 3 rounds each";
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "every counter write holds the fork that guards it";
  EXPECT_GT(E.raceDetector()->accessesChecked(), 0u);
}

TEST_P(RaceDetectStealOrderTest, PhilosophersMissingOnePVPairFlagged) {
  EngineConfig C = raceConfig(4);
  C.StealPolicy = GetParam();
  Engine E(C);
  evalFixnum(E, philosophers(/*DropPV=*/true));
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_GE(E.raceDetector()->raceCount(), 1u)
      << "philosopher 0 bumps a fork counter without holding the fork";
}

INSTANTIATE_TEST_SUITE_P(StealOrders, RaceDetectStealOrderTest,
                         ::testing::Values(StealOrder::Lifo,
                                           StealOrder::Fifo),
                         [](const auto &Info) {
                           return Info.param == StealOrder::Lifo ? "Lifo"
                                                                 : "Fifo";
                         });

// --- Virtual-time invariance -------------------------------------------

TEST(RaceDetectTest, DetectorDoesNotPerturbVirtualTime) {
  // Same program, detector off vs on: recording costs zero virtual time,
  // so cycle counts must match bit for bit (this is what lets CI assert
  // golden cycles under MULT_RACE=1).
  EngineConfig Off = config(4);
  Off.InlineThreshold = 1'000'000;
  Engine EOff(Off);
  int64_t ROff = evalFixnum(EOff, RacyWrites);

  Engine EOn(raceConfig(4));
  int64_t ROn = evalFixnum(EOn, RacyWrites);

  EXPECT_EQ(ROff, ROn);
  EXPECT_EQ(EOff.stats().ElapsedCycles, EOn.stats().ElapsedCycles);
  EXPECT_EQ(EOff.stats().CyclesExecuted, EOn.stats().CyclesExecuted);
  EXPECT_EQ(EOff.stats().Dispatches, EOn.stats().Dispatches);
}

TEST(RaceDetectTest, MetricsReportCarriesRaceCounters) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  MetricsReport R = buildMetrics(E.machine(), E.stats(), E.gcStats(),
                                 E.tracer(), E.raceDetector());
  EXPECT_TRUE(R.RaceDetectOn);
  EXPECT_GE(R.RacesDetected, 1u);
  EXPECT_GT(R.AccessesChecked, 0u);
  EXPECT_GE(R.CellsTracked, 1u);

  MetricsReport Plain =
      buildMetrics(E.machine(), E.stats(), E.gcStats(), E.tracer());
  EXPECT_FALSE(Plain.RaceDetectOn) << "no detector, no races line";
}

TEST(RaceDetectTest, ResetStatsClearsTheDetector) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  ASSERT_GE(E.raceDetector()->raceCount(), 1u);
  E.resetStats();
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u);
  EXPECT_EQ(E.raceDetector()->accessesChecked(), 0u);
}

// --- Satellite 1: ring-sink drop accounting and offline refusal --------

TEST(RaceDetectTest, RingSinkDropAccountingBalances) {
  // Small ring: most events are overwritten, but every emission must be
  // accounted for: recorded + dropped == emitted, at every ring size.
  for (size_t Cap : {16u, 64u, 256u}) {
    EngineConfig C = config(4);
    C.InlineThreshold = 1'000'000;
    C.EnableTracing = true;
    C.TraceSink = strFormat("ring:%zu", Cap);
    Engine E(C);
    EXPECT_EQ(evalFixnum(E, R"lisp(
      (begin
        (define (fib n)
          (if (< n 2) n
              (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))
        (fib 10))
    )lisp"),
              55);
    const Tracer &Tr = E.tracer();
    EXPECT_GT(Tr.dropped(), 0u) << "the run must overflow a ring of "
                                << Cap;
    EXPECT_EQ(Tr.size() + Tr.dropped(), Tr.emitted())
        << "drop accounting leak at ring size " << Cap;
  }
}

TEST(RaceDetectTest, OfflineAnalysisRefusesTruncatedRingTrace) {
  EngineConfig C = config(4);
  C.InlineThreshold = 1'000'000;
  C.EnableTracing = true;
  C.TraceSink = "ring:16";
  Engine E(C);
  evalFixnum(E, RacyWrites);
  ASSERT_GT(E.tracer().dropped(), 0u);

  RaceDetector D;
  std::string Err;
  EXPECT_FALSE(analyzeRaces(E.tracer().events(), E.tracer().dropped(), D,
                            Err));
  EXPECT_NE(Err.find("dropped"), std::string::npos) << Err;
  EXPECT_NE(Err.find("incomplete"), std::string::npos)
      << "the refusal must say why the verdict would be unreliable: "
      << Err;
}

TEST(RaceDetectTest, OnlineDetectorIsCompleteOverARingSink) {
  // The observer sees events before sink buffering, so a tiny ring does
  // not cost it any DAG edges: the race is still found.
  EngineConfig C = raceConfig(4);
  C.EnableTracing = true;
  C.TraceSink = "ring:16";
  Engine E(C);
  evalFixnum(E, RacyWrites);
  ASSERT_GT(E.tracer().dropped(), 0u) << "the ring must actually truncate";
  EXPECT_GE(E.raceDetector()->raceCount(), 1u)
      << "online detection must be immune to ring drops";
}

TEST(RaceDetectTest, OfflineAnalysisMatchesOnlineOverFullTrace) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  ASSERT_EQ(E.tracer().dropped(), 0u);

  RaceDetector D;
  std::string Err;
  ASSERT_TRUE(
      analyzeRaces(E.tracer().events(), E.tracer().dropped(), D, Err))
      << Err;
  EXPECT_EQ(D.raceCount(), E.raceDetector()->raceCount());
  EXPECT_EQ(D.accessesChecked(), E.raceDetector()->accessesChecked());
}

// --- The racy/clean suite under tests/race, pinned ----------------------

namespace {

/// One tests/race program at one processor count, with the FNV-1a hash of
/// its REPL `:races` output: the races/accesses/cells line and every
/// describe() report. A change to the detector's bookkeeping must leave
/// every one unchanged.
struct SuiteCase {
  const char *File; ///< under tests/race/
  unsigned Procs;
  uint64_t Pin;
};

const SuiteCase SuiteCases[] = {
    {"clean_philosophers.lisp", 1, 0xbda58a1d1f43fe3cULL},
    {"clean_philosophers.lisp", 4, 0xbda58a1d1f43fe3cULL},
    {"clean_philosophers.lisp", 16, 0xbda58a1d1f43fe3cULL},
    {"clean_semaphore.lisp", 1, 0x458fb4a46b667446ULL},
    {"clean_semaphore.lisp", 4, 0x458fb4a46b667446ULL},
    {"clean_semaphore.lisp", 16, 0x458fb4a46b667446ULL},
    {"clean_touch_ordered.lisp", 1, 0x051d49da06795960ULL},
    {"clean_touch_ordered.lisp", 4, 0x051d49da06795960ULL},
    {"clean_touch_ordered.lisp", 16, 0x051d49da06795960ULL},
    {"racy_fluid_default.lisp", 1, 0x9f5555b0e9bce5d8ULL},
    {"racy_fluid_default.lisp", 4, 0x22445856f2c6027bULL},
    {"racy_fluid_default.lisp", 16, 0xd6eec12a71b8a021ULL},
    {"racy_missing_pv.lisp", 1, 0xeae70a0ec4084522ULL},
    {"racy_missing_pv.lisp", 4, 0xd2eecf56168a1bb4ULL},
    {"racy_missing_pv.lisp", 16, 0xb7ed3148d288688cULL},
    {"racy_read_vs_write.lisp", 1, 0x3af010c9b10c57d2ULL},
    {"racy_read_vs_write.lisp", 4, 0x03d7ba17efe05097ULL},
    {"racy_read_vs_write.lisp", 16, 0xac89f359c79c2d85ULL},
    {"racy_set_siblings.lisp", 1, 0xb71e883053861455ULL},
    {"racy_set_siblings.lisp", 4, 0x59b2af56fac4aa99ULL},
    {"racy_set_siblings.lisp", 16, 0x0f2c3ec76a158ba5ULL},
    {"racy_vector_counter.lisp", 1, 0xd26cc0fb80aaa710ULL},
    {"racy_vector_counter.lisp", 4, 0xbb92f7a1a71a110bULL},
    {"racy_vector_counter.lisp", 16, 0x68cac1997005015fULL},
};

std::string caseName(const SuiteCase &C) {
  std::string Stem = C.File;
  return Stem.substr(0, Stem.find('.')) + "_p" + std::to_string(C.Procs);
}

/// Print a case as its name, not as a byte dump of its pointer field.
void PrintTo(const SuiteCase &C, std::ostream *OS) { *OS << caseName(C); }

std::string suitePath(const char *File) {
  return std::string(MULT_SOURCE_DIR) + "/tests/race/" + File;
}

class RaceDetectSuiteTest : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(RaceDetectSuiteTest, VerdictMatchesPin) {
  const SuiteCase &C = GetParam();
  std::ifstream In(suitePath(C.File));
  ASSERT_TRUE(In) << "cannot open " << suitePath(C.File);

  // The REPL the way `MULT_RACE=1 repl <procs> 1000000` runs it: one
  // form per line, then :races. The huge inline threshold keeps every
  // future a real task.
  EngineConfig Cfg;
  Cfg.NumProcessors = C.Procs;
  Cfg.InlineThreshold = 1'000'000;
  Cfg.RaceDetect = true;
  Engine E(Cfg);
  std::string Out;
  StringOutStream OS(Out);
  Repl R(E, OS);
  for (std::string Line; std::getline(In, Line);)
    R.processLine(Line);
  EXPECT_EQ(Out.find("error:"), std::string::npos) << Out;
  Out.clear();
  R.processLine(":races");

  const RaceDetector *D = E.raceDetector();
  ASSERT_NE(D, nullptr);
  if (std::string_view(C.File).substr(0, 5) == "racy_") {
    EXPECT_GE(D->raceCount(), 1u) << "racy program not flagged:\n" << Out;
    // A report names both accesses: two access lines per race.
    static const std::regex AccessLine(
        R"(\b(read|write)\s+by task \d+ \(.*\) at cycle \d+)");
    auto Lines = std::distance(
        std::sregex_iterator(Out.begin(), Out.end(), AccessLine),
        std::sregex_iterator());
    EXPECT_GE(Lines, 2) << "report does not name both accesses:\n" << Out;
  } else {
    EXPECT_EQ(D->raceCount(), 0u) << "clean program flagged:\n" << Out;
  }
  uint64_t Got = fnv1a64(Out);
  EXPECT_EQ(Got, C.Pin) << "verdict drifted, got 0x" << std::hex << Got
                        << ":\n"
                        << Out;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RaceDetectSuiteTest, ::testing::ValuesIn(SuiteCases),
    [](const ::testing::TestParamInfo<SuiteCase> &I) {
      return caseName(I.param);
    });

} // namespace

TEST(RaceDetectTest, EverySuiteProgramIsPinnedAtEachProcessorCount) {
  std::set<std::string> Pinned;
  for (const SuiteCase &C : SuiteCases)
    Pinned.insert(caseName(C));
  size_t Files = 0;
  for (const auto &Ent : std::filesystem::directory_iterator(
           std::string(MULT_SOURCE_DIR) + "/tests/race")) {
    std::string Name = Ent.path().filename().string();
    if (Ent.path().extension() != ".lisp")
      continue;
    ++Files;
    EXPECT_TRUE(Name.rfind("racy_", 0) == 0 || Name.rfind("clean_", 0) == 0)
        << Name << ": suite files must be racy_*.lisp or clean_*.lisp";
    for (unsigned Procs : {1u, 4u, 16u}) {
      std::string Key = Ent.path().stem().string() + "_p" +
                        std::to_string(Procs);
      EXPECT_EQ(Pinned.count(Key), 1u) << Key << " has no pinned verdict";
    }
  }
  EXPECT_EQ(Files * 3, Pinned.size())
      << "a pinned program is missing from tests/race";
}

TEST(RaceDetectTest, ArmedBoyerChecksThreeAccessesOnOneCell) {
  // Table 3 Boyer at 4 processors, traced and armed: the eval the
  // boyer-par-traced benchmark measures.
  EngineConfig C;
  C.NumProcessors = 4;
  C.EnableTracing = true;
  C.RaceDetect = true;
  Engine E(C);
  evalOk(E, BoyerCommonSource);
  evalOk(E, BoyerParallelArgs);
  E.resetStats();
  EXPECT_EQ(evalPrint(E, "(boyer-test 1)"), "#t");
  const RaceDetector *D = E.raceDetector();
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->accessesChecked(), 3u);
  EXPECT_EQ(D->cellsTracked(), 1u);
  EXPECT_EQ(D->raceCount(), 0u);
}

// --- Offline analysis of synthetic streams ------------------------------

namespace {

using K = TraceEventKind;

TraceEvent ev(K Kind, uint64_t A = 0, uint32_t B = 0, uint64_t C = 0,
              uint8_t Proc = 0) {
  static uint64_t Clock = 0;
  return TraceEvent{++Clock, A, C, B, Proc, Kind};
}

const TaskId Root = makeTaskId(0, 0);
const TaskId Old = makeTaskId(5, 0); ///< slot 5, first generation
const TaskId New = makeTaskId(5, 1); ///< slot 5, recycled
const TaskId Mid = makeTaskId(6, 0);
constexpr uint64_t Cell = 7;

/// Analyses \p Events, expecting the stream to be accepted.
RaceDetector analyzeOk(const std::vector<TraceEvent> &Events) {
  RaceDetector D;
  std::string Err;
  EXPECT_TRUE(analyzeRaces(Events, 0, D, Err)) << Err;
  return D;
}

} // namespace

TEST(RaceDetectOfflineTest, RecycledSlotWritesRaceWhenUnordered) {
  // Old and New share slot 5 under different generations; nothing orders
  // New's write after Old's, so sharing a slot must not read as program
  // order.
  RaceDetector D = analyzeOk({
      ev(K::TaskCreate, Root, 0, InvalidTask),
      ev(K::TaskCreate, Old, 0, Root),
      ev(K::CellWrite, Cell, 0, Old),
      ev(K::TaskCreate, New, 0, Root),
      ev(K::CellWrite, Cell, 0, New),
  });
  ASSERT_EQ(D.raceCount(), 1u);
  EXPECT_EQ(D.races()[0].Prior.Task, Old);
  EXPECT_EQ(D.races()[0].Current.Task, New);
}

TEST(RaceDetectOfflineTest, RecycledSlotWritesOrderedByTaskCreate) {
  // Old forks Mid after writing; Mid forks New into Old's recycled slot.
  RaceDetector D = analyzeOk({
      ev(K::TaskCreate, Root, 0, InvalidTask),
      ev(K::TaskCreate, Old, 0, Root),
      ev(K::CellWrite, Cell, 0, Old),
      ev(K::TaskCreate, Mid, 0, Old),
      ev(K::TaskCreate, New, 0, Mid),
      ev(K::CellWrite, Cell, 0, New),
  });
  EXPECT_EQ(D.accessesChecked(), 2u);
  EXPECT_EQ(D.raceCount(), 0u);
}

TEST(RaceDetectOfflineTest, RecycledSlotWritesOrderedByTouchHit) {
  // Old resolves its future after writing; Root touches it before
  // spawning New into the recycled slot.
  RaceDetector D = analyzeOk({
      ev(K::TaskCreate, Root, 0, InvalidTask),
      ev(K::TaskCreate, Old, 0, Root),
      ev(K::TaskStart, Old, 0, 0, /*Proc=*/1),
      ev(K::CellWrite, Cell, 0, Old, 1),
      ev(K::FutureResolve, 0, 0, /*Serial=*/1, 1),
      ev(K::TouchHit, Root, 0, /*Serial=*/1),
      ev(K::TaskCreate, New, 0, Root),
      ev(K::CellWrite, Cell, 0, New),
  });
  EXPECT_EQ(D.raceCount(), 0u);
}

TEST(RaceDetectOfflineTest, TopTaskSlotIsRefused) {
  const TaskId Far = makeTaskId(0xFFFFFFFFu, 0);
  RaceDetector D;
  std::string Err;
  EXPECT_FALSE(analyzeRaces({ev(K::TaskCreate, Far, 0, InvalidTask),
                             ev(K::CellWrite, Cell, 0, Far)},
                            0, D, Err));
  EXPECT_NE(Err.find("task slot 4294967295 is out of range"),
            std::string::npos)
      << Err;
}

TEST(RaceDetectOfflineTest, SlotBeyondTheStreamWithinSlackIsAnalysed) {
  // A trace cut by resetStats may name slots allocated before it began.
  const TaskId A = makeTaskId(40000, 3), B = makeTaskId(40001, 0);
  RaceDetector D = analyzeOk({
      ev(K::TaskCreate, Root, 0, InvalidTask),
      ev(K::TaskCreate, A, 0, Root),
      ev(K::TaskCreate, B, 0, Root),
      ev(K::CellWrite, Cell, 0, A),
      ev(K::CellRead, Cell, 0, B),
  });
  EXPECT_EQ(D.raceCount(), 1u);
}

TEST(RaceDetectOfflineTest, ResolveSerialNearTheTopIsAnalysed) {
  // Serials only need to run on from the stream's first one.
  const uint64_t S = ~uint64_t(0) - 1;
  RaceDetector D = analyzeOk({
      ev(K::TaskCreate, Root, 0, InvalidTask),
      ev(K::TaskCreate, Old, 0, Root),
      ev(K::TaskStart, Old, 0, 0, 1),
      ev(K::CellWrite, Cell, 0, Old, 1),
      ev(K::FutureResolve, 0, 0, S, 1),
      ev(K::TaskCreate, Mid, 0, Root),
      ev(K::TaskStart, Mid, 0, 0, 2),
      ev(K::FutureResolve, 0, 0, S + 1, 2),
      ev(K::TouchHit, Root, 0, S),
      ev(K::CellWrite, Cell, 0, Root),
  });
  EXPECT_EQ(D.raceCount(), 0u) << "the touch of serial 2^64-2 orders it";
}

TEST(RaceDetectOfflineTest, ResolveSerialOutOfSequenceIsRefused) {
  RaceDetector D;
  std::string Err;
  EXPECT_FALSE(analyzeRaces(
      {ev(K::TaskCreate, Root, 0, InvalidTask),
       ev(K::TaskStart, Root, 0, 0), ev(K::FutureResolve, 0, 0, 1),
       ev(K::FutureResolve, 0, 0, ~uint64_t(0) - 1)},
      0, D, Err));
  EXPECT_NE(Err.find("out of sequence"), std::string::npos) << Err;
}
