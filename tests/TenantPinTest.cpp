//===----------------------------------------------------------------------===//
///
/// \file
/// Pinned run fingerprints of the tenant and recovery layers: quota and
/// budget stops, admission, supervision (restart, give-up, escalate),
/// load shedding and checkpoint restores, each run traced. Each pin is
/// the FNV-1a hash of a full RunFingerprint (result or per-launch
/// results, virtual cycles, counters and the serialized trace), so a
/// change to when or how a layer acts moves a pin even where the
/// program's answer stays the same. Also checks that run-json records
/// carry a "tenant" section exactly when the layer is armed.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "../bench/BenchUtil.h"
#include "support/StrUtil.h"

using namespace mult;
using namespace mult::testutil;

namespace {

std::string buildListSrc(int N) {
  return strFormat("(begin"
                   " (define (build n)"
                   " (if (= n 0) '() (cons n (build (- n 1)))))"
                   " (length (build %d)))",
                   N);
}

std::string spinSrc(int N) {
  return strFormat("(let loop ((i 0)) (if (= i %d) 'spun (loop (+ i 1))))", N);
}

std::string garbageSrc(int N) {
  return strFormat("(let loop ((i 0))"
                   " (if (= i %d) 'churned (begin (cons i i) (loop (+ i 1)))))",
                   N);
}

/// Eager workers, each a long seam-free tail loop: every quantum boundary
/// is capture-eligible. Returns workers * 20000.
const char *const WorkersTemplate =
    "(begin (define (work n acc) (if (= n 0) acc (work (- n 1) (+ acc 1))))"
    " (define (spawn k) (if (= k 0) '() (cons (future (work 20000 0))"
    " (spawn (- k 1)))))"
    " (define (wait l acc) (if (null? l) acc (wait (cdr l)"
    " (+ acc (touch (car l))))))"
    " (wait (spawn %d) 0))";

/// Dining philosophers: semaphore traffic bumps the side-effect epoch,
/// so some checkpoint records go stale before the kill.
const char *const Philosophers =
    "(begin (define n 5) (define rounds 200)"
    " (define forks (make-vector n 0)) (define uses (make-vector n 0))"
    " (do ((i 0 (+ i 1))) ((= i n) #t)"
    " (vector-set! forks i (make-semaphore 1)))"
    " (define (dine who)"
    "  (let ((li who) (ri (remainder (+ who 1) n)))"
    "   (let ((fi (if (even? who) li ri)) (si (if (even? who) ri li)))"
    "    (let ((first (vector-ref forks fi)) (second (vector-ref forks si)))"
    "     (let loop ((r 0))"
    "      (if (= r rounds) 'full"
    "       (begin (semaphore-p first) (semaphore-p second)"
    "        (vector-set! uses li (+ (vector-ref uses li) 1))"
    "        (vector-set! uses ri (+ (vector-ref uses ri) 1))"
    "        (semaphore-v second) (semaphore-v first)"
    "        (loop (+ r 1)))))))))"
    " (define (spawn who) (if (= who n) '() (cons (future (dine who))"
    " (spawn (+ who 1)))))"
    " (define (wait-all l) (if (null? l) 'done (begin (touch (car l))"
    " (wait-all (cdr l)))))"
    " (wait-all (spawn 0)) (vector-ref uses 0))";

GroupLaunch launch(std::string Source, uint64_t HeapQuota = 0,
                   uint64_t CycleBudget = 0, std::string Supervise = "") {
  GroupLaunch L;
  L.Source = std::move(Source);
  L.HeapQuotaWords = HeapQuota;
  L.CycleBudget = CycleBudget;
  L.Supervise = std::move(Supervise);
  return L;
}

RunOpts traced(unsigned Procs, std::function<void(EngineConfig &)> Configure,
               std::vector<GroupLaunch> Launches = {}) {
  RunOpts O;
  O.Procs = Procs;
  O.Trace = true;
  O.Configure = std::move(Configure);
  O.Launches = std::move(Launches);
  return O;
}

//===----------------------------------------------------------------------===//
// Quotas and budgets on single evals
//===----------------------------------------------------------------------===//

TEST(TenantPinTest, HeapQuotaStop) {
  expectPinned(0x73c108cd725453a9ULL, buildListSrc(500),
               traced(2, [](EngineConfig &C) { C.GroupHeapQuotaWords = 256; }));
}

TEST(TenantPinTest, CycleBudgetStop) {
  expectPinned(0xe74674504bde1c4eULL, spinSrc(100000),
               traced(2, [](EngineConfig &C) { C.GroupCycleBudget = 2000; }));
}

TEST(TenantPinTest, GraceCollection) {
  expectPinned(0xbac1ec19b37d70d2ULL, garbageSrc(3000),
               traced(2, [](EngineConfig &C) {
                 C.GroupHeapQuotaWords = 2000;
               }));
}

//===----------------------------------------------------------------------===//
// Multi-group runs: the demo, admission, supervision, shedding
//===----------------------------------------------------------------------===//

/// The tenant demo's launches (examples/tenant_demo.cpp): one trips its
/// heap quota, one its cycle budget (restarted to completion in act 2),
/// and the third finishes.
std::vector<GroupLaunch> threeTenants(bool Supervised) {
  return {launch(buildListSrc(500), 256),
          launch(spinSrc(3000), 0, 2000,
                 Supervised ? "restart:max=50,backoff=256" : ""),
          launch("(+ 40 2)")};
}

TEST(TenantPinTest, ThreeTenantDemo) {
  struct {
    bool Supervised;
    unsigned Procs;
    uint64_t Pin;
  } const Cases[] = {
      {false, 1, 0x0b7d312de87bbcdbULL},  {false, 4, 0x9dfd0f09ed665a06ULL},
      {false, 16, 0xe3d14efe19b5562cULL}, {true, 1, 0xe625ece442e0584bULL},
      {true, 4, 0x48acbe0ed563ebc8ULL},   {true, 16, 0x130950225f2fb19eULL},
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE(Case.Supervised ? "act 2 (supervised)" : "act 1");
    // Act 2 restarts with doubling backoff well past the test default
    // cycle limit; the demo runs unlimited.
    expectPinned(Case.Pin, "",
                 traced(
                     Case.Procs,
                     [](EngineConfig &C) { C.MaxRunCycles = ~uint64_t(0); },
                     threeTenants(Case.Supervised)));
  }
}

TEST(TenantPinTest, UnenvelopedLaunches) {
  expectPinned(0xfc294a5a14873d57ULL, "",
               traced(4, nullptr,
                      {launch("(+ 1 2)"), launch(spinSrc(300)),
                       launch("(touch (future (* 6 7)))")}));
}

std::vector<GroupLaunch> threeSums() {
  return {launch("(+ 0 1)"), launch("(+ 0 2)"), launch("(+ 0 3)")};
}

TEST(TenantPinTest, AdmissionQueue) {
  expectPinned(0x9b214b700762672aULL, "",
               traced(2,
                      [](EngineConfig &C) {
                        C.MaxLiveGroups = 1;
                        C.MaxQueuedGroups = 8;
                      },
                      threeSums()));
}

TEST(TenantPinTest, AdmissionReject) {
  expectPinned(0x46ca308b3b6df491ULL, "",
               traced(2,
                      [](EngineConfig &C) {
                        C.MaxLiveGroups = 1;
                        C.MaxQueuedGroups = 1;
                      },
                      threeSums()));
}

TEST(TenantPinTest, RestartAfterBudgetTrip) {
  expectPinned(0x199b1f29e4084030ULL, "",
               traced(2, nullptr,
                      {launch(spinSrc(2000), 0, 8000,
                              "restart:max=50,backoff=256")}));
}

TEST(TenantPinTest, RestartFromTheSameCheckpointTwice) {
  expectPinned(
      0x02f8a41e16c8e61dULL, "",
      traced(2, [](EngineConfig &C) { C.CheckpointEvery = 500; },
             {launch("(begin (define (spin n) (if (= n 0) 0 (+ 1 (spin (- n "
                     "1))))) (begin (spin 2000) (car 5)))",
                     0, 0, "restart:max=2,backoff=256")}));
}

TEST(TenantPinTest, GiveUp) {
  expectPinned(0xf97dd4a1be142621ULL, "",
               traced(2, nullptr,
                      {launch(buildListSrc(500), 128, 0,
                              "restart:max=2,backoff=128")}));
}

TEST(TenantPinTest, Escalate) {
  expectPinned(0x37a3475b96d6798fULL, "",
               traced(2, nullptr,
                      {launch("(car 5)", 0, 0, "escalate"),
                       launch(spinSrc(1000000))}));
}

TEST(TenantPinTest, MemoryPressureShed) {
  GroupLaunch Violator = launch(buildListSrc(1500), 4000);
  Violator.Priority = -1;
  GroupLaunch Grower = launch(
      "(begin (let wait ((i 0)) (if (= i 4000) 'go (wait (+ i 1))))"
      " (let loop ((i 0) (acc '())) (if (= i 4600) (length acc)"
      " (begin (cons i i) (cons i i) (loop (+ i 1) (cons i acc))))))");
  expectPinned(0x8a1483340b04b8bdULL, "",
               traced(2,
                      [](EngineConfig &C) {
                        C.HeapWords = 1 << 14;
                        C.ChunkWords = 256;
                        C.LargeObjectWords = 256;
                      },
                      {Violator, Grower}));
}

TEST(TenantPinTest, SupervisedRunSurvivesAProcKill) {
  expectPinned(0xa3d20dd0352a215fULL, "",
               traced(4,
                      [](EngineConfig &C) {
                        C.Faults = "proc-kill=1@4000";
                        C.CheckpointEvery = 1000;
                      },
                      {launch(spinSrc(3000), 0, 0,
                              "restart:max=5,backoff=512")}));
}

//===----------------------------------------------------------------------===//
// Checkpointed recovery
//===----------------------------------------------------------------------===//

void eagerCheckpoints(EngineConfig &C, const char *Faults, uint64_t Every) {
  C.Faults = Faults;
  C.CheckpointEvery = Every;
  C.InlineThreshold = 1'000'000;
}

TEST(TenantPinTest, CheckpointRestoreAfterAProcKill) {
  expectPinned(0x0f376a8b163592ceULL, strFormat(WorkersTemplate, 8),
               traced(4, [](EngineConfig &C) {
                 eagerCheckpoints(C, "proc-kill=1@50000", 2000);
               }));
}

TEST(TenantPinTest, EpochMismatchFallsBackToSpawnReplay) {
  expectPinned(0x5be23323bc1b180aULL, Philosophers,
               traced(4, [](EngineConfig &C) {
                 eagerCheckpoints(C, "proc-kill=1@20000", 500);
               }));
}

//===----------------------------------------------------------------------===//
// Run-json tenant sections
//===----------------------------------------------------------------------===//

/// The run-json record of each program, evaluated in turn on one engine.
std::vector<std::string> runJsonRecords(const EngineConfig &C) {
  Engine E(C);
  std::vector<std::string> Records;
  for (const std::string &Src :
       {std::string("(+ 1 2)"), std::string("(touch (future (* 6 7)))"),
        buildListSrc(200)}) {
    E.resetStats();
    evalOk(E, Src);
    std::string Out;
    StringOutStream OS(Out);
    writeRunJson(OS, "run", E.stats(), E.telemetry(), E.raceDetector(),
                 multbench::runLayers(E));
    Records.push_back(Out);
  }
  return Records;
}

TEST(TenantRunJsonTest, SectionAppearsExactlyWhenArmed) {
  for (const std::string &R : runJsonRecords(config(2)))
    EXPECT_EQ(R.find("\"tenant\":"), std::string::npos)
        << "dormant record leaked a tenant section: " << R;
  EngineConfig C = config(2);
  C.GroupHeapQuotaWords = 100000000;
  for (const std::string &R : runJsonRecords(C))
    EXPECT_NE(R.find("\"tenant\":"), std::string::npos)
        << "armed record without a tenant section: " << R;
}

} // namespace
