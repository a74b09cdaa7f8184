//===----------------------------------------------------------------------===//
///
/// \file
/// Groups and the exception model (paper section 2.3): one stopped
/// computation per typed expression, resumable in any order, inspectable,
/// killable.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ui/Repl.h"

using namespace mult;
using namespace mult::testutil;

namespace {

TEST(GroupsTest, ErrorStopsTheGroup) {
  Engine E(config(2));
  EvalResult R = E.eval("(+ 1 (car 5))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  Group *G = E.findGroup(R.StoppedGroup);
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(G->State, GroupState::Stopped);
  EXPECT_NE(G->Condition.find("car of a non-pair"), std::string::npos);
  EXPECT_EQ(E.currentStoppedGroup(), R.StoppedGroup);
}

TEST(GroupsTest, ResumeSubstitutesTheErringValue) {
  Engine E(config(2));
  EvalResult R = E.eval("(* 2 (car 99))");
  ASSERT_FALSE(R.ok());
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::fixnum(21));
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.Val.asFixnum(), 42);
  EXPECT_EQ(E.findGroup(R.StoppedGroup)->State, GroupState::Done);
}

TEST(GroupsTest, ResumeUnboundVariable) {
  Engine E(config(1));
  EvalResult R = E.eval("(+ 1 nowhere)");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unbound variable: nowhere"), std::string::npos);
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::fixnum(9));
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(After.Val.asFixnum(), 10);
}

TEST(GroupsTest, UserErrorsCarryIrritants) {
  Engine E(config(1));
  EvalResult R = E.eval("(error \"bad thing:\" 1 '(2))");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("bad thing: 1 (2)"), std::string::npos) << R.Error;
}

TEST(GroupsTest, NoOtherGroupTaskRunsAfterStop) {
  // An exception in one task stops its siblings: the counter must stop
  // advancing once the group is stopped.
  Engine E(config(2));
  // One top-level form = one group: spinner and waiter are siblings.
  EvalResult R = E.eval(R"lisp(
    (define counter (cons 0 '()))
    (begin
      (define spinner
        (future (let loop ()
                  (set-car! counter (+ (car counter) 1))
                  (loop))))
      (let wait ()
        (if (< (car counter) 10) (wait) (car 'boom))))
  )lisp");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  // Read the counter twice via a *new* group; the spinner must not run
  // in between.
  int64_t A = evalFixnum(E, "(car counter)");
  int64_t B = evalFixnum(E, "(car counter)");
  EXPECT_EQ(A, B) << "a stopped group's tasks must not run";
  E.killGroup(R.StoppedGroup);
}

TEST(GroupsTest, ParkedSiblingsResumeWithTheGroup) {
  Engine E(config(2));
  EvalResult R = E.eval(R"lisp(
    (define cell (cons 0 '()))
    (define worker (future (begin (set-car! cell 5) (car 'oops))))
    (let wait () (if (= (car cell) 0) (wait) 'saw-it))
  )lisp");
  // The worker's error stopped the group; wait-loop was parked mid-run...
  // or the root completed first. Either way, if stopped, resume finishes.
  if (!R.ok()) {
    EvalResult After = E.resumeGroup(R.StoppedGroup, Value::fixnum(0));
    EXPECT_TRUE(After.ok()) << After.Error;
  }
}

TEST(GroupsTest, MultipleStoppedGroupsCoexist) {
  Engine E(config(1));
  EvalResult R1 = E.eval("(+ 1 (car 'a))");
  EvalResult R2 = E.eval("(+ 2 (car 'b))");
  ASSERT_FALSE(R1.ok());
  ASSERT_FALSE(R2.ok());
  EXPECT_NE(R1.StoppedGroup, R2.StoppedGroup);
  EXPECT_EQ(E.stoppedGroups().size(), 2u);
  // "The user may resume them in any order": resume the OLDER one first.
  EvalResult A1 = E.resumeGroup(R1.StoppedGroup, Value::fixnum(10));
  EXPECT_TRUE(A1.ok());
  EXPECT_EQ(A1.Val.asFixnum(), 11);
  EvalResult A2 = E.resumeGroup(R2.StoppedGroup, Value::fixnum(20));
  EXPECT_TRUE(A2.ok());
  EXPECT_EQ(A2.Val.asFixnum(), 22);
  EXPECT_TRUE(E.stoppedGroups().empty());
}

TEST(GroupsTest, KillDiscardsTheComputation) {
  Engine E(config(1));
  EvalResult R = E.eval("(car 'x)");
  ASSERT_FALSE(R.ok());
  E.killGroup(R.StoppedGroup);
  EXPECT_EQ(E.findGroup(R.StoppedGroup)->State, GroupState::Killed);
  EXPECT_TRUE(E.stoppedGroups().empty());
  // The engine still works.
  EXPECT_EQ(evalFixnum(E, "(+ 1 2)"), 3);
}

TEST(GroupsTest, KillWhileParkedLeaksNoTasks) {
  // Stop a group that has parked siblings (popped from a queue while the
  // group was stopped), then kill it: every member task must be retired,
  // not leaked in the Parked list.
  Engine E(config(2));
  EvalResult R = E.eval(R"lisp(
    (define spin-cell (cons 0 '()))
    (begin
      (define s1 (future (let loop ()
                           (set-car! spin-cell (+ (car spin-cell) 1))
                           (loop))))
      (define s2 (future (let loop ()
                           (set-car! spin-cell (+ (car spin-cell) 1))
                           (loop))))
      (let wait ()
        (if (< (car spin-cell) 10) (wait) (car 'boom))))
  )lisp");
  ASSERT_FALSE(R.ok());
  Group *G = E.findGroup(R.StoppedGroup);
  ASSERT_NE(G, nullptr);
  ASSERT_EQ(G->State, GroupState::Stopped);
  E.killGroup(R.StoppedGroup);
  EXPECT_TRUE(G->Parked.empty()) << "kill must clear the parked list";
  for (TaskId T : G->Members)
    EXPECT_EQ(E.liveTask(T), nullptr)
        << "task " << taskIndex(T) << " survived the kill";
  EXPECT_EQ(evalFixnum(E, "(+ 1 2)"), 3);
}

TEST(GroupsTest, TouchOfAKilledGroupsFutureStops) {
  // A future whose owner group was killed can never resolve; touching it
  // from another group must stop the toucher with a clear condition
  // instead of deadlocking the machine.
  Engine E(config(2));
  evalOk(E, "(define f #f)");
  EvalResult R = E.eval("(begin (set! f (future (car 5))) (touch f))");
  ASSERT_FALSE(R.ok());
  E.killGroup(R.StoppedGroup);
  EvalResult Again = E.eval("(touch f)");
  ASSERT_EQ(static_cast<int>(Again.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(Again.Error.find("killed group"), std::string::npos)
      << Again.Error;
  E.killGroup(Again.StoppedGroup);
  EXPECT_EQ(evalFixnum(E, "(+ 2 3)"), 5);
}

TEST(GroupsTest, BacktraceNamesTheFrames) {
  Engine E(config(1));
  EvalResult R = E.eval(R"lisp(
    (define (inner x) (car x))
    (define (outer x) (+ 1 (inner x)))   ; non-tail: keeps outer's frame
    (outer 7)
  )lisp");
  ASSERT_FALSE(R.ok());
  Group *G = E.findGroup(R.StoppedGroup);
  std::string Bt = E.backtrace(G->CurrentTask);
  EXPECT_NE(Bt.find("inner"), std::string::npos) << Bt;
  EXPECT_NE(Bt.find("outer"), std::string::npos) << Bt;
}

TEST(GroupsTest, HandlerServerTaskRan) {
  // The per-processor exception-handler server task coordinates the stop.
  Engine E(config(2));
  EvalResult R = E.eval("(car 0)");
  ASSERT_FALSE(R.ok());
  uint64_t Activations = 0;
  for (unsigned P = 0; P < 2; ++P)
    Activations += E.machine().processor(P).HandlerActivations;
  EXPECT_EQ(Activations, 1u);
  E.killGroup(R.StoppedGroup);
}

TEST(GroupsTest, GroupsTrackTheirTaskCounts) {
  Engine E(config(2));
  EvalResult R = E.eval("(touch (future (touch (future 1))))");
  ASSERT_TRUE(R.ok());
  // Newest group: root + two children.
  const Group &G = E.allGroups().back();
  EXPECT_EQ(G.TasksCreated, 3u);
  EXPECT_EQ(G.State, GroupState::Done);
}

//===----------------------------------------------------------------------===//
// The REPL layer over groups.
//===----------------------------------------------------------------------===//

class ReplTest : public ::testing::Test {
protected:
  ReplTest() : E(config(2)), Out(Buf), R(E, Out) {}

  std::string line(std::string_view L) {
    Buf.clear();
    R.processLine(L);
    return Buf;
  }

  Engine E;
  std::string Buf;
  StringOutStream Out;
  Repl R;
};

TEST_F(ReplTest, EvaluatesExpressions) {
  EXPECT_EQ(line("(+ 1 2)"), "3\n");
  EXPECT_EQ(line("'sym"), "sym\n");
  EXPECT_EQ(line("(display \"out\")"), "out#[unspecified]\n");
}

TEST_F(ReplTest, BreakloopFlow) {
  std::string S = line("(+ 1 (car 5))");
  EXPECT_NE(S.find("exception"), std::string::npos);
  EXPECT_NE(S.find("stopped"), std::string::npos);
  EXPECT_EQ(R.prompt(), "mul-t[1]> ");

  S = line(":bt");
  EXPECT_NE(S.find("car of a non-pair"), std::string::npos);

  S = line(":groups");
  EXPECT_NE(S.find("[stopped]"), std::string::npos);

  S = line(":tasks");
  EXPECT_NE(S.find("<- current"), std::string::npos);

  S = line(":resume 41");
  EXPECT_EQ(S, "42\n");
  EXPECT_EQ(R.prompt(), "mul-t> ");
}

TEST_F(ReplTest, KillCommand) {
  line("(car 5)");
  std::string S = line(":kill");
  EXPECT_NE(S.find("killed"), std::string::npos);
  EXPECT_EQ(R.prompt(), "mul-t> ");
}

TEST_F(ReplTest, HelpAndUnknown) {
  EXPECT_NE(line(":help").find(":resume"), std::string::npos);
  EXPECT_NE(line(":frobnicate").find("unknown command"), std::string::npos);
}

TEST_F(ReplTest, ExitReturnsFalse) {
  EXPECT_FALSE(R.processLine(":exit"));
  EXPECT_TRUE(R.processLine("(+ 1 1)"));
}

TEST_F(ReplTest, StatsCommand) {
  line("(touch (future 1))");
  std::string S = line(":stats");
  std::string Futures = "futures: " + std::to_string(E.stats().FuturesCreated) +
                        " created, " +
                        std::to_string(E.stats().FuturesResolved) +
                        " resolved\n";
  EXPECT_NE(S.find(Futures), std::string::npos) << S;
}

} // namespace
