//===----------------------------------------------------------------------===//
///
/// \file
/// Language semantics: the sequential Scheme/T subset of Mul-T.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "compiler/PrimTable.h"

#include <map>

using namespace mult;
using namespace mult::testutil;

namespace {

class EvalTest : public ::testing::Test {
protected:
  EvalTest() : E(config(1)) {}
  Engine E;
};

TEST_F(EvalTest, SelfEvaluating) {
  EXPECT_EQ(evalPrint(E, "42"), "42");
  EXPECT_EQ(evalPrint(E, "#t"), "#t");
  EXPECT_EQ(evalPrint(E, "#\\q"), "#\\q");
  EXPECT_EQ(evalPrint(E, "\"abc\""), "\"abc\"");
  EXPECT_EQ(evalPrint(E, "3.25"), "3.25");
}

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(evalFixnum(E, "(+ 1 2)"), 3);
  EXPECT_EQ(evalFixnum(E, "(+ 1 2 3 4 5)"), 15);
  EXPECT_EQ(evalFixnum(E, "(+)"), 0);
  EXPECT_EQ(evalFixnum(E, "(*)"), 1);
  EXPECT_EQ(evalFixnum(E, "(* 2 3 4)"), 24);
  EXPECT_EQ(evalFixnum(E, "(- 10 3)"), 7);
  EXPECT_EQ(evalFixnum(E, "(- 5)"), -5);
  EXPECT_EQ(evalFixnum(E, "(- 20 5 3)"), 12);
  EXPECT_EQ(evalFixnum(E, "(quotient 17 5)"), 3);
  EXPECT_EQ(evalFixnum(E, "(remainder 17 5)"), 2);
  EXPECT_EQ(evalFixnum(E, "(remainder -17 5)"), -2);
  EXPECT_EQ(evalFixnum(E, "(modulo -17 5)"), 3);
  EXPECT_EQ(evalFixnum(E, "(abs -9)"), 9);
  EXPECT_EQ(evalFixnum(E, "(min 3 1 2)"), 1);
  EXPECT_EQ(evalFixnum(E, "(max 3 1 2)"), 3);
}

TEST_F(EvalTest, FlonumArithmetic) {
  EXPECT_EQ(evalPrint(E, "(+ 1.5 2)"), "3.5");
  EXPECT_EQ(evalPrint(E, "(* 2.0 3)"), "6");
  EXPECT_EQ(evalPrint(E, "(/ 1 2)"), "0.5");
  EXPECT_EQ(evalPrint(E, "(< 1.5 2)"), "#t");
}

TEST_F(EvalTest, FixnumOverflowPromotes) {
  // 61-bit fixnums; products beyond that become flonums rather than wrap.
  Value V = evalOk(E, "(* 1152921504606846975 8)");
  EXPECT_TRUE(V.isObject());
  EXPECT_EQ(V.asObject()->tag(), TypeTag::Flonum);
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_EQ(evalPrint(E, "(< 1 2)"), "#t");
  EXPECT_EQ(evalPrint(E, "(<= 2 2)"), "#t");
  EXPECT_EQ(evalPrint(E, "(> 1 2)"), "#f");
  EXPECT_EQ(evalPrint(E, "(>= 1 2)"), "#f");
  EXPECT_EQ(evalPrint(E, "(= 3 3)"), "#t");
  EXPECT_EQ(evalPrint(E, "(zero? 0)"), "#t");
  EXPECT_EQ(evalPrint(E, "(negative? -2)"), "#t");
  EXPECT_EQ(evalPrint(E, "(positive? 2)"), "#t");
  EXPECT_EQ(evalPrint(E, "(odd? 3)"), "#t");
  EXPECT_EQ(evalPrint(E, "(even? 3)"), "#f");
}

TEST_F(EvalTest, PairsAndLists) {
  EXPECT_EQ(evalPrint(E, "(cons 1 2)"), "(1 . 2)");
  EXPECT_EQ(evalPrint(E, "(list 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(evalFixnum(E, "(car '(1 2))"), 1);
  EXPECT_EQ(evalPrint(E, "(cdr '(1 2))"), "(2)");
  EXPECT_EQ(evalPrint(E, "(cadr '(1 2 3))"), "2");
  EXPECT_EQ(evalPrint(E, "(append '(1 2) '(3) '() '(4))"), "(1 2 3 4)");
  EXPECT_EQ(evalPrint(E, "(reverse '(1 2 3))"), "(3 2 1)");
  EXPECT_EQ(evalFixnum(E, "(length '(a b c))"), 3);
  EXPECT_EQ(evalPrint(E, "(memq 'b '(a b c))"), "(b c)");
  EXPECT_EQ(evalPrint(E, "(memq 'x '(a b c))"), "#f");
  EXPECT_EQ(evalPrint(E, "(member '(1) '((0) (1) (2)))"), "((1) (2))");
  EXPECT_EQ(evalPrint(E, "(assq 'b '((a 1) (b 2)))"), "(b 2)");
  EXPECT_EQ(evalPrint(E, "(null? '())"), "#t");
  EXPECT_EQ(evalPrint(E, "(pair? '(1))"), "#t");
  EXPECT_EQ(evalPrint(E, "(atom? '(1))"), "#f");
  EXPECT_EQ(evalPrint(E, "(atom? 'x)"), "#t");
  evalOk(E, "(define p (list 1 2)) (set-car! p 9) (set-cdr! p '(8))");
  EXPECT_EQ(evalPrint(E, "p"), "(9 8)");
}

TEST_F(EvalTest, EqAndEqual) {
  EXPECT_EQ(evalPrint(E, "(eq? 'a 'a)"), "#t");
  EXPECT_EQ(evalPrint(E, "(eq? '(a) '(a))"), "#f");
  EXPECT_EQ(evalPrint(E, "(eq? 3 3)"), "#t"); // fixnums are immediate
  EXPECT_EQ(evalPrint(E, "(equal? '(a (b)) '(a (b)))"), "#t");
  EXPECT_EQ(evalPrint(E, "(equal? \"ab\" \"ab\")"), "#t");
  EXPECT_EQ(evalPrint(E, "(equal? #(1 2) #(1 2))"), "#t");
  EXPECT_EQ(evalPrint(E, "(equal? #(1 2) #(1 3))"), "#f");
}

TEST_F(EvalTest, SpecialForms) {
  EXPECT_EQ(evalFixnum(E, "(if #t 1 2)"), 1);
  EXPECT_EQ(evalFixnum(E, "(if #f 1 2)"), 2);
  EXPECT_EQ(evalFixnum(E, "(if '() 1 2)"), 1); // '() is true in T
  EXPECT_EQ(evalFixnum(E, "(begin 1 2 3)"), 3);
  EXPECT_EQ(evalFixnum(E, "(let ((x 2) (y 3)) (+ x y))"), 5);
  EXPECT_EQ(evalFixnum(E, "(let* ((x 2) (y (* x x))) y)"), 4);
  EXPECT_EQ(evalFixnum(E, "(letrec ((even? (lambda (n) (if (= n 0) 1 "
                          "(odd? (- n 1))))) (odd? (lambda (n) (if (= n 0) "
                          "0 (even? (- n 1)))))) (even? 10))"),
            1);
  EXPECT_EQ(evalPrint(E, "(cond (#f 1) (#t 2) (else 3))"), "2");
  EXPECT_EQ(evalPrint(E, "(cond (#f 1) (else 3))"), "3");
  // A test-only clause yields the test's value.
  EXPECT_EQ(evalPrint(E, "(cond (#f) ((memq 'b '(a b))))"), "(b)");
  EXPECT_EQ(evalPrint(E, "(case 2 ((1) 'one) ((2 3) 'two-or-three) "
                         "(else 'other))"),
            "two-or-three");
  EXPECT_EQ(evalPrint(E, "(case 9 ((1) 'one) (else 'other))"), "other");
  EXPECT_EQ(evalPrint(E, "(and 1 2 3)"), "3");
  EXPECT_EQ(evalPrint(E, "(and 1 #f 3)"), "#f");
  EXPECT_EQ(evalPrint(E, "(and)"), "#t");
  EXPECT_EQ(evalPrint(E, "(or #f 2 3)"), "2");
  EXPECT_EQ(evalPrint(E, "(or)"), "#f");
  EXPECT_EQ(evalPrint(E, "(when (> 2 1) 'yes)"), "yes");
  EXPECT_EQ(evalPrint(E, "(unless (> 2 1) 'yes)"), "#f");
}

TEST_F(EvalTest, DoLoops) {
  EXPECT_EQ(evalFixnum(E, "(do ((i 0 (+ i 1)) (acc 0 (+ acc i))) "
                          "((= i 5) acc))"),
            10);
  EXPECT_EQ(evalFixnum(E, "(let ((v (make-vector 5 0)))"
                          " (do ((i 0 (+ i 1))) ((= i 5) (vector-ref v 3))"
                          "   (vector-set! v i (* i i))))"),
            9);
}

TEST_F(EvalTest, NamedLetAndTailCalls) {
  EXPECT_EQ(evalFixnum(E, "(let loop ((i 0) (acc 0)) "
                          "(if (= i 10) acc (loop (+ i 1) (+ acc i))))"),
            45);
  // A million iterations: only possible with proper tail calls.
  EXPECT_EQ(evalFixnum(E, "(let loop ((i 0)) "
                          "(if (= i 1000000) i (loop (+ i 1))))"),
            1000000);
}

TEST_F(EvalTest, ClosuresAndHigherOrder) {
  EXPECT_EQ(evalFixnum(E, "((lambda (x) (* x x)) 7)"), 49);
  evalOk(E, "(define (adder n) (lambda (x) (+ x n)))");
  EXPECT_EQ(evalFixnum(E, "((adder 3) 4)"), 7);
  EXPECT_EQ(evalPrint(E, "(map (adder 10) '(1 2 3))"), "(11 12 13)");
  EXPECT_EQ(evalPrint(E, "(map car '((1 2) (3 4)))"), "(1 3)");
  EXPECT_EQ(evalPrint(E, "(filter odd? '(1 2 3 4 5))"), "(1 3 5)");
  EXPECT_EQ(evalFixnum(E, "(fold-left + 0 '(1 2 3 4))"), 10);
  EXPECT_EQ(evalPrint(E, "(fold-right cons '() '(1 2))"), "(1 2)");
}

TEST_F(EvalTest, SetAndBoxes) {
  evalOk(E, "(define counter (let ((n 0)) (lambda () (set! n (+ n 1)) n)))");
  EXPECT_EQ(evalFixnum(E, "(counter)"), 1);
  EXPECT_EQ(evalFixnum(E, "(counter)"), 2);
  EXPECT_EQ(evalFixnum(E, "(let ((x 1)) (set! x 5) x)"), 5);
  // Assigned parameters are boxed.
  EXPECT_EQ(evalFixnum(E, "((lambda (x) (set! x (+ x 1)) x) 41)"), 42);
  evalOk(E, "(define g 1) (set! g 10)");
  EXPECT_EQ(evalFixnum(E, "g"), 10);
}

TEST_F(EvalTest, SharedMutableCapture) {
  // Two closures over the same boxed variable see each other's writes.
  evalOk(E, R"lisp(
    (define pair
      (let ((n 0))
        (cons (lambda () (set! n (+ n 1)))
              (lambda () n))))
    ((car pair)) ((car pair)) ((car pair))
  )lisp");
  EXPECT_EQ(evalFixnum(E, "((cdr pair))"), 3);
}

TEST_F(EvalTest, Vectors) {
  EXPECT_EQ(evalPrint(E, "(make-vector 3 7)"), "#(7 7 7)");
  EXPECT_EQ(evalPrint(E, "(vector 1 'a \"s\")"), "#(1 a \"s\")");
  EXPECT_EQ(evalFixnum(E, "(vector-length (make-vector 9 0))"), 9);
  EXPECT_EQ(evalFixnum(E, "(vector-ref #(5 6 7) 1)"), 6);
  EXPECT_EQ(evalPrint(E, "(let ((v (make-vector 2 0))) "
                         "(vector-set! v 1 'x) v)"),
            "#(0 x)");
  EXPECT_EQ(evalPrint(E, "(list->vector '(1 2))"), "#(1 2)");
  EXPECT_EQ(evalPrint(E, "(vector->list #(1 2))"), "(1 2)");
  EXPECT_EQ(evalPrint(E, "(let ((v (make-vector 3 0))) "
                         "(vector-fill! v 4) v)"),
            "#(4 4 4)");
}

TEST_F(EvalTest, Strings) {
  EXPECT_EQ(evalFixnum(E, "(string-length \"hello\")"), 5);
  EXPECT_EQ(evalPrint(E, "(string-ref \"abc\" 1)"), "#\\b");
  EXPECT_EQ(evalPrint(E, "(string-append \"foo\" \"bar\")"), "\"foobar\"");
  EXPECT_EQ(evalPrint(E, "(string=? \"x\" \"x\")"), "#t");
  EXPECT_EQ(evalPrint(E, "(symbol->string 'abc)"), "\"abc\"");
  EXPECT_EQ(evalPrint(E, "(string->symbol \"wow\")"), "wow");
  EXPECT_EQ(evalPrint(E, "(number->string 42)"), "\"42\"");
  EXPECT_EQ(evalFixnum(E, "(char->integer #\\A)"), 65);
  EXPECT_EQ(evalPrint(E, "(integer->char 66)"), "#\\B");
}

TEST_F(EvalTest, PropertyLists) {
  evalOk(E, "(put 'color 'kind 'primary)");
  EXPECT_EQ(evalPrint(E, "(get 'color 'kind)"), "primary");
  EXPECT_EQ(evalPrint(E, "(get 'color 'missing)"), "()");
  evalOk(E, "(put 'color 'kind 'secondary)"); // update in place
  EXPECT_EQ(evalPrint(E, "(get 'color 'kind)"), "secondary");
}

TEST_F(EvalTest, Apply) {
  EXPECT_EQ(evalFixnum(E, "(apply + '(1 2 3))"), 6);
  evalOk(E, "(define (f a b) (* a b))");
  EXPECT_EQ(evalFixnum(E, "(apply f (list 6 7))"), 42);
}

TEST_F(EvalTest, Quasiquote) {
  EXPECT_EQ(evalPrint(E, "`(1 ,(+ 1 1) 3)"), "(1 2 3)");
  EXPECT_EQ(evalPrint(E, "`(a ,@(list 1 2) b)"), "(a 1 2 b)");
  EXPECT_EQ(evalPrint(E, "`(x . ,(+ 2 3))"), "(x . 5)");
}

TEST_F(EvalTest, OutputPrimitives) {
  evalOk(E, "(begin (display \"n=\") (display 42) (newline) "
            "(write \"q\"))");
  EXPECT_EQ(E.takeOutput(), "n=42\n\"q\"");
}

TEST_F(EvalTest, InternalDefines) {
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (define (outer n)
      (define (double x) (* 2 x))
      (define four (double 2))
      (+ n four))
    (outer 1)
  )lisp"),
            5);
}

TEST_F(EvalTest, UserCanShadowPrimitives) {
  // Defining a primitive's name disables integration for later forms.
  Engine E2(config(1));
  evalOk(E2, "(define (reverse l) 'mine)");
  EXPECT_EQ(evalPrint(E2, "(reverse '(1 2))"), "mine");
}

TEST_F(EvalTest, PrimitivesAsValues) {
  // Eta-wrappers make primitive names first-class.
  EXPECT_EQ(evalPrint(E, "(map + '(1 2) )"), "(1 2)");
  EXPECT_EQ(evalFixnum(E, "(let ((f car)) (f '(9 8)))"), 9);
  EXPECT_EQ(evalFixnum(E, "(apply quotient (list 9 2))"), 4);

  // Every eta-wrapped open-coded primitive is bound to a procedure that
  // applies at its table arity. `c` and `v` are fresh cells the mutators
  // write; `Observe` reads the effect back (default: the call's result).
  struct Case {
    std::vector<const char *> Args;
    const char *Want;
    const char *Observe = "r";
  };
  const std::map<std::string_view, Case> Cases = {
      {"quotient", {{"17", "5"}, "3"}},
      {"remainder", {{"17", "5"}, "2"}},
      {"<", {{"1", "2"}, "#t"}},
      {"<=", {{"3", "2"}, "#f"}},
      {">", {{"1", "2"}, "#f"}},
      {">=", {{"3", "2"}, "#t"}},
      {"=", {{"2", "2"}, "#t"}},
      {"eq?", {{"'a", "'a"}, "#t"}},
      {"cons", {{"1", "2"}, "(1 . 2)"}},
      {"car", {{"c"}, "1"}},
      {"cdr", {{"c"}, "(2)"}},
      {"set-car!", {{"c", "9"}, "(9 2)", "c"}},
      {"set-cdr!", {{"c", "'(5)"}, "(1 5)", "c"}},
      {"null?", {{"'()"}, "#t"}},
      {"pair?", {{"c"}, "#t"}},
      {"not", {{"#f"}, "#t"}},
      {"vector-ref", {{"v", "1"}, "2"}},
      {"vector-set!", {{"v", "0", "7"}, "#(7 2 3)", "v"}},
      {"vector-length", {{"v"}, "3"}},
  };
  size_t Wrapped = 0;
  for (const FastOp &F : fastOps()) {
    if (!F.EtaWrapped)
      continue;
    ++Wrapped;
    auto It = Cases.find(F.Name);
    ASSERT_NE(It, Cases.end()) << F.Name << " has no case";
    const Case &C = It->second;
    ASSERT_EQ(C.Args.size(), static_cast<size_t>(F.Info.Arity)) << F.Name;
    std::string Name(F.Name), Args;
    for (const char *A : C.Args)
      Args += std::string(" ") + A;
    std::string Src = "(let ((c (list 1 2)) (v (vector 1 2 3)))"
                      " (let ((r (apply " + Name + " (list" + Args + "))))" +
                      " " + C.Observe + "))";
    EXPECT_EQ(evalPrint(E, Src), C.Want) << Src;
    EXPECT_EQ(evalPrint(E, "(procedure? " + Name + ")"), "#t");
  }
  EXPECT_EQ(Wrapped, Cases.size());
}

TEST_F(EvalTest, Errors) {
  evalErr(E, "(car 5)", EvalResult::Kind::RuntimeError);
  evalErr(E, "(undefined-var)", EvalResult::Kind::RuntimeError);
  evalErr(E, "(vector-ref #(1) 5)", EvalResult::Kind::RuntimeError);
  evalErr(E, "(+ 'a 1)", EvalResult::Kind::RuntimeError);
  evalErr(E, "(quotient 1 0)", EvalResult::Kind::RuntimeError);
  evalErr(E, "((lambda (x) x))", EvalResult::Kind::RuntimeError); // arity
  evalErr(E, "(1 2)", EvalResult::Kind::RuntimeError); // non-procedure
  evalErr(E, "(error \"custom\" 1 2)", EvalResult::Kind::RuntimeError);
  evalErr(E, "(", EvalResult::Kind::ReadError);
  evalErr(E, "(lambda)", EvalResult::Kind::CompileError);
  evalErr(E, "(if)", EvalResult::Kind::CompileError);
  evalErr(E, "(let ((x)) x)", EvalResult::Kind::CompileError);
  evalErr(E, "(car 1 2)", EvalResult::Kind::CompileError); // prim arity
  evalErr(E, "(lambda (x . y) x)", EvalResult::Kind::CompileError);
}

TEST_F(EvalTest, StackOverflowIsAnError) {
  EngineConfig C = config(1);
  C.MaxStackWords = 4096;
  Engine E2(C);
  std::string Msg = evalErr(E2,
                            "(define (inf n) (+ 1 (inf n))) (inf 0)",
                            EvalResult::Kind::RuntimeError);
  EXPECT_NE(Msg.find("stack overflow"), std::string::npos) << Msg;
}

TEST_F(EvalTest, DeepNonTailRecursionWithinLimit) {
  EXPECT_EQ(evalFixnum(E, "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1)))))"
                          "(sum 10000)"),
            50005000);
}

} // namespace
