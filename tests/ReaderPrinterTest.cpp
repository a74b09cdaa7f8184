//===----------------------------------------------------------------------===//
///
/// \file
/// Reader and printer unit tests.
///
//===----------------------------------------------------------------------===//

#include "reader/Reader.h"

#include "runtime/Heap.h"
#include "runtime/Printer.h"
#include "runtime/SymbolTable.h"

#include <gtest/gtest.h>

using namespace mult;

namespace {

class ReaderTest : public ::testing::Test {
protected:
  ReaderTest() : H(Heap::Config{}), Syms(H), B(H, Syms) {}

  /// Reads one datum and prints it back in `write` style.
  std::string roundTrip(std::string_view Src) {
    Reader R(B, Src);
    ReadResult RR = R.read();
    EXPECT_TRUE(RR.ok()) << RR.Error;
    return RR.ok() ? valueToString(RR.Datum) : "<error>";
  }

  std::string readError(std::string_view Src) {
    Reader R(B, Src);
    ReadResult RR = R.read();
    EXPECT_TRUE(RR.error()) << "expected a read error for: " << Src;
    return RR.Error;
  }

  Heap H;
  SymbolTable Syms;
  DatumBuilder B;
};

TEST_F(ReaderTest, Atoms) {
  EXPECT_EQ(roundTrip("42"), "42");
  EXPECT_EQ(roundTrip("-17"), "-17");
  EXPECT_EQ(roundTrip("foo"), "foo");
  EXPECT_EQ(roundTrip("set-car!"), "set-car!");
  EXPECT_EQ(roundTrip("#t"), "#t");
  EXPECT_EQ(roundTrip("#f"), "#f");
  EXPECT_EQ(roundTrip("#\\a"), "#\\a");
  EXPECT_EQ(roundTrip("#\\space"), "#\\space");
  EXPECT_EQ(roundTrip("\"hi\\nthere\""), "\"hi\\nthere\"");
  EXPECT_EQ(roundTrip("3.5"), "3.5");
  EXPECT_EQ(roundTrip("1+"), "1+"); // T-style symbol, not a number
  EXPECT_EQ(roundTrip("-"), "-");
}

TEST_F(ReaderTest, Lists) {
  EXPECT_EQ(roundTrip("()"), "()");
  EXPECT_EQ(roundTrip("(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(roundTrip("(a (b c) d)"), "(a (b c) d)");
  EXPECT_EQ(roundTrip("(1 . 2)"), "(1 . 2)");
  EXPECT_EQ(roundTrip("(1 2 . 3)"), "(1 2 . 3)");
  EXPECT_EQ(roundTrip("[a b]"), "(a b)"); // brackets are parens
}

TEST_F(ReaderTest, Vectors) {
  EXPECT_EQ(roundTrip("#(1 2 3)"), "#(1 2 3)");
  EXPECT_EQ(roundTrip("#()"), "#()");
  EXPECT_EQ(roundTrip("#(a #(b) 3)"), "#(a #(b) 3)");
}

TEST_F(ReaderTest, QuoteFamily) {
  EXPECT_EQ(roundTrip("'x"), "(quote x)");
  EXPECT_EQ(roundTrip("'(1 2)"), "(quote (1 2))");
  EXPECT_EQ(roundTrip("`x"), "(quasiquote x)");
  EXPECT_EQ(roundTrip(",x"), "(unquote x)");
  EXPECT_EQ(roundTrip(",@x"), "(unquote-splicing x)");
  EXPECT_EQ(roundTrip("''x"), "(quote (quote x))");
}

TEST_F(ReaderTest, Comments) {
  EXPECT_EQ(roundTrip("; a comment\n 7"), "7");
  EXPECT_EQ(roundTrip("#| block #| nested |# comment |# 8"), "8");
  EXPECT_EQ(roundTrip("(1 ; mid-list\n 2)"), "(1 2)");
}

TEST_F(ReaderTest, Errors) {
  EXPECT_NE(readError("(1 2").find("unterminated"), std::string::npos);
  EXPECT_NE(readError(")").find("unexpected"), std::string::npos);
  EXPECT_NE(readError("\"abc").find("unterminated"), std::string::npos);
  EXPECT_NE(readError("(. 3)").find("'.'"), std::string::npos);
  readError("(1 . 2 3)");
  readError("123456789012345678901234567890"); // fixnum overflow
}

TEST_F(ReaderTest, IncompleteIsApartFromSyntaxErrors) {
  auto Status = [&](std::string_view Src) {
    Reader R(B, Src);
    return R.read().S;
  };
  using S = ReadResult::Status;
  for (std::string_view Src : {"(1 2", "#(1", "\"abc", "'", "(a .", "(a . b",
                               "(1 \"x\\"})
    EXPECT_EQ(Status(Src), S::Incomplete) << Src;
  for (std::string_view Src : {")", "(1 . 2 3)", "#q", "(. 1)"})
    EXPECT_EQ(Status(Src), S::Error) << Src;
  Reader R(B, "1 (2");
  std::string Err;
  bool Incomplete = false;
  EXPECT_TRUE(R.readAll(Err, &Incomplete).empty());
  EXPECT_TRUE(Incomplete) << Err;
}

TEST_F(ReaderTest, ErrorsCarryPositions) {
  std::string E = readError("(a\n b\n \"oops");
  EXPECT_NE(E.find("3:"), std::string::npos) << E;
}

TEST_F(ReaderTest, ReadAll) {
  Reader R(B, "1 two (3) ; done");
  std::string Err;
  std::vector<Value> Forms = R.readAll(Err);
  EXPECT_TRUE(Err.empty());
  ASSERT_EQ(Forms.size(), 3u);
  EXPECT_EQ(valueToString(Forms[1]), "two");
}

TEST_F(ReaderTest, SymbolsAreInterned) {
  Reader R(B, "foo foo");
  std::string Err;
  std::vector<Value> Forms = R.readAll(Err);
  ASSERT_EQ(Forms.size(), 2u);
  EXPECT_TRUE(Forms[0].identical(Forms[1]));
}

TEST_F(ReaderTest, PrinterDisplayMode) {
  Reader R(B, "(\"str\" #\\x)");
  ReadResult RR = R.read();
  ASSERT_TRUE(RR.ok());
  PrintOptions Disp;
  Disp.Machine = false;
  EXPECT_EQ(valueToString(RR.Datum, Disp), "(str x)");
}

TEST_F(ReaderTest, PrinterDepthLimitIsCycleSafe) {
  // Build a cyclic list by hand; the printer must terminate.
  Value P = B.cons(Value::fixnum(1), Value::nil());
  P.asObject()->setCdr(P);
  PrintOptions Opts;
  Opts.MaxLength = 16;
  std::string S = valueToString(P, Opts);
  EXPECT_NE(S.find("..."), std::string::npos);
}

TEST_F(ReaderTest, ValuesEqualStructural) {
  auto ReadOne = [&](std::string_view S) {
    Reader R(B, S);
    return R.read().Datum;
  };
  EXPECT_TRUE(valuesEqual(ReadOne("(1 (2 #(3 \"x\")))"),
                          ReadOne("(1 (2 #(3 \"x\")))")));
  EXPECT_FALSE(valuesEqual(ReadOne("(1 2)"), ReadOne("(1 2 3)")));
  EXPECT_FALSE(valuesEqual(ReadOne("#(1)"), ReadOne("(1)")));
}

} // namespace
