//===----------------------------------------------------------------------===//
///
/// \file
/// Reader implementation.
///
//===----------------------------------------------------------------------===//

#include "reader/Reader.h"

#include "support/StrUtil.h"

using namespace mult;

ReadResult Reader::err(const Token &At, std::string Msg,
                       ReadResult::Status S) {
  ReadResult R;
  R.S = S;
  R.Error = strFormat("read error at %u:%u: %s", At.Line, At.Column,
                      Msg.c_str());
  return R;
}

ReadResult Reader::read() { return readDatum(); }

std::vector<Value> Reader::readAll(std::string &Error, bool *Incomplete) {
  std::vector<Value> Out;
  for (;;) {
    ReadResult R = readDatum();
    if (R.eof())
      return Out;
    if (R.error()) {
      Error = R.Error;
      if (Incomplete)
        *Incomplete = R.incomplete();
      return {};
    }
    Out.push_back(R.Datum);
  }
}

ReadResult Reader::readDatum() {
  Token T = Lex.next();
  ReadResult R;
  switch (T.Kind) {
  case TokKind::Eof:
    R.S = ReadResult::Status::Eof;
    return R;
  case TokKind::Error:
    return err(T, T.Text);
  case TokKind::Unterminated:
    return incomplete(T, T.Text);
  case TokKind::LParen:
    return readList();
  case TokKind::RParen:
    return err(T, "unexpected ')'");
  case TokKind::VecOpen:
    return readVector();
  case TokKind::Quote:
    return readAbbrev("quote");
  case TokKind::Quasi:
    return readAbbrev("quasiquote");
  case TokKind::Unquote:
    return readAbbrev("unquote");
  case TokKind::UnquoteAt:
    return readAbbrev("unquote-splicing");
  case TokKind::Dot:
    return err(T, "unexpected '.'");
  case TokKind::Fixnum:
    if (!Value::fitsFixnum(T.IntValue))
      return err(T, "integer literal exceeds fixnum range");
    R.S = ReadResult::Status::Ok;
    R.Datum = Value::fixnum(T.IntValue);
    return R;
  case TokKind::Flonum:
    R.S = ReadResult::Status::Ok;
    R.Datum = Builder.flonum(T.FloatValue);
    return R;
  case TokKind::Symbol:
    R.S = ReadResult::Status::Ok;
    R.Datum = Builder.symbol(T.Text);
    return R;
  case TokKind::String:
    R.S = ReadResult::Status::Ok;
    R.Datum = Builder.string(T.Text);
    return R;
  case TokKind::Char:
    R.S = ReadResult::Status::Ok;
    R.Datum = Value::character(T.CharValue);
    return R;
  case TokKind::True:
    R.S = ReadResult::Status::Ok;
    R.Datum = Value::trueV();
    return R;
  case TokKind::False:
    R.S = ReadResult::Status::Ok;
    R.Datum = Value::falseV();
    return R;
  }
  return err(T, "unhandled token");
}

ReadResult Reader::readList() {
  std::vector<Value> Elems;
  Value Tail = Value::nil();
  for (;;) {
    const Token &P = Lex.peek();
    if (P.Kind == TokKind::Eof)
      return incomplete(P, "unterminated list");
    if (P.Kind == TokKind::Error)
      return err(P, P.Text);
    if (P.Kind == TokKind::RParen) {
      Lex.next();
      break;
    }
    if (P.Kind == TokKind::Dot) {
      Token DotTok = Lex.next();
      if (Elems.empty())
        return err(DotTok, "'.' at start of list");
      ReadResult TailR = readDatum();
      if (!TailR.ok())
        return TailR.eof() ? incomplete(DotTok, "missing datum after '.'")
                           : TailR;
      Tail = TailR.Datum;
      Token Close = Lex.next();
      if (Close.Kind == TokKind::Eof)
        return incomplete(Close, "unterminated list");
      if (Close.Kind != TokKind::RParen)
        return err(Close, "expected ')' after dotted tail");
      break;
    }
    ReadResult R = readDatum();
    if (!R.ok())
      return R;
    Elems.push_back(R.Datum);
  }

  Value Out = Tail;
  for (size_t I = Elems.size(); I > 0; --I)
    Out = Builder.cons(Elems[I - 1], Out);
  ReadResult R;
  R.S = ReadResult::Status::Ok;
  R.Datum = Out;
  return R;
}

ReadResult Reader::readVector() {
  std::vector<Value> Elems;
  for (;;) {
    const Token &P = Lex.peek();
    if (P.Kind == TokKind::Eof)
      return incomplete(P, "unterminated vector");
    if (P.Kind == TokKind::RParen) {
      Lex.next();
      break;
    }
    ReadResult R = readDatum();
    if (!R.ok())
      return R;
    Elems.push_back(R.Datum);
  }
  ReadResult R;
  R.S = ReadResult::Status::Ok;
  R.Datum = Builder.vector(Elems);
  return R;
}

ReadResult Reader::readAbbrev(const char *SymbolName) {
  ReadResult Inner = readDatum();
  if (!Inner.ok()) {
    if (Inner.eof()) {
      ReadResult R;
      R.S = ReadResult::Status::Incomplete;
      R.Error = strFormat("read error: missing datum after %s abbreviation",
                          SymbolName);
      return R;
    }
    return Inner;
  }
  ReadResult R;
  R.S = ReadResult::Status::Ok;
  R.Datum = Builder.list({Builder.symbol(SymbolName), Inner.Datum});
  return R;
}
