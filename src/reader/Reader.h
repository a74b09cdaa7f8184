//===----------------------------------------------------------------------===//
///
/// \file
/// S-expression reader: source text to Lisp data.
///
/// Output data is built through a DatumBuilder into the permanent area
/// (program text is static data). `'x` reads as `(quote x)`; quasiquote
/// reads as `(quasiquote ...)` and is rewritten by the macro expander.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_READER_READER_H
#define MULT_READER_READER_H

#include "reader/Lexer.h"
#include "runtime/DatumBuilder.h"

#include <string>
#include <vector>

namespace mult {

/// Result of a single read.
struct ReadResult {
  /// Incomplete is the error of a source that ended inside a list,
  /// vector, string or quote abbreviation: more text could complete it.
  enum class Status { Ok, Eof, Error, Incomplete } S = Status::Eof;
  Value Datum;
  std::string Error; ///< Message with line/column, when error().

  bool ok() const { return S == Status::Ok; }
  bool eof() const { return S == Status::Eof; }
  bool error() const { return S == Status::Error || incomplete(); }
  bool incomplete() const { return S == Status::Incomplete; }
};

/// Streaming reader over one source buffer.
class Reader {
public:
  Reader(DatumBuilder &Builder, std::string_view Source)
      : Builder(Builder), Lex(Source) {}

  /// Reads the next datum.
  ReadResult read();

  /// Reads every datum remaining; on error, \p Error receives the message,
  /// \p Incomplete (when given) whether the error was Status::Incomplete,
  /// and an empty vector is returned.
  std::vector<Value> readAll(std::string &Error, bool *Incomplete = nullptr);

private:
  ReadResult readDatum();
  ReadResult readList();
  ReadResult readVector();
  ReadResult readAbbrev(const char *SymbolName);
  ReadResult err(const Token &At, std::string Msg,
                 ReadResult::Status S = ReadResult::Status::Error);
  ReadResult incomplete(const Token &At, std::string Msg) {
    return err(At, std::move(Msg), ReadResult::Status::Incomplete);
  }

  DatumBuilder &Builder;
  Lexer Lex;
};

} // namespace mult

#endif // MULT_READER_READER_H
