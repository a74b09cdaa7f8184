//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for Mul-T source text.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_READER_LEXER_H
#define MULT_READER_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mult {

/// Lexical token kinds.
enum class TokKind {
  Eof,
  LParen,
  RParen,
  VecOpen,   ///< #(
  Quote,     ///< '
  Quasi,     ///< `
  Unquote,   ///< ,
  UnquoteAt, ///< ,@
  Dot,       ///< . in dotted pairs
  Fixnum,
  Flonum,
  Symbol,
  String,
  Char,      ///< #\x
  True,      ///< #t
  False,     ///< #f
  Error,
  Unterminated, ///< the source ended inside a string literal
};

/// One token, with source position for diagnostics.
struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;    ///< Symbol spelling, decoded string body, error text.
  int64_t IntValue = 0;
  double FloatValue = 0;
  uint32_t CharValue = 0;
  unsigned Line = 1;
  unsigned Column = 1;
};

/// A one-token-lookahead lexer over a source buffer.
///
/// Handles `;` line comments and `#| ... |#` block comments (nesting).
/// Symbols follow T conventions: any run of non-delimiter characters that
/// does not parse as a number. Case-sensitive.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Src(Source) {}

  /// Returns the next token, consuming it.
  Token next();

  /// Returns the next token without consuming it.
  const Token &peek();

  unsigned line() const { return Line; }

private:
  Token lexOne();
  Token lexString();
  Token lexHash();
  Token lexAtom();
  Token makeError(std::string Msg, TokKind Kind = TokKind::Error);

  bool atEnd() const { return Pos >= Src.size(); }
  char cur() const { return Src[Pos]; }
  char advance();
  void skipTrivia();

  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
  Token Lookahead;
  bool HasLookahead = false;
};

/// True for characters that terminate an atom.
bool isDelimiter(char C);

} // namespace mult

#endif // MULT_READER_LEXER_H
