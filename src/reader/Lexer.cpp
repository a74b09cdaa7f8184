//===----------------------------------------------------------------------===//
///
/// \file
/// Lexer implementation.
///
//===----------------------------------------------------------------------===//

#include "reader/Lexer.h"

#include "support/StrUtil.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace mult;

bool mult::isDelimiter(char C) {
  switch (C) {
  case '(':
  case ')':
  case '[':
  case ']':
  case '"':
  case ';':
  case '\'':
  case '`':
  case ',':
    return true;
  default:
    return std::isspace(static_cast<unsigned char>(C)) != 0;
  }
}

char Lexer::advance() {
  char C = Src[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = cur();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == ';') {
      while (!atEnd() && cur() != '\n')
        advance();
      continue;
    }
    if (C == '#' && Pos + 1 < Src.size() && Src[Pos + 1] == '|') {
      advance();
      advance();
      int Depth = 1;
      while (!atEnd() && Depth > 0) {
        char D = advance();
        if (D == '#' && !atEnd() && cur() == '|') {
          advance();
          ++Depth;
        } else if (D == '|' && !atEnd() && cur() == '#') {
          advance();
          --Depth;
        }
      }
      continue;
    }
    break;
  }
}

const Token &Lexer::peek() {
  if (!HasLookahead) {
    Lookahead = lexOne();
    HasLookahead = true;
  }
  return Lookahead;
}

Token Lexer::next() {
  if (HasLookahead) {
    HasLookahead = false;
    return Lookahead;
  }
  return lexOne();
}

Token Lexer::makeError(std::string Msg, TokKind Kind) {
  Token T;
  T.Kind = Kind;
  T.Text = std::move(Msg);
  T.Line = Line;
  T.Column = Column;
  return T;
}

Token Lexer::lexOne() {
  skipTrivia();
  Token T;
  T.Line = Line;
  T.Column = Column;
  if (atEnd()) {
    T.Kind = TokKind::Eof;
    return T;
  }
  char C = cur();
  switch (C) {
  case '(':
  case '[':
    advance();
    T.Kind = TokKind::LParen;
    return T;
  case ')':
  case ']':
    advance();
    T.Kind = TokKind::RParen;
    return T;
  case '\'':
    advance();
    T.Kind = TokKind::Quote;
    return T;
  case '`':
    advance();
    T.Kind = TokKind::Quasi;
    return T;
  case ',':
    advance();
    if (!atEnd() && cur() == '@') {
      advance();
      T.Kind = TokKind::UnquoteAt;
    } else {
      T.Kind = TokKind::Unquote;
    }
    return T;
  case '"':
    return lexString();
  case '#':
    return lexHash();
  default:
    return lexAtom();
  }
}

Token Lexer::lexString() {
  Token T;
  T.Line = Line;
  T.Column = Column;
  advance(); // opening quote
  std::string Body;
  while (true) {
    if (atEnd())
      return makeError("unterminated string literal", TokKind::Unterminated);
    char C = advance();
    if (C == '"')
      break;
    if (C == '\\') {
      if (atEnd())
        return makeError("unterminated escape in string literal",
                         TokKind::Unterminated);
      char E = advance();
      switch (E) {
      case 'n':
        Body.push_back('\n');
        break;
      case 't':
        Body.push_back('\t');
        break;
      case '\\':
      case '"':
        Body.push_back(E);
        break;
      default:
        return makeError(strFormat("unknown string escape '\\%c'", E));
      }
      continue;
    }
    Body.push_back(C);
  }
  T.Kind = TokKind::String;
  T.Text = std::move(Body);
  return T;
}

Token Lexer::lexHash() {
  Token T;
  T.Line = Line;
  T.Column = Column;
  advance(); // '#'
  if (atEnd())
    return makeError("lone '#' at end of input");
  char C = advance();
  switch (C) {
  case '(':
    T.Kind = TokKind::VecOpen;
    return T;
  case 't':
    T.Kind = TokKind::True;
    return T;
  case 'f':
    T.Kind = TokKind::False;
    return T;
  case '\\': {
    if (atEnd())
      return makeError("lone '#\\' at end of input");
    // Read the character name: one char, or a named char like "space".
    std::string Name;
    Name.push_back(advance());
    while (!atEnd() && !isDelimiter(cur()))
      Name.push_back(advance());
    T.Kind = TokKind::Char;
    if (Name.size() == 1) {
      T.CharValue = static_cast<unsigned char>(Name[0]);
      return T;
    }
    if (Name == "space") {
      T.CharValue = ' ';
      return T;
    }
    if (Name == "newline") {
      T.CharValue = '\n';
      return T;
    }
    if (Name == "tab") {
      T.CharValue = '\t';
      return T;
    }
    return makeError(strFormat("unknown character name '#\\%s'", Name.c_str()));
  }
  default:
    return makeError(strFormat("unknown '#' syntax '#%c'", C));
  }
}

Token Lexer::lexAtom() {
  Token T;
  T.Line = Line;
  T.Column = Column;
  std::string Text;
  while (!atEnd() && !isDelimiter(cur()))
    Text.push_back(advance());
  assert(!Text.empty() && "lexAtom on a delimiter");

  if (Text == ".") {
    T.Kind = TokKind::Dot;
    return T;
  }

  // Try integer, then float, else symbol.
  const char *Begin = Text.c_str();
  char *End = nullptr;
  errno = 0;
  long long IntVal = std::strtoll(Begin, &End, 10);
  if (End == Begin + Text.size() && errno == 0) {
    T.Kind = TokKind::Fixnum;
    T.IntValue = IntVal;
    return T;
  }
  if (errno == ERANGE &&
      Text.find_first_not_of("+-0123456789") == std::string::npos)
    return makeError(strFormat("integer literal '%s' exceeds the fixnum "
                               "range",
                               Text.c_str()));
  End = nullptr;
  double FloatVal = std::strtod(Begin, &End);
  if (End == Begin + Text.size() && End != Begin &&
      Text.find_first_of("0123456789") != std::string::npos &&
      Text.find_first_not_of("+-.eE0123456789") == std::string::npos) {
    T.Kind = TokKind::Flonum;
    T.FloatValue = FloatVal;
    return T;
  }

  T.Kind = TokKind::Symbol;
  T.Text = std::move(Text);
  return T;
}
