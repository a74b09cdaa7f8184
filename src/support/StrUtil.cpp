//===----------------------------------------------------------------------===//
///
/// \file
/// StrUtil implementation.
///
//===----------------------------------------------------------------------===//

#include "support/StrUtil.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

using namespace mult;

std::string mult::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out(static_cast<size_t>(Len), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

std::string mult::formatSeconds(double Seconds) {
  if (Seconds < 10.0)
    return strFormat("%.2f", Seconds);
  if (Seconds < 100.0)
    return strFormat("%.1f", Seconds);
  return strFormat("%.0f", Seconds);
}

bool mult::isAllWhitespace(std::string_view S) {
  for (char C : S)
    if (!std::isspace(static_cast<unsigned char>(C)))
      return false;
  return true;
}

std::string mult::jsonEscape(std::string_view V) {
  std::string Out;
  for (char C : V) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

std::string_view mult::trim(std::string_view S, std::string_view Chars) {
  size_t Begin = S.find_first_not_of(Chars);
  if (Begin == std::string_view::npos)
    return S.substr(S.size());
  return S.substr(Begin, S.find_last_not_of(Chars) - Begin + 1);
}

bool mult::parseU64(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = uint64_t(C - '0');
    if (V > (~0ull - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

std::vector<std::string_view> mult::splitAny(std::string_view S,
                                             std::string_view Seps) {
  std::vector<std::string_view> Parts;
  for (size_t Pos = 0;;) {
    size_t Next = S.find_first_of(Seps, Pos);
    if (Next == std::string_view::npos) {
      Parts.push_back(S.substr(Pos));
      return Parts;
    }
    Parts.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
}
