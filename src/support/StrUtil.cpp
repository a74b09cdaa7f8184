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
