//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the reader, printer and diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_SUPPORT_STRUTIL_H
#define MULT_SUPPORT_STRUTIL_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mult {

/// Returns a printf-style formatted std::string.
std::string strFormat(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders \p Seconds with the precision the paper's tables use: three
/// significant digits below 10, otherwise no fraction digits beyond one.
std::string formatSeconds(double Seconds);

/// Escapes \p V for use inside a JSON string literal.
std::string jsonEscape(std::string_view V);

/// True if \p S consists only of ASCII whitespace.
bool isAllWhitespace(std::string_view S);

} // namespace mult

#endif // MULT_SUPPORT_STRUTIL_H
