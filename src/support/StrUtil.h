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
#include <vector>

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

/// \p S without leading and trailing characters of \p Chars.
std::string_view trim(std::string_view S, std::string_view Chars = " \t");

/// Parses \p S as a decimal that fits in 64 bits. False when \p S is
/// empty, holds a non-digit or overflows.
bool parseU64(std::string_view S, uint64_t &Out);

/// Splits \p S at every character of \p Seps, keeping empty fields.
std::vector<std::string_view> splitAny(std::string_view S,
                                       std::string_view Seps);

} // namespace mult

#endif // MULT_SUPPORT_STRUTIL_H
