//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the Mul-T test suite.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_TESTS_TESTUTIL_H
#define MULT_TESTS_TESTUTIL_H

#include "core/Engine.h"
#include "runtime/Printer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

namespace mult {
namespace testutil {

inline EngineConfig config(unsigned Procs = 1) {
  EngineConfig C;
  C.NumProcessors = Procs;
  // Keep tests fast to diagnose if something spins.
  C.MaxRunCycles = 500'000'000;
  return C;
}

/// Evaluates \p Src expecting success.
inline Value evalOk(Engine &E, std::string_view Src) {
  EvalResult R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << "error `" << R.Error << "` evaluating: " << Src;
  return R.Val;
}

/// Evaluates \p Src expecting a fixnum result.
inline int64_t evalFixnum(Engine &E, std::string_view Src) {
  Value V = evalOk(E, Src);
  EXPECT_TRUE(V.isFixnum()) << "non-fixnum result " << valueToString(V)
                            << " for: " << Src;
  return V.isFixnum() ? V.asFixnum() : 0;
}

/// Evaluates \p Src and renders the result with `write`.
inline std::string evalPrint(Engine &E, std::string_view Src) {
  return valueToString(evalOk(E, Src));
}

/// Evaluates \p Src expecting a specific failure kind; returns the message.
inline std::string evalErr(Engine &E, std::string_view Src,
                           EvalResult::Kind Kind) {
  EvalResult R = E.eval(Src);
  EXPECT_EQ(static_cast<int>(R.K), static_cast<int>(Kind))
      << "for: " << Src << " (got `" << R.Error << "`)";
  return R.Error;
}

/// 64-bit FNV-1a of \p S: the hash the pinned-output tests record.
inline uint64_t fnv1a64(std::string_view S) {
  uint64_t H = 14695981039346656037ULL;
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace testutil
} // namespace mult

#endif // MULT_TESTS_TESTUTIL_H
