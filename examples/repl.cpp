//===----------------------------------------------------------------------===//
///
/// \file
/// The interactive Mul-T REPL — the user interface of paper section 2.3.
///
/// Try:
///   mul-t> (define (fib n) (if (< n 2) n (+ (future (fib (- n 1)))
///                                           (fib (- n 2)))))
///   mul-t> (fib 20)
///   mul-t> (car 5)          ; raises: the group stops
///   mul-t[1]> :bt           ; inspect the stopped task
///   mul-t[1]> :resume 99    ; the erring (car 5) returns 99
///   mul-t> :stats
///
/// Usage: repl [processors] [inline-threshold|lazy]
///   processors defaults to 4 and must lie in [1, 256]; the MULT_*
///   variables `:help` lists configure the rest.
///
//===----------------------------------------------------------------------===//

#include "support/StrUtil.h"
#include "ui/Repl.h"

#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

using namespace mult;

/// Parses a whole argument as a count no larger than \p Max.
static bool parseArg(const char *Arg, uint64_t Max, uint64_t &V) {
  return parseU64(Arg, V) && V <= Max;
}

int main(int argc, char **argv) {
  EngineConfig Cfg;
  Cfg.NumProcessors = 4;
  uint64_t V = 0;
  if (argc > 1) {
    if (!parseArg(argv[1], ~0u, V)) {
      std::fprintf(stderr, "repl: NumProcessors '%s' is not an unsigned "
                           "count\n", argv[1]);
      return 2;
    }
    Cfg.NumProcessors = unsigned(V);
  }
  if (argc > 2) {
    if (std::string_view(argv[2]) == "lazy")
      Cfg.LazyFutures = true;
    else if (parseArg(argv[2], ~0u, V))
      Cfg.InlineThreshold = unsigned(V);
    else {
      std::fprintf(stderr, "repl: inline threshold '%s' is neither a "
                           "count nor lazy\n", argv[2]);
      return 2;
    }
  }
  std::string Err;
  if (!Cfg.validate(Err)) {
    std::fprintf(stderr, "repl: %s\n", Err.c_str());
    return 2;
  }

  Engine E(Cfg);
  FileOutStream &Out = FileOutStream::stdoutStream();
  Repl R(E, Out);

  Out << "Mul-T on a simulated " << Cfg.NumProcessors
      << "-processor Multimax";
  if (Cfg.LazyFutures)
    Out << " (lazy futures)";
  else if (Cfg.InlineThreshold)
    Out << " (inlining T=" << *Cfg.InlineThreshold << ")";
  Out << ". :help for commands, :exit to leave.\n";

  std::string Line;
  for (;;) {
    Out << R.prompt();
    Out.flush();
    if (!std::getline(std::cin, Line)) {
      R.finish();
      break;
    }
    if (!R.processLine(Line))
      break;
    Out.flush();
  }
  Out << "\n";
  return 0;
}
