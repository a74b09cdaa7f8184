//===----------------------------------------------------------------------===//
///
/// \file
/// The group-aware read-eval-print loop (paper section 2.3).
///
/// Each typed expression runs as its own group. On an exception the group
/// stops and the REPL enters breakloop mode: the usual debugging commands
/// apply by default to the *current task* of the *current group*, but any
/// stopped group can be inspected, resumed (in any order!) or killed —
/// exactly the departure from one-breakloop-per-task that the paper
/// advocates.
///
/// Commands: ordinary Mul-T expressions evaluate; lines starting with ':'
/// (or ',', T-style) are REPL commands (:help lists them).
///
//===----------------------------------------------------------------------===//

#ifndef MULT_UI_REPL_H
#define MULT_UI_REPL_H

#include "core/Engine.h"

#include <string>
#include <string_view>

namespace mult {

/// The REPL driver. I/O-agnostic: callers feed lines and render output.
class Repl {
public:
  Repl(Engine &E, OutStream &Out) : E(E), Out(Out) {}

  /// Handles one input line. Returns false when the user asked to exit.
  /// A line that leaves a form open is held until a later line completes
  /// it; commands are recognised only outside an open form.
  bool processLine(std::string_view Line);
  /// Ends the input: a form still open reports its read error.
  void finish();

  /// The prompt reflecting breakloop depth: "mul-t>" at top level,
  /// "mul-t[2]>" inside two stopped groups, "...>" inside an open form.
  std::string prompt() const;

private:
  /// Evaluates the held source and prints the result, unless the source
  /// is an incomplete form and \p AtEnd is false.
  void evalAndPrint(bool AtEnd);
  void cmdHelp();
  void cmdGroups();
  void cmdTasks(std::string_view Arg);
  void cmdBacktrace();
  void cmdResume(std::string_view Arg);
  void cmdKill(std::string_view Arg);
  void cmdStats();
  void cmdHisto(std::string_view Arg);
  void cmdProcs();
  void cmdRaces();
  void cmdTrace(std::string_view Arg);
  void cmdProfile(std::string_view Arg);
  void cmdFaults(std::string_view Arg);
  void cmdQuota(std::string_view Arg);
  void cmdSupervise(std::string_view Arg);

  Engine &E;
  OutStream &Out;
  std::string Pending; ///< source read so far of the current form
};

} // namespace mult

#endif // MULT_UI_REPL_H
