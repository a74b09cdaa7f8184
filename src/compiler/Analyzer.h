//===----------------------------------------------------------------------===//
///
/// \file
/// Lexical analysis: expanded datum -> core AST.
///
/// Performs scope resolution with flat-closure free-variable capture,
/// assignment detection (for box conversion), primitive integration (a la
/// T's integrable procedures), n-ary arithmetic folding, and the
/// `(future X)` -> thunk-lambda rewrite.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_COMPILER_ANALYZER_H
#define MULT_COMPILER_ANALYZER_H

#include "compiler/Ast.h"
#include "runtime/DatumBuilder.h"

#include <string>
#include <unordered_set>

namespace mult {

/// The analyzer. One instance per compiled top-level form.
class Analyzer {
public:
  /// \p NonIntegrable holds global symbols the user has defined or
  /// assigned; those names never integrate as primitives.
  explicit Analyzer(const std::unordered_set<Object *> &NonIntegrable)
      : NonIntegrable(NonIntegrable) {}

  /// Analyzes one fully expanded top-level form. On failure returns a
  /// Program with a null Top and fills \p Error.
  Program analyzeTopLevel(Value Form, std::string &Error);

private:
  struct FunctionCtx;
  struct Scope;

  AstPtr analyze(Value Form);
  AstPtr analyzeLambda(Value Params, Value Body, std::string Name);
  AstPtr analyzeLet(Value Form);
  AstPtr analyzeCall(Value Form);
  AstPtr analyzeVar(Object *Sym);
  AstPtr analyzeSet(Value Form);
  AstPtr makeFuture(Value ChildExpr);

  /// Resolves \p Sym; fills Where/Id. Returns false for globals.
  bool resolveLexical(Object *Sym, VarWhere &Where, int &Id);
  int captureInto(size_t FnLevel, int OriginBinding, Object *Sym);

  AstPtr fail(const char *Msg, Value Form);
  int newBinding(Object *Sym);

  const std::unordered_set<Object *> &NonIntegrable;
  Program Prog;
  std::string Error;
  std::vector<FunctionCtx *> FnStack;
  Scope *CurrentScope = nullptr;
  bool AtTopLevel = true;
};

} // namespace mult

#endif // MULT_COMPILER_ANALYZER_H
