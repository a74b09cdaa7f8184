//===----------------------------------------------------------------------===//
///
/// \file
/// Code generator: analyzed (and touch-optimized) AST -> bytecode, plus the
/// Compiler facade that ties reader output through expansion, analysis,
/// touch optimization and code generation.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_COMPILER_CODEGEN_H
#define MULT_COMPILER_CODEGEN_H

#include "compiler/Analyzer.h"
#include "compiler/Ast.h"
#include "compiler/Bytecode.h"
#include "compiler/Expander.h"
#include "runtime/DatumBuilder.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace mult {

/// Compilation switches. `EmitTouchChecks=false` is "T3 mode": the code is
/// compiled exactly as a sequential Lisp would compile it, with no implicit
/// touches (the baseline of Table 2).
struct CompilerOptions {
  bool EmitTouchChecks = true;
  bool OptimizeTouches = true;
  bool IntegratePrims = true;
};

/// Counters the touch-overhead experiments report (E2/E5).
struct CompileStats {
  uint64_t FormsCompiled = 0;
  uint64_t StrictPositions = 0;
  uint64_t TouchesEmitted = 0;
  uint64_t TouchesEliminated = 0;
};

/// Owns compiled code and template objects; shared across forms compiled by
/// one engine.
class CodeRegistry {
public:
  explicit CodeRegistry(Heap &H) : TheHeap(H) {}

  /// Creates an empty Code and its permanent Template object.
  Code *create(std::string Name);

  /// The template object wrapping \p C.
  Value templateFor(const Code *C) const;

  size_t size() const { return Codes.size(); }
  const Code *at(size_t I) const { return Codes[I].get(); }

private:
  Heap &TheHeap;
  std::vector<std::unique_ptr<Code>> Codes;
  std::vector<Value> Templates; ///< Parallel to Codes.
};

/// Generates bytecode for \p P. Returns the top-level nullary Code.
Code *generateCode(Program &P, CodeRegistry &Registry,
                   const CompilerOptions &Opts, CompileStats &Stats);

/// Superinstruction selection for the threaded interpreter: the fused
/// handler for the adjacent pair (\p First, \p Second), or FusedOp::None.
/// Driven by MULT_FUSED_OPS (Bytecode.h), the pairs that carry
/// measurable dispatch traffic; purely a host-speed decision, never
/// affects virtual time.
FusedOp fusedPair(Op First, Op Second);

/// The end-to-end compiler facade.
class Compiler {
public:
  Compiler(DatumBuilder &B, CodeRegistry &Registry,
           const CompilerOptions &Opts)
      : B(B), Registry(Registry), Opts(Opts), Exp(B) {}

  struct Result {
    Code *TopCode = nullptr;
    std::string Error;
    bool ok() const { return TopCode != nullptr; }
  };

  /// Compiles one top-level datum.
  Result compile(Value Datum);

  /// Registers the names defined by the given top-level forms before
  /// compiling them, so a user-defined `reverse` (say) is not integrated as
  /// the primitive even in forms that precede the define.
  void prescanDefines(const std::vector<Value> &Forms);

  /// Marks \p Sym as user-defined (never integrate it as a primitive).
  void noteUserGlobal(Object *Sym) { NonIntegrable.insert(Sym); }

  const CompileStats &stats() const { return Stats; }
  void resetStats() { Stats = CompileStats(); }
  CompilerOptions &options() { return Opts; }

private:
  /// Records Define/global-SetVar targets of \p N into NonIntegrable.
  void collectUserGlobals(const AstNode *N);

  DatumBuilder &B;
  CodeRegistry &Registry;
  CompilerOptions Opts;
  Expander Exp;
  std::unordered_set<Object *> NonIntegrable;
  CompileStats Stats;
};

} // namespace mult

#endif // MULT_COMPILER_CODEGEN_H
