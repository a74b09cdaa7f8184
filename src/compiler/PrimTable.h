//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of primitives shared by the compiler and the VM.
///
/// Two tiers, as in T3/ORBIT:
///  - *open-coded* primitives (car, +, eq?, ...) compile to dedicated
///    opcodes with separately emitted implicit touches, so the touch
///    optimizer can remove redundant checks;
///  - *called* primitives dispatch through Op::CallPrim and perform their
///    own internal touches (they are the "user library" tier).
///
/// Following T's "integrable procedures" convention, a primitive name is
/// compiled as a primitive unless the user program has defined or assigned
/// that global, in which case it reverts to an ordinary global call.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_COMPILER_PRIMTABLE_H
#define MULT_COMPILER_PRIMTABLE_H

#include "compiler/Bytecode.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace mult {

/// X-macro: Id, Lisp name, min arity, max arity (-1 = variadic),
/// base cycle cost.
#define MULT_PRIM_LIST(X)                                                      \
  X(List, "list", 0, -1, 4)                                                    \
  X(Append, "append", 0, -1, 6)                                                \
  X(Reverse, "reverse", 1, 1, 5)                                               \
  X(Length, "length", 1, 1, 4)                                                 \
  X(Memq, "memq", 2, 2, 4)                                                     \
  X(Member, "member", 2, 2, 5)                                                 \
  X(Assq, "assq", 2, 2, 4)                                                     \
  X(Assoc, "assoc", 2, 2, 5)                                                   \
  X(EqualP, "equal?", 2, 2, 5)                                                 \
  X(AtomP, "atom?", 1, 1, 2)                                                   \
  X(SymbolP, "symbol?", 1, 1, 2)                                               \
  X(NumberP, "number?", 1, 1, 2)                                               \
  X(StringP, "string?", 1, 1, 2)                                               \
  X(VectorP, "vector?", 1, 1, 2)                                               \
  X(BooleanP, "boolean?", 1, 1, 2)                                             \
  X(ProcedureP, "procedure?", 1, 1, 2)                                         \
  X(CharP, "char?", 1, 1, 2)                                                   \
  X(ZeroP, "zero?", 1, 1, 2)                                                   \
  X(NegativeP, "negative?", 1, 1, 2)                                           \
  X(PositiveP, "positive?", 1, 1, 2)                                           \
  X(OddP, "odd?", 1, 1, 2)                                                     \
  X(EvenP, "even?", 1, 1, 2)                                                   \
  X(Abs, "abs", 1, 1, 2)                                                       \
  X(Min, "min", 1, -1, 3)                                                      \
  X(Max, "max", 1, -1, 3)                                                      \
  X(Modulo, "modulo", 2, 2, 4)                                                 \
  X(Divide, "/", 1, -1, 6)                                                     \
  X(Get, "get", 2, 2, 5)                                                       \
  X(Put, "put", 3, 3, 6)                                                       \
  X(MakeVector, "make-vector", 1, 2, 8)                                        \
  X(VectorCtor, "vector", 0, -1, 6)                                            \
  X(ListToVector, "list->vector", 1, 1, 8)                                     \
  X(VectorToList, "vector->list", 1, 1, 8)                                     \
  X(VectorFill, "vector-fill!", 2, 2, 5)                                       \
  X(StringLength, "string-length", 1, 1, 2)                                    \
  X(StringRef, "string-ref", 2, 2, 3)                                          \
  X(StringAppend, "string-append", 0, -1, 8)                                   \
  X(StringEqualP, "string=?", 2, 2, 4)                                         \
  X(SymbolToString, "symbol->string", 1, 1, 2)                                 \
  X(StringToSymbol, "string->symbol", 1, 1, 8)                                 \
  X(NumberToString, "number->string", 1, 1, 8)                                 \
  X(CharToInteger, "char->integer", 1, 1, 2)                                   \
  X(IntegerToChar, "integer->char", 1, 1, 2)                                   \
  X(Display, "display", 1, 1, 10)                                              \
  X(WritePrim, "write", 1, 1, 10)                                              \
  X(Newline, "newline", 0, 0, 6)                                               \
  X(Random, "random", 1, 1, 6)                                                 \
  X(ErrorPrim, "error", 1, -1, 8)                                              \
  X(MakeSemaphore, "make-semaphore", 0, 1, 8)                                  \
  X(SemaphoreP, "semaphore-p", 1, 1, 6)                                        \
  X(SemaphoreV, "semaphore-v", 1, 1, 6)                                        \
  X(DynPush, "%dyn-push", 2, 2, 6)                                             \
  X(DynPop, "%dyn-pop", 0, 0, 4)                                               \
  X(DynRef, "%dyn-ref", 1, 1, 5)                                               \
  X(DynSet, "%dyn-set!", 2, 2, 5)                                              \
  X(DynDefine, "%dyn-define", 2, 2, 6)                                         \
  X(Apply, "apply", 2, 2, 6)                                                   \
  X(GcPrim, "%gc", 0, 0, 10)                                                   \
  X(FutureP, "future?", 1, 1, 1)                                               \
  X(DeterminedP, "determined?", 1, 1, 2)                                       \
  X(CurrentTask, "current-task-id", 0, 0, 2)                                   \
  X(CurrentProcessor, "current-processor", 0, 0, 2)                            \
  X(AddN, "%+", 0, -1, 3)                                                      \
  X(SubN, "%-", 1, -1, 3)                                                      \
  X(MulN, "%*", 0, -1, 3)

/// Identifiers for called primitives.
enum class PrimId : uint16_t {
#define MULT_PRIM_ENUM(Id, Name, Min, Max, Cost) Id,
  MULT_PRIM_LIST(MULT_PRIM_ENUM)
#undef MULT_PRIM_ENUM
  NumPrims
};

/// Static description of a called primitive.
struct PrimInfo {
  PrimId Id;
  const char *Name;
  int MinArgs;
  int MaxArgs; ///< -1 means variadic.
  uint32_t BaseCost;
};

/// Every called primitive's descriptor, indexed by PrimId. In the header
/// so the interpreter's per-call cost lookup is a load, not a call.
inline constexpr PrimInfo PrimInfos[] = {
#define MULT_PRIM_INFO(Id, Name, Min, Max, Cost)                               \
  {PrimId::Id, Name, Min, Max, Cost},
    MULT_PRIM_LIST(MULT_PRIM_INFO)
#undef MULT_PRIM_INFO
};

/// Returns the descriptor for \p Id.
inline const PrimInfo &primInfo(PrimId Id) {
  assert(Id < PrimId::NumPrims && "bad primitive id");
  return PrimInfos[static_cast<size_t>(Id)];
}

/// Finds a called primitive by Lisp name.
std::optional<PrimId> lookupPrim(std::string_view Name);

/// Description of an open-coded primitive (the Lisp-binding columns of a
/// MULT_OPCODES row, compiler/Bytecode.h).
struct FastOpInfo {
  Op Opcode;
  int Arity;            ///< Exact stack arity of the opcode.
  uint32_t StrictMask;  ///< Bit i set: operand i is implicitly touched.
  bool ResultNonFuture; ///< The op's own result can never be a future.
};

/// One open-coded primitive binding.
struct FastOp {
  std::string_view Name; ///< Lisp name.
  FastOpInfo Info;
  bool EtaWrapped; ///< Bound to a compiled eta-wrapper as a first-class value.
};

/// Every open-coded primitive, in opcode order.
std::span<const FastOp> fastOps();

/// Finds an open-coded primitive by Lisp name. Multi-arity arithmetic
/// (`(+ a b c)`) is folded to chains of the binary opcode by the code
/// generator.
std::optional<FastOpInfo> lookupFastOp(std::string_view Name);

} // namespace mult

#endif // MULT_COMPILER_PRIMTABLE_H
