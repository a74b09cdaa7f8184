//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode for the Mul-T abstract machine.
///
/// The ORBIT compiler produced NS32332 native code; we target a compact
/// register-free stack bytecode whose per-opcode costs are calibrated in
/// abstract NS32332 instructions (vm/CostModel.h), so the paper's
/// instruction-count results (Table 1) and second-denominated results
/// (Tables 2-4, at ~1 MIPS) can both be reproduced.
///
/// Cost-relevant design points demanded by the paper (section 2.2):
///  - every procedure entry performs an explicit stack-overflow check
///    (many small task stacks under Unix), charged two instructions;
///  - an implicit touch is its own instruction costing two (tbit + beq);
///    the touch optimizer removes provably redundant ones;
///  - `(future X)` compiles to closure creation + the FutureOp runtime
///    call, i.e. `(*future (lambda () X))`.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_COMPILER_BYTECODE_H
#define MULT_COMPILER_BYTECODE_H

#include "runtime/Value.h"

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace mult {

/// How an instruction's operands read. Drives the disassembler and the
/// threaded pre-decoder's constant and global payloads.
enum class OperandShape : uint8_t {
  None,    ///< no operand
  A,       ///< A alone: a count, frame slot, jump target or PrimId
  Const,   ///< A indexes the constant pool
  Global,  ///< A indexes the symbol whose value slot is the global cell
  Closure, ///< A indexes the template constant, B is the free count
  Slot,    ///< A is a stack depth, B the frame slot written back
  Argc,    ///< A is a PrimId, B the argument count
};

/// The opcode table: one row per opcode of the abstract machine, in
/// enum order.
///
///   X(name, mnemonic, cost, shape)
///   X(name, mnemonic, cost, shape, lisp, arity, strict, nonfuture, eta)
///
/// `cost` names a cost:: constant; only vm/CostModel.h expands it, so
/// compiler/ does not depend on vm/. `shape` is an OperandShape. Open-coded
/// primitives carry five more columns: their Lisp name, exact stack arity,
/// strict mask (bit i set: operand i, 0 = pushed first, is implicitly
/// touched; storing operations are non-strict in the stored value, per
/// paper section 1.1), whether the result can never be a future, and
/// whether the name is bound to a compiled eta-wrapper so it works as a
/// first-class value (+ - * bind to variadic wrappers instead). Touches
/// are emitted as separate instructions so the touch optimizer can remove
/// them.
///
/// The table generates Op, opName, opShape, OpBaseCostTable, the threaded
/// handler labels, lookupFastOp and the eta-wrapper list. Adding an opcode
/// is one row here plus one handler in vm/InterpBody.inc.
#define MULT_OPCODES(X)                                                        \
  /* Pushes. */                                                                \
  X(Const, "const", Push, Const) /* push Constants[A] */                       \
  X(PushFixnum, "push-fixnum", Push, A) /* push fixnum A */                    \
  X(PushNil, "push-nil", Push, None)                                           \
  X(PushTrue, "push-true", Push, None)                                         \
  X(PushFalse, "push-false", Push, None)                                       \
  X(PushUnspecified, "push-unspecified", Push, None)                           \
  /* Push frame slot A (0 = the closure itself, 1 = first arg). */             \
  X(Local, "local", LocalLoad, A)                                              \
  /* Pop into frame slot A (entry prologue boxing). */                         \
  X(SetLocal, "set-local", LocalLoad, A)                                       \
  /* Pop result, drop A slots beneath, re-push (ends a let). */                \
  X(Slide, "slide", Slide, A)                                                  \
  X(Free, "free", FreeLoad, A) /* push captured value A */                     \
  X(Pop, "pop", Pop, None)                                                     \
  /* Boxes (assignment-converted variables). BoxSet pops the value and the     \
     box, stores, and pushes unspecified. */                                   \
  X(MakeBox, "make-box", MakeBoxBase, None) /* top = new box(top) */           \
  X(BoxRef, "box-ref", BoxRef, None)        /* top = unbox(top) */             \
  X(BoxSet, "box-set", BoxSet, None)                                           \
  /* Globals: the value cell lives in the symbol Constants[A]. GlobalRef       \
     errs if unbound, GlobalSet (set!) requires a binding, GlobalDefine may    \
     create one. */                                                            \
  X(GlobalRef, "global-ref", GlobalRef, Global)                                \
  X(GlobalSet, "global-set", GlobalSet, Global)                                \
  X(GlobalDefine, "global-define", GlobalSet, Global)                          \
  /* Control. Call's stack is [... fn a1..aA]; TailCall reuses the frame;      \
     JumpIfFalse pops (the test was touched separately). */                    \
  X(Closure, "closure", ClosureBase, Closure)                                  \
  X(Jump, "jump", Jump, A)                                                     \
  X(JumpIfFalse, "jump-if-false", JumpIfFalse, A)                              \
  X(Call, "call", Call, A)                                                     \
  X(TailCall, "tail-call", TailCall, A)                                        \
  X(Return, "return", Return, None) /* pop result, pop frame */                \
  /* Futures (the paper's core). Touches act in place and may block the        \
     task: TouchStack on stack[top-A], TouchLocal on frame slot A (then        \
     pushes it), TouchBack on stack[top-A] and stores it to slot B, which      \
     keeps the touch optimizer's facts true. FutureOp pops a thunk closure     \
     and creates, inlines or lazily creates a task. */                         \
  X(TouchStack, "touch-stack", Touch, A)                                       \
  X(TouchLocal, "touch-local", Touch, A)                                       \
  X(TouchBack, "touch-back", Touch, Slot)                                      \
  X(FutureOp, "future", FutureEntry, None)                                     \
  /* Open-coded strict primitives. */                                          \
  X(Add, "add", Arith, None, "+", 2, 0b11, true, false)                        \
  X(Sub, "sub", Arith, None, "-", 2, 0b11, true, false)                        \
  X(Mul, "mul", Arith, None, "*", 2, 0b11, true, false)                        \
  X(Quotient, "quotient", Arith, None, "quotient", 2, 0b11, true, true)        \
  X(Remainder, "remainder", Arith, None, "remainder", 2, 0b11, true, true)     \
  X(NumLt, "lt", Compare, None, "<", 2, 0b11, true, true)                      \
  X(NumLe, "le", Compare, None, "<=", 2, 0b11, true, true)                     \
  X(NumGt, "gt", Compare, None, ">", 2, 0b11, true, true)                      \
  X(NumGe, "ge", Compare, None, ">=", 2, 0b11, true, true)                     \
  X(NumEq, "num-eq", Compare, None, "=", 2, 0b11, true, true)                  \
  X(Eq, "eq", Compare, None, "eq?", 2, 0b11, true, true) /* identity */        \
  X(Cons, "cons", ConsBase, None, "cons", 2, 0b00, true, true)                 \
  X(Car, "car", CarCdr, None, "car", 1, 0b1, false, true)                      \
  X(Cdr, "cdr", CarCdr, None, "cdr", 1, 0b1, false, true)                      \
  X(SetCar, "set-car", SetCarCdr, None, "set-car!", 2, 0b01, true, true)       \
  X(SetCdr, "set-cdr", SetCarCdr, None, "set-cdr!", 2, 0b01, true, true)       \
  X(NullP, "null?", Predicate, None, "null?", 1, 0b1, true, true)              \
  X(PairP, "pair?", Predicate, None, "pair?", 1, 0b1, true, true)              \
  X(Not, "not", Predicate, None, "not", 1, 0b1, true, true)                    \
  X(VectorRef, "vector-ref", VectorRef, None,                                  \
    "vector-ref", 2, 0b11, false, true)                                        \
  X(VectorSet, "vector-set", VectorSet, None,                                  \
    "vector-set!", 3, 0b011, true, true)                                       \
  X(VectorLength, "vector-length", VectorLen, None,                            \
    "vector-length", 1, 0b1, true, true)                                       \
  /* Everything else. CallPrim's arguments are on the stack with no fn         \
     slot. PrimApplyVar is the body of a variadic primitive wrapper: it        \
     applies prim A to however many arguments this frame has. */               \
  X(CallPrim, "call-prim", CallPrimBase, Argc)                                 \
  X(PrimApplyVar, "prim-apply-var", CallPrimBase, A)

/// Opcodes of the abstract machine.
enum class Op : uint8_t {
#define X(NAME, ...) NAME,
  MULT_OPCODES(X)
#undef X
};

/// The mnemonic and operand shape of every opcode, indexed by Op.
struct OpInfo {
  const char *Mnemonic;
  OperandShape Shape;
};
inline constexpr OpInfo OpInfos[] = {
#define X(NAME, MNEMONIC, COST, SHAPE, ...) {MNEMONIC, OperandShape::SHAPE},
    MULT_OPCODES(X)
#undef X
};

/// Number of opcodes; per-opcode tables (base costs, threaded handlers)
/// are indexed by static_cast<size_t>(Op).
inline constexpr size_t NumOpcodes = std::size(OpInfos);

/// Returns the mnemonic for \p O. Out of line: the interpreter's error
/// paths call it, and an inlined copy would perturb the hot handlers'
/// register allocation.
const char *opName(Op O);

/// The operand shape of \p O.
inline constexpr OperandShape opShape(Op O) {
  return OpInfos[static_cast<size_t>(O)].Shape;
}

/// The superinstruction table: one row per fused handler of the threaded
/// interpreter (vm/Threaded.h), in FusedOp order.
///
///   X(name, merged, head, second...)
///
/// The pre-decoder collapses an adjacent (head, second) pair into the
/// fused handler. A row lists more than one second when one handler
/// serves several: the `_Call` rows cover Call and TailCall, and the tail
/// handler re-reads the real opcode from the decoded slot. Fusion is a
/// pure host-speed device: a fused handler charges, counts and executes
/// exactly what the two constituent instructions would, including the
/// quantum check between them, so the table never affects virtual time.
/// Every head can stop cleanly between the two halves. The set is the
/// pairs that reach at least 0.5% of dispatches on some benchmark
/// workload (EXPERIMENTS.md, "Superinstruction traffic").
///
/// Generic pairs (merged = false) execute the head, then jump straight to
/// the second handler with no indirect dispatch between the halves. Touch
/// heads keep the blocked/GC restart behavior of the plain handlers (the
/// head returns before advancing Pc, so a restart re-enters the touch
/// exactly as unfused code would). Add_Return's Add is a fallible head:
/// its fast path jumps straight to Return, and every slow path (flonum,
/// overflow, error, GC) bails to the plain Add with the stack untouched.
///
/// Merged pairs (merged = true): the fixnum fast path of the arithmetic/
/// compare second skips the intermediate push entirely (slow paths
/// materialize it and fall back to the generic second handler), and a
/// compare feeding JumpIfFalse branches on the host flag without ever
/// materializing the boolean (a quantum boundary between the halves
/// re-creates it). The pre-decoder prefers a merged pair starting at slot
/// I+1 over a generic pair starting at slot I.
///
/// The table generates FusedOp, isMergedFusedPair, fusedPair's pair index
/// (compiler/CodeGen.cpp) and the fused handler labels.
#define MULT_FUSED_OPS(X)                                                      \
  /* Generic: a push or touch head falling into its consumer (codegen          \
     emits TouchBack before the arith that consumes the variable, and          \
     TouchStack right before calls). */                                        \
  X(Const_CallPrim, false, Const, CallPrim)                                    \
  X(Local_Local, false, Local, Local)                                          \
  X(Local_PushFixnum, false, Local, PushFixnum)                                \
  X(Local_TouchStack, false, Local, TouchStack)                                \
  X(Local_Return, false, Local, Return)                                        \
  X(Local_Call, false, Local, Call, TailCall)                                  \
  X(Local_CallPrim, false, Local, CallPrim)                                    \
  X(Local_Free, false, Local, Free)                                            \
  X(PushFixnum_Return, false, PushFixnum, Return)                              \
  X(PushFixnum_Local, false, PushFixnum, Local)                                \
  X(Free_BoxRef, false, Free, BoxRef)                                          \
  X(TouchBack_Add, false, TouchBack, Add)                                      \
  X(TouchBack_Call, false, TouchBack, Call, TailCall)                          \
  X(TouchBack_TouchStack, false, TouchBack, TouchStack)                        \
  X(TouchStack_Call, false, TouchStack, Call, TailCall)                        \
  X(TouchStack_TouchStack, false, TouchStack, TouchStack)                      \
  X(TouchStack_Add, false, TouchStack, Add)                                    \
  X(Add_Return, false, Add, Return)                                            \
  /* Merged; the compare-and-branch rows serve every `if` in generated         \
     code. */                                                                  \
  X(PushFixnum_Add, true, PushFixnum, Add)                                     \
  X(PushFixnum_Sub, true, PushFixnum, Sub)                                     \
  X(PushFixnum_NumEq, true, PushFixnum, NumEq)                                 \
  X(Local_Sub, true, Local, Sub)                                               \
  X(Local_Mul, true, Local, Mul)                                               \
  X(NumLt_JumpIfFalse, true, NumLt, JumpIfFalse)                               \
  X(NumGt_JumpIfFalse, true, NumGt, JumpIfFalse)                               \
  X(NumEq_JumpIfFalse, true, NumEq, JumpIfFalse)                               \
  X(Eq_JumpIfFalse, true, Eq, JumpIfFalse)                                     \
  X(NullP_JumpIfFalse, true, NullP, JumpIfFalse)

/// Superinstructions of the threaded interpreter; None marks a slot that
/// heads no fused pair.
enum class FusedOp : uint8_t {
  None = 0,
#define X(NAME, ...) NAME,
  MULT_FUSED_OPS(X)
#undef X
};

/// The merged column of MULT_FUSED_OPS, indexed by FusedOp.
inline constexpr bool FusedMerged[] = {
    false, // FusedOp::None
#define X(NAME, MERGED, ...) MERGED,
    MULT_FUSED_OPS(X)
#undef X
};

/// Number of fused superinstructions (including the None sentinel).
inline constexpr size_t NumFusedOps = std::size(FusedMerged);

/// True for the merged arithmetic/compare/branch pairs, whose fast path
/// folds the whole second instruction away (not just the dispatch between
/// the halves).
inline constexpr bool isMergedFusedPair(FusedOp F) {
  return FusedMerged[static_cast<size_t>(F)];
}

struct DecodedCode; // vm/Threaded.h; cached on Code below.

/// One instruction. A fixed-width three-word encoding keeps decode trivial;
/// the *cost* charged per instruction is the calibrated NS32332 figure, not
/// the host footprint.
struct Insn {
  Op Opcode;
  int32_t A = 0;
  int32_t B = 0;
};

/// A compiled procedure template.
struct Code {
  std::string Name;                ///< For backtraces and disassembly.
  uint32_t NumParams = 0;
  /// Accepts any argument count (variadic primitive wrappers).
  bool Variadic = false;
  std::vector<Insn> Insns;
  std::vector<Value> Constants;    ///< Permanent data; templates for Closure.
  /// Conservative bound on frame + operand stack words, used by the
  /// procedure-entry stack-overflow check.
  uint32_t MaxFrameWords = 0;
  /// Threaded-code cache (vm/Threaded.h), filled on first entry under the
  /// threaded dispatcher and never invalidated: bytecode is immutable after
  /// codegen. Owned by the Engine's decoded pool (which dies with the
  /// CodeRegistry that owns this Code), not by the Code itself.
  mutable DecodedCode *Decoded = nullptr;
};

/// Renders \p C as an assembly-style listing (tests, REPL's :disassemble).
std::string disassemble(const Code &C);

} // namespace mult

#endif // MULT_COMPILER_BYTECODE_H
