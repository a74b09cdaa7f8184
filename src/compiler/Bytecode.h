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
#include <string>
#include <vector>

namespace mult {

/// Opcodes of the abstract machine.
enum class Op : uint8_t {
  // Pushes.
  Const,       ///< push Constants[A]
  PushFixnum,  ///< push fixnum A
  PushNil,
  PushTrue,
  PushFalse,
  PushUnspecified,
  Local,       ///< push frame slot A (0 = the closure itself, 1 = first arg)
  SetLocal,    ///< pop into frame slot A (entry prologue boxing)
  Slide,       ///< pop result, drop A slots beneath, re-push (ends a let)
  Free,        ///< push current closure's captured value A
  Pop,         ///< drop top of stack

  // Boxes (assignment-converted variables).
  MakeBox,     ///< top = new box(top)
  BoxRef,      ///< top = unbox(top)
  BoxSet,      ///< pop value, pop box, box := value, push unspecified

  // Globals (value cell lives in the symbol, Constants[A]).
  GlobalRef,   ///< push global value; error if unbound
  GlobalSet,   ///< pop value into global cell (set! requires bound)
  GlobalDefine,///< pop value into global cell (define; may create)

  // Control.
  Closure,     ///< A = template constant index, B = free count (popped)
  Jump,        ///< pc = A
  JumpIfFalse, ///< pop; if #f, pc = A  (the test was touched separately)
  Call,        ///< A = argc; stack: [... fn a1..aA]
  TailCall,    ///< A = argc; reuse current frame
  Return,      ///< pop result, pop frame

  // Futures (the paper's core).
  TouchStack,  ///< touch stack[top-A] in place; may block the task
  TouchLocal,  ///< touch frame slot A in place, then push it; may block
  TouchBack,   ///< touch stack[top-A] in place AND store it to slot B
               ///< (write-back keeps the touch optimizer's facts true)
  FutureOp,    ///< pop thunk closure; create/inline/lazy-create a task

  // Open-coded strict primitives (touches are emitted separately so the
  // touch optimizer can remove them).
  Add, Sub, Mul, Quotient, Remainder,
  NumLt, NumLe, NumGt, NumGe, NumEq,
  Eq,          ///< eq? — pointer/bits identity (both operands touched)
  Cons, Car, Cdr, SetCar, SetCdr,
  NullP, PairP, Not,
  VectorRef, VectorSet, VectorLength,

  // Everything else.
  CallPrim,    ///< A = PrimId, B = argc; args on stack (no fn slot)
  PrimApplyVar,///< body of a variadic primitive wrapper: apply prim A to
               ///< this frame's arguments, however many there are
};

/// Number of opcodes; sized so per-opcode tables (base costs, threaded
/// dispatch handlers) can be indexed by static_cast<size_t>(Op).
inline constexpr size_t NumOpcodes = static_cast<size_t>(Op::PrimApplyVar) + 1;

/// Returns the mnemonic for \p O.
const char *opName(Op O);

/// Superinstructions of the threaded interpreter (vm/Threaded.h): adjacent
/// opcode pairs the pre-decoder collapses into one fused handler. Fusion is
/// a pure host-speed device — a fused handler charges, counts and executes
/// exactly what the two constituent instructions would, including the
/// quantum check between them — so the selection table (compiler/CodeGen.cpp,
/// fusedPair) never affects virtual time. Every head can stop cleanly
/// between the two halves. `X_Call` entries cover both Call and TailCall
/// seconds; the tail handler re-reads the real opcode from the decoded slot.
/// The set is the pairs that reach at least 0.5% of dispatches on some
/// benchmark workload (EXPERIMENTS.md, "Superinstruction traffic").
enum class FusedOp : uint8_t {
  None = 0,
  // Generic pairs: execute the head, then jump straight to the second
  // handler (no indirect dispatch between the halves). Touch heads keep
  // the blocked/GC restart behavior of the plain handlers (the head
  // returns before advancing Pc, so a restart re-enters the touch exactly
  // as unfused code would). Add_Return's Add is a fallible head: its fast
  // path jumps straight to Return, every slow path (flonum, overflow,
  // error, GC) bails to the plain Add with the stack untouched.
  Const_CallPrim,
  Local_Local,
  Local_PushFixnum,
  Local_TouchStack,
  Local_Return,
  Local_Call,
  Local_CallPrim,
  Local_Free,
  PushFixnum_Return,
  PushFixnum_Local,
  Free_BoxRef,
  TouchBack_Add,
  TouchBack_Call,
  TouchBack_TouchStack,
  TouchStack_Call,
  TouchStack_TouchStack,
  TouchStack_Add,
  Add_Return,
  // Merged pairs: the fixnum fast path of the arithmetic/compare second
  // skips the intermediate push entirely (slow paths materialize it and
  // fall back to the generic second handler), and a compare feeding
  // JumpIfFalse branches on the host flag without ever materializing the
  // boolean (a quantum boundary between the halves re-creates it).
  PushFixnum_Add,
  PushFixnum_Sub,
  PushFixnum_NumEq,
  Local_Sub,
  Local_Mul,
  NumLt_JumpIfFalse,
  NumGt_JumpIfFalse,
  NumEq_JumpIfFalse,
  Eq_JumpIfFalse,
  NullP_JumpIfFalse,
};

/// Number of fused superinstructions (including the None sentinel).
inline constexpr size_t NumFusedOps =
    static_cast<size_t>(FusedOp::NullP_JumpIfFalse) + 1;

/// True for the merged arithmetic/compare/branch pairs, whose fast path
/// folds the whole second instruction away (not just the dispatch between
/// the halves). The pre-decoder prefers a merged pair starting at slot I+1
/// over a generic pair starting at slot I.
inline constexpr bool isMergedFusedPair(FusedOp F) {
  return F >= FusedOp::PushFixnum_Add;
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
