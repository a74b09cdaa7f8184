//===----------------------------------------------------------------------===//
///
/// \file
/// Threaded-code pre-decoder for the direct-threaded interpreter.
///
/// Each Code is translated once into a stream of DInsn slots carrying the
/// computed-goto handler address, the pre-folded base cost, flattened
/// operands, and inline-cache slots. The decoded stream is cached on the
/// Code (Code::Decoded) and never invalidated — bytecode is immutable
/// after codegen.
///
/// The layout is deliberately 1:1 with the bytecode: Stream[pc] decodes
/// Insns[pc], so Task::Pc is simultaneously the bytecode cursor and the
/// threaded cursor. Jump targets, blocked-instruction restarts and
/// checkpoint snapshots therefore need no pc translation, and a fused
/// superinstruction keeps its second half's ordinary slot intact (control
/// that jumps into the middle of a pair just runs the plain handler).
///
/// The hard invariant ("virtual cycles are sacred"): every device in this
/// file — pre-folded costs, inline caches, fusion — is host-speed only.
/// Virtual cycles come from the cost table; the goldens and the pinned
/// run fingerprints (tests/DispatchParityTest.cpp) hold them fixed. See
/// DESIGN.md, "Dispatch".
///
//===----------------------------------------------------------------------===//

#ifndef MULT_THREADED_H
#define MULT_THREADED_H

#include "compiler/Bytecode.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

/// The interpreter dispatches through computed goto (GNU "labels as
/// values"); the handlers also use GNU overflow builtins.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the Mul-T interpreter needs a compiler with labels-as-values"
#endif

namespace mult {

class Object;

/// One pre-decoded instruction slot. Mutable at run time: the Call/TailCall
/// inline cache writes itself into KBits/Ptr on a miss.
struct DInsn {
  /// Handler address (&&label inside the threaded interpreter), possibly a
  /// fused-pair handler when this slot heads a fusible pair.
  const void *Handler = nullptr;
  /// Per-opcode payload:
  ///  - Const/Closure: raw bits of Constants[A] (constants are permanent,
  ///    so the bits never need a GC remap);
  ///  - Call/TailCall: inline-cache key — raw bits of the last-seen closure
  ///    value (weak; Engine::remapWeakCaches patches it across GC copies).
  uint64_t KBits = 0;
  /// Per-opcode pointer payload:
  ///  - GlobalRef/GlobalSet/GlobalDefine: the resolved global cell, i.e.
  ///    the symbol Object whose slot holds the global value (symbols are
  ///    permanent, so the pointer is GC-stable);
  ///  - Call/TailCall: inline-cached callee Code (Codes never move).
  void *Ptr = nullptr;
  /// Pre-folded base cost (OpBaseCostTable[Opc]).
  uint64_t Cost = 0;
  int32_t A = 0;
  int32_t B = 0;
  /// The original opcode; handlers shared between several opcodes (Add/Sub/
  /// Mul, the compares, Call/TailCall) re-read it from here.
  Op Opc{};
};

/// The threaded translation of one Code, cached via Code::Decoded and owned
/// by the Engine's decoded pool.
struct DecodedCode {
  const Code *Source = nullptr;
  std::vector<DInsn> Stream; ///< Parallel to Source->Insns.
};

/// Handler address tables exported by the threaded interpreter, indexed by
/// Op and FusedOp. Base covers every opcode; Fused[None] is null.
struct ThreadedLabels {
  std::array<const void *, NumOpcodes> Base{};
  std::array<const void *, NumFusedOps> Fused{};
};

/// The handler table of the threaded interpreter.
const ThreadedLabels &threadedLabels();

/// Translates \p C into a threaded stream using handler table \p L. Pure:
/// does not publish the result into C.Decoded (the Engine's ensureDecoded
/// does, because the Engine owns the decoded pool's lifetime).
std::unique_ptr<DecodedCode> decodeCode(const Code &C,
                                        const ThreadedLabels &L);

} // namespace mult

#endif // MULT_THREADED_H
