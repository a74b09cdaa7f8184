//===----------------------------------------------------------------------===//
///
/// \file
/// Threaded-code pre-decoder implementation. The handler tables themselves
/// live in Interpreter.cpp (labels are only addressable from inside the
/// interpreter function); this file is the Code -> DInsn stream translation.
///
//===----------------------------------------------------------------------===//

#include "vm/Threaded.h"

#include "compiler/CodeGen.h"
#include "vm/CostModel.h"

using namespace mult;

std::unique_ptr<DecodedCode> mult::decodeCode(const Code &C,
                                              const ThreadedLabels &L) {
  auto D = std::make_unique<DecodedCode>();
  D->Source = &C;
  const size_t N = C.Insns.size();
  D->Stream.resize(N);
  for (size_t I = 0; I < N; ++I) {
    const Insn &In = C.Insns[I];
    DInsn &DI = D->Stream[I];
    DI.Opc = In.Opcode;
    DI.A = In.A;
    DI.B = In.B;
    DI.Cost = OpBaseCostTable[static_cast<size_t>(In.Opcode)];
    switch (opShape(In.Opcode)) {
    case OperandShape::Const:
    case OperandShape::Closure:
      // Constants are permanent objects or immediates; raw bits are stable.
      DI.KBits = C.Constants[static_cast<size_t>(In.A)].bits();
      break;
    case OperandShape::Global:
      // The global cell is a slot of the (permanent) symbol; caching the
      // symbol pointer removes the constant-pool indirection per access.
      DI.Ptr = C.Constants[static_cast<size_t>(In.A)].asObject();
      break;
    default:
      break; // Call/TailCall inline caches start empty (KBits/Ptr zero).
    }
    // Superinstruction fusion: a slot that heads one of the fusible pairs
    // gets the fused handler; its second half keeps its own ordinary slot
    // so jumps into the middle of the pair (and quantum-boundary restarts
    // between the halves) stay trivially correct.
    FusedOp F = I + 1 < N ? fusedPair(In.Opcode, C.Insns[I + 1].Opcode)
                          : FusedOp::None;
    // Priority: a generic pair at I only saves the dispatch between the
    // halves, but it would skip slot I+1's own handler — and if I+1 heads
    // a *merged* pair (whose fast path folds the whole second instruction
    // away), that is the better fusion. Leave I plain so execution flows
    // into the merged pair.
    if (F != FusedOp::None && !isMergedFusedPair(F) && I + 2 < N &&
        isMergedFusedPair(fusedPair(C.Insns[I + 1].Opcode,
                                    C.Insns[I + 2].Opcode)))
      F = FusedOp::None;
    DI.Handler = F != FusedOp::None ? L.Fused[static_cast<size_t>(F)]
                                    : L.Base[static_cast<size_t>(In.Opcode)];
  }
  return D;
}
