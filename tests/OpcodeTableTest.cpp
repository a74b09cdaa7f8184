//===----------------------------------------------------------------------===//
///
/// \file
/// Pins of everything the opcode and superinstruction tables generate:
/// mnemonics and base costs, the fused-pair matrix and its merged flags,
/// the open-coded primitive bindings, the disassembler's operand shapes
/// and the pre-decoder's handler selection. Each pin is the FNV-1a hash
/// of a canonical rendering, so a table edit that moves any generated
/// entry (a cost, a name, a pair, an operand format) moves a pin.
///
//===----------------------------------------------------------------------===//

#include "compiler/CodeGen.h"
#include "compiler/PrimTable.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Threaded.h"

#include "TestUtil.h"

using namespace mult;
using namespace mult::testutil;

namespace {

Op opAt(size_t I) { return static_cast<Op>(I); }

TEST(OpcodeTableTest, MnemonicsAndBaseCostsArePinned) {
  std::string S = strFormat("ops=%zu fused=%zu\n", NumOpcodes, NumFusedOps);
  for (size_t I = 0; I < NumOpcodes; ++I)
    S += strFormat("%s=%llu\n", opName(opAt(I)),
                   static_cast<unsigned long long>(opBaseCost(opAt(I))));
  EXPECT_EQ(NumOpcodes, 51u);
  EXPECT_EQ(NumFusedOps, 29u);
  EXPECT_EQ(fnv1a64(S), 0x64e9f7b397851d6eULL) << S;
}

TEST(OpcodeTableTest, FusedPairMatrixIsPinned) {
  std::string S;
  for (size_t A = 0; A < NumOpcodes; ++A) {
    for (size_t B = 0; B < NumOpcodes; ++B)
      S += strFormat("%u,", static_cast<unsigned>(fusedPair(opAt(A), opAt(B))));
    S += '\n';
  }
  for (size_t F = 0; F < NumFusedOps; ++F)
    S += isMergedFusedPair(static_cast<FusedOp>(F)) ? 'M' : 'g';
  EXPECT_EQ(fnv1a64(S), 0x15c3696ed320274cULL) << S;
}

TEST(OpcodeTableTest, OpenCodedPrimitivesArePinned) {
  static const char *Names[] = {
      "+",        "-",        "*",          "quotient",    "remainder",
      "<",        "<=",       ">",          ">=",          "=",
      "eq?",      "cons",     "car",        "cdr",         "set-car!",
      "set-cdr!", "null?",    "pair?",      "not",         "vector-ref",
      "vector-set!", "vector-length"};
  std::string S;
  for (const char *Name : Names) {
    auto F = lookupFastOp(Name);
    ASSERT_TRUE(F.has_value()) << Name;
    S += strFormat("%s %s %d %u %d\n", Name, opName(F->Opcode), F->Arity,
                   F->StrictMask, F->ResultNonFuture ? 1 : 0);
  }
  EXPECT_EQ(fnv1a64(S), 0x2e1283ad23a78f4fULL) << S;
  // Called primitives, touch and unknown names are not open-coded.
  for (const char *Name : {"list", "touch", "car!", "vector", "add", ""})
    EXPECT_FALSE(lookupFastOp(Name).has_value()) << Name;
}

/// One instruction of every opcode, with operands that make each operand
/// shape visible (A=1, B=2; the constant pool holds a fixnum and a
/// symbol).
Code everyOpcode(SymbolTable &Syms) {
  Code C;
  C.Name = "every-opcode";
  C.NumParams = 2;
  C.MaxFrameWords = 9;
  C.Constants.push_back(Value::fixnum(42));
  C.Constants.push_back(Value::object(Syms.intern("g")));
  for (size_t I = 0; I < NumOpcodes; ++I)
    C.Insns.push_back(Insn{opAt(I), 1, 2});
  return C;
}

TEST(OpcodeTableTest, DisassemblyOfEveryOperandShapeIsPinned) {
  Heap H{Heap::Config{}};
  SymbolTable Syms(H);
  std::string Listing = disassemble(everyOpcode(Syms));
  EXPECT_EQ(fnv1a64(Listing), 0xe275fef7db19f267ULL) << Listing;
}

TEST(OpcodeTableTest, DecodedHandlersArePinned) {
  // Every ordered opcode pair back to back, so each slot's handler choice
  // (plain, generic pair, or yielding to a merged pair at the next slot)
  // is exercised against every neighbour. Slot costs and constant
  // payloads are part of the rendering.
  Heap H{Heap::Config{}};
  SymbolTable Syms(H);
  Code C;
  C.Constants.push_back(Value::object(Syms.intern("g")));
  for (size_t A = 0; A < NumOpcodes; ++A)
    for (size_t B = 0; B < NumOpcodes; ++B) {
      C.Insns.push_back(Insn{opAt(A), 0, 0});
      C.Insns.push_back(Insn{opAt(B), 0, 0});
    }
  const ThreadedLabels &L = threadedLabels();
  auto D = decodeCode(C, L);
  std::string S;
  for (const DInsn &DI : D->Stream) {
    size_t Fused = 0;
    for (size_t F = 1; F < NumFusedOps && !Fused; ++F)
      if (DI.Handler == L.Fused[F])
        Fused = F;
    if (!Fused) {
      EXPECT_EQ(DI.Handler, L.Base[static_cast<size_t>(DI.Opc)])
          << opName(DI.Opc);
    }
    S += strFormat("%zu/%llu/%d%d,", Fused,
                   static_cast<unsigned long long>(DI.Cost), DI.KBits != 0,
                   DI.Ptr != nullptr);
  }
  EXPECT_EQ(fnv1a64(S), 0x203a2f0f3c46b75bULL);
}

} // namespace
