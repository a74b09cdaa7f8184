//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode-level tests: disassembly, compiled-code shape, cost-model
/// coverage, the compiler facade's bookkeeping, and superinstruction
/// selection by the threaded-code pre-decoder.
///
//===----------------------------------------------------------------------===//

#include "compiler/CodeGen.h"
#include "reader/Reader.h"
#include "vm/CostModel.h"
#include "vm/Threaded.h"

#include <set>

#include "TestUtil.h"

using namespace mult;
using namespace mult::testutil;

namespace {

/// Compiles one form with default options; returns the whole listing.
/// The Code objects die with compileOne's registry, so anything a test
/// needs from them is copied out here rather than returned by pointer.
struct Compiled {
  std::string Listing;
  CompileStats Stats;
  uint32_t TopMaxFrameWords = 0;
};

Compiled compileOne(std::string_view Src) {
  static Heap H{Heap::Config{}};
  static SymbolTable Syms(H);
  static DatumBuilder B(H, Syms);
  CodeRegistry Reg(H);
  Compiler C(B, Reg, CompilerOptions{});
  Reader R(B, Src);
  ReadResult RR = R.read();
  EXPECT_TRUE(RR.ok()) << RR.Error;
  Compiler::Result CR = C.compile(RR.Datum);
  EXPECT_TRUE(CR.ok()) << CR.Error;
  Compiled Out;
  for (size_t I = 0; I < Reg.size(); ++I)
    Out.Listing += disassemble(*Reg.at(I));
  Out.Stats = C.stats();
  Out.TopMaxFrameWords = CR.TopCode->MaxFrameWords;
  return Out;
}

TEST(BytecodeTest, EveryOpcodeHasANameAndACost) {
  for (int O = 0; O <= static_cast<int>(Op::PrimApplyVar); ++O) {
    Op Opc = static_cast<Op>(O);
    EXPECT_STRNE(opName(Opc), "bad-op") << O;
    EXPECT_GE(opBaseCost(Opc), 1u) << opName(Opc);
  }
}

TEST(BytecodeTest, TouchCostsTwoInstructions) {
  // The paper's pivotal constant: tbit + beq.
  EXPECT_EQ(opBaseCost(Op::TouchStack), 2u);
  EXPECT_EQ(opBaseCost(Op::TouchLocal), 2u);
  EXPECT_EQ(opBaseCost(Op::TouchBack), 2u);
}

TEST(BytecodeTest, TrivialCallAnchors) {
  // Call(4) + PushFixnum(1) + Return(3) = the paper's 8-instruction
  // trivial procedure call.
  EXPECT_EQ(opBaseCost(Op::Call) + opBaseCost(Op::PushFixnum) +
                opBaseCost(Op::Return),
            8u);
}

TEST(BytecodeTest, DisassemblyIsReadable) {
  Compiled C = compileOne("(define (f x) (if (< x 2) x (f (- x 1))))");
  EXPECT_NE(C.Listing.find("f (params 1"), std::string::npos) << C.Listing;
  EXPECT_NE(C.Listing.find("jump-if-false"), std::string::npos);
  EXPECT_NE(C.Listing.find("tail-call"), std::string::npos);
  EXPECT_NE(C.Listing.find("global-define"), std::string::npos);
}

TEST(BytecodeTest, ConstantsAreDeduplicated) {
  // All three uses of 'k share one constant-pool slot (index 0).
  Compiled C = compileOne("(lambda () (list 'k 'k 'k))");
  size_t Count = 0;
  for (size_t P = C.Listing.find("const           0  ; k");
       P != std::string::npos;
       P = C.Listing.find("const           0  ; k", P + 1))
    ++Count;
  EXPECT_EQ(Count, 3u) << C.Listing;
}

TEST(BytecodeTest, MaxFrameWordsBoundsTheStack) {
  Compiled C = compileOne("(lambda (a b) (+ a (+ b (+ a b))))");
  // Frame: closure + 2 params + operand depth; conservative but present.
  EXPECT_GE(C.TopMaxFrameWords, 1u);
}

TEST(BytecodeTest, SlideEndsExpressionLets) {
  Compiled C = compileOne("(lambda (a) (+ a (let ((x 1)) x)))");
  EXPECT_NE(C.Listing.find("slide"), std::string::npos) << C.Listing;
}

TEST(BytecodeTest, TailLetsDontSlide) {
  Compiled C = compileOne("(lambda (a) (let ((x a)) x))");
  EXPECT_EQ(C.Listing.find("slide"), std::string::npos) << C.Listing;
}

TEST(BytecodeTest, BoxedParamsGetEntryPrologue) {
  Compiled C = compileOne("(lambda (a) (set! a 1) a)");
  EXPECT_NE(C.Listing.find("make-box"), std::string::npos);
  EXPECT_NE(C.Listing.find("set-local"), std::string::npos);
  EXPECT_NE(C.Listing.find("box-set"), std::string::npos);
}

TEST(BytecodeTest, FutureThunkIsAChildTemplate) {
  Compiled C = compileOne("(lambda (x) (future (* x x)))");
  EXPECT_NE(C.Listing.find("future-thunk"), std::string::npos)
      << C.Listing;
  // The thunk captures x once.
  EXPECT_NE(C.Listing.find("closure"), std::string::npos);
}

TEST(BytecodeTest, NaryArithmeticFolds) {
  Compiled C = compileOne("(lambda () (+ 1 2 3 4))");
  // Three adds, no call-prim.
  size_t Count = 0;
  for (size_t P = C.Listing.find("  add");
       P != std::string::npos; P = C.Listing.find("  add", P + 1))
    ++Count;
  EXPECT_EQ(Count, 3u) << C.Listing;
  EXPECT_EQ(C.Listing.find("call-prim"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Superinstruction selection (decodeCode).
//===----------------------------------------------------------------------===//

/// Pre-decodes a straight-line Code made of \p Ops (operands zero, one
/// fixnum constant so Const has something to flatten).
std::unique_ptr<DecodedCode> decodeOps(std::initializer_list<Op> Ops) {
  Code C;
  C.Constants.push_back(Value::fixnum(0));
  for (Op O : Ops)
    C.Insns.push_back(Insn{O});
  return decodeCode(C, threadedLabels());
}

const void *plainHandler(Op O) {
  return threadedLabels().Base[static_cast<size_t>(O)];
}
const void *fusedHandler(FusedOp F) {
  return threadedLabels().Fused[static_cast<size_t>(F)];
}

TEST(DecoderTest, EveryFusionRuleSelectsItsHandler) {
  // Every fusible pair, decoded alone, heads with its fused handler; the
  // second half keeps its plain slot. Together the pairs reach every
  // fused op, so no handler in the label table is dead.
  std::set<FusedOp> Reached;
  for (size_t A = 0; A < NumOpcodes; ++A) {
    for (size_t B = 0; B < NumOpcodes; ++B) {
      FusedOp F = fusedPair(static_cast<Op>(A), static_cast<Op>(B));
      if (F == FusedOp::None)
        continue;
      Reached.insert(F);
      auto D = decodeOps({static_cast<Op>(A), static_cast<Op>(B)});
      EXPECT_EQ(D->Stream[0].Handler, fusedHandler(F))
          << opName(static_cast<Op>(A)) << "; " << opName(static_cast<Op>(B));
      EXPECT_EQ(D->Stream[1].Handler, plainHandler(static_cast<Op>(B)))
          << opName(static_cast<Op>(A)) << "; " << opName(static_cast<Op>(B));
    }
  }
  EXPECT_EQ(Reached.size(), NumFusedOps - 1);
  for (size_t F = 1; F < NumFusedOps; ++F)
    EXPECT_NE(fusedHandler(static_cast<FusedOp>(F)), nullptr) << F;
}

TEST(DecoderTest, MergedPairAtNextSlotOutranksGenericPair) {
  // `local; push-fixnum` is a generic pair, but `push-fixnum; add` is a
  // merged one: slot 0 stays plain so execution flows into the merge.
  auto D = decodeOps({Op::Local, Op::PushFixnum, Op::Add});
  EXPECT_EQ(D->Stream[0].Handler, plainHandler(Op::Local));
  EXPECT_EQ(D->Stream[1].Handler, fusedHandler(FusedOp::PushFixnum_Add));
  EXPECT_EQ(D->Stream[2].Handler, plainHandler(Op::Add));
  // A generic pair followed by another generic pair keeps its fusion.
  auto G = decodeOps({Op::Local, Op::Local, Op::Local});
  EXPECT_EQ(G->Stream[0].Handler, fusedHandler(FusedOp::Local_Local));
  EXPECT_EQ(G->Stream[1].Handler, fusedHandler(FusedOp::Local_Local));
}

TEST(DecoderTest, UnfusedPairsDecodeToPlainHandlers) {
  // Pairs without measurable traffic are not fused.
  auto D = decodeOps({Op::Local, Op::NumLt});
  EXPECT_EQ(D->Stream[0].Handler, plainHandler(Op::Local));
  EXPECT_EQ(D->Stream[1].Handler, plainHandler(Op::NumLt));
  // The loop-head shape `touch-back; <; jump-if-false` is no triple: the
  // touch stays plain and the compare-and-branch pair fuses.
  auto L = decodeOps({Op::TouchBack, Op::NumLt, Op::JumpIfFalse});
  EXPECT_EQ(L->Stream[0].Handler, plainHandler(Op::TouchBack));
  EXPECT_EQ(L->Stream[1].Handler, fusedHandler(FusedOp::NumLt_JumpIfFalse));
  EXPECT_EQ(L->Stream[2].Handler, plainHandler(Op::JumpIfFalse));
}

} // namespace
