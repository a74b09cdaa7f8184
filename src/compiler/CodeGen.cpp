//===----------------------------------------------------------------------===//
///
/// \file
/// Code generator implementation.
///
//===----------------------------------------------------------------------===//

#include "compiler/CodeGen.h"

#include "compiler/TouchOpt.h"

#include <array>
#include <cassert>
#include <initializer_list>

using namespace mult;

Code *CodeRegistry::create(std::string Name) {
  Codes.push_back(std::make_unique<Code>());
  Code *C = Codes.back().get();
  C->Name = std::move(Name);
  Object *Tpl =
      TheHeap.allocatePermanent(TypeTag::Template, 1, Object::FlagRaw);
  Tpl->setTemplateCode(C);
  Templates.push_back(Value::object(Tpl));
  return C;
}

Value CodeRegistry::templateFor(const Code *C) const {
  for (size_t I = 0; I < Codes.size(); ++I)
    if (Codes[I].get() == C)
      return Templates[I];
  assert(false && "unregistered code object");
  return Value::nil();
}

namespace {

/// Generates the body of one function (template).
class FunctionGen {
public:
  FunctionGen(Program &P, CodeRegistry &Registry,
              const CompilerOptions &Opts, CompileStats &Stats)
      : P(P), Registry(Registry), Opts(Opts), Stats(Stats) {}

  Code *generate(const LambdaAst *L, FunctionGen *Parent);

private:
  void genExpr(const AstNode *N);
  void genTail(const AstNode *N);
  /// Emits the implicit touch for operand \p N sitting \p DepthFromTop
  /// slots below the stack top, unless the optimizer proved it redundant.
  void emitTouchFor(const AstNode *N, int DepthFromTop);
  /// Evaluates \p N; when \p Strict, touches it at the top of stack.
  void genOperand(const AstNode *N, bool Strict);
  void genClosure(const LambdaAst *L);
  void genPrimCall(const PrimCallAst *C);

  size_t emit(Op O, int32_t A = 0, int32_t B = 0) {
    C->Insns.push_back(Insn{O, A, B});
    return C->Insns.size() - 1;
  }
  void patchJump(size_t At) {
    C->Insns[At].A = static_cast<int32_t>(C->Insns.size());
  }
  void pushDepth(int N = 1) {
    Depth += N;
    if (Depth > static_cast<int>(C->MaxFrameWords))
      C->MaxFrameWords = static_cast<uint32_t>(Depth);
  }
  void popDepth(int N = 1) {
    Depth -= N;
    assert(Depth >= 0 && "operand stack underflow in codegen");
  }
  int constantIndex(Value V);
  int localOffset(int BindingId) const;

  Program &P;
  CodeRegistry &Registry;
  const CompilerOptions &Opts;
  CompileStats &Stats;
  const LambdaAst *Fn = nullptr;
  Code *C = nullptr;
  int Depth = 0; ///< Current operand-stack depth, frame-relative.
  std::vector<std::pair<int, int>> Offsets; ///< binding id -> frame offset.
};

int FunctionGen::constantIndex(Value V) {
  for (size_t I = 0; I < C->Constants.size(); ++I)
    if (C->Constants[I].bits() == V.bits())
      return static_cast<int>(I);
  C->Constants.push_back(V);
  return static_cast<int>(C->Constants.size() - 1);
}

int FunctionGen::localOffset(int BindingId) const {
  for (size_t I = Offsets.size(); I > 0; --I)
    if (Offsets[I - 1].first == BindingId)
      return Offsets[I - 1].second;
  assert(false && "reference to a binding with no frame slot");
  return 0;
}

Code *FunctionGen::generate(const LambdaAst *L, FunctionGen *Parent) {
  (void)Parent;
  Fn = L;
  C = Registry.create(L->Name.empty() ? "lambda" : L->Name);
  C->NumParams = static_cast<uint32_t>(L->ParamIds.size());

  // Frame: slot 0 = the closure, slots 1..N = parameters.
  Depth = 1 + static_cast<int>(L->ParamIds.size());
  C->MaxFrameWords = static_cast<uint32_t>(Depth);
  for (size_t I = 0; I < L->ParamIds.size(); ++I)
    Offsets.emplace_back(L->ParamIds[I], static_cast<int>(I) + 1);

  // Entry prologue: box assigned parameters.
  for (size_t I = 0; I < L->ParamIds.size(); ++I) {
    if (P.bindingBoxed(L->ParamIds[I])) {
      int Off = static_cast<int>(I) + 1;
      emit(Op::Local, Off);
      pushDepth();
      emit(Op::MakeBox);
      emit(Op::SetLocal, Off);
      popDepth();
    }
  }

  genTail(L->Body.get());
  return C;
}

void FunctionGen::genTail(const AstNode *N) {
  switch (N->Kind) {
  case AstKind::If: {
    const auto *I = astCast<IfAst>(N);
    genOperand(I->Cond.get(), /*Strict=*/true);
    size_t JElse = emit(Op::JumpIfFalse, -1);
    popDepth();
    int Saved = Depth;
    genTail(I->Then.get());
    Depth = Saved;
    patchJump(JElse);
    genTail(I->Else.get());
    return;
  }
  case AstKind::Begin: {
    const auto *B = astCast<BeginAst>(N);
    for (size_t I = 0; I + 1 < B->Forms.size(); ++I) {
      genExpr(B->Forms[I].get());
      emit(Op::Pop);
      popDepth();
    }
    genTail(B->Forms.back().get());
    return;
  }
  case AstKind::Let: {
    const auto *L = astCast<LetAst>(N);
    for (size_t I = 0; I < L->Inits.size(); ++I) {
      int Off = Depth;
      genExpr(L->Inits[I].get());
      if (P.bindingBoxed(L->BindingIds[I]))
        emit(Op::MakeBox);
      Offsets.emplace_back(L->BindingIds[I], Off);
    }
    genTail(L->Body.get());
    return;
  }
  case AstKind::Call: {
    const auto *Call = astCast<CallAst>(N);
    genExpr(Call->Fn.get());
    for (const AstPtr &A : Call->Args)
      genExpr(A.get());
    emitTouchFor(Call->Fn.get(),
                 static_cast<int>(Call->Args.size())); // calling touches
    emit(Op::TailCall, static_cast<int32_t>(Call->Args.size()));
    popDepth(static_cast<int>(Call->Args.size()) + 1);
    return;
  }
  default:
    genExpr(N);
    emit(Op::Return);
    popDepth();
    return;
  }
}

void FunctionGen::emitTouchFor(const AstNode *N, int DepthFromTop) {
  // The touch belongs to the strict *operation*: it is emitted after every
  // operand has been evaluated, so `(+ (future X) Y)` computes Y in
  // parallel with X and synchronizes at the addition.
  if (!Opts.EmitTouchChecks)
    return;
  ++Stats.StrictPositions;
  if (Opts.OptimizeTouches && N->ResultNonFuture) {
    ++Stats.TouchesEliminated;
    return;
  }
  ++Stats.TouchesEmitted;
  // When the operand is an unboxed local, also write the resolved value
  // back to its slot: this is what makes the optimizer's once-touched
  // facts true (paper section 2.2).
  if (const auto *V = astDynCast<VarRefAst>(const_cast<AstNode *>(N))) {
    if (V->Where == VarWhere::Local && !P.bindingBoxed(V->Id)) {
      emit(Op::TouchBack, DepthFromTop, localOffset(V->Id));
      return;
    }
  }
  emit(Op::TouchStack, DepthFromTop);
}

void FunctionGen::genOperand(const AstNode *N, bool Strict) {
  genExpr(N);
  if (Strict)
    emitTouchFor(N, 0);
}

void FunctionGen::genClosure(const LambdaAst *L) {
  // Child code first.
  FunctionGen Child(P, Registry, Opts, Stats);
  Code *ChildCode = Child.generate(L, this);
  int TplIdx = constantIndex(Registry.templateFor(ChildCode));

  // Captures: push raw slot contents (boxes are captured as boxes).
  for (const LambdaAst::Capture &Cap : L->Captures) {
    if (Cap.FromParentFree)
      emit(Op::Free, Cap.Index);
    else
      emit(Op::Local, localOffset(Cap.Index));
    pushDepth();
  }
  emit(Op::Closure, TplIdx, static_cast<int32_t>(L->Captures.size()));
  popDepth(static_cast<int>(L->Captures.size()));
  pushDepth();
}

void FunctionGen::genPrimCall(const PrimCallAst *C2) {
  if (C2->IsFast) {
    for (const AstPtr &A : C2->Args)
      genExpr(A.get());
    for (size_t I = 0; I < C2->Args.size(); ++I)
      if (C2->Fast.StrictMask & (1u << I))
        emitTouchFor(C2->Args[I].get(),
                     static_cast<int>(C2->Args.size() - 1 - I));
    emit(C2->Fast.Opcode);
    popDepth(static_cast<int>(C2->Args.size()));
    pushDepth();
    return;
  }
  for (const AstPtr &A : C2->Args)
    genExpr(A.get());
  emit(Op::CallPrim, static_cast<int32_t>(C2->Prim),
       static_cast<int32_t>(C2->Args.size()));
  popDepth(static_cast<int>(C2->Args.size()));
  pushDepth();
}

void FunctionGen::genExpr(const AstNode *N) {
  switch (N->Kind) {
  case AstKind::Const: {
    Value V = astCast<ConstAst>(N)->V;
    if (V.isFixnum() && V.asFixnum() >= INT32_MIN && V.asFixnum() <= INT32_MAX)
      emit(Op::PushFixnum, static_cast<int32_t>(V.asFixnum()));
    else if (V.isNil())
      emit(Op::PushNil);
    else if (V.isTrue())
      emit(Op::PushTrue);
    else if (V.isFalse())
      emit(Op::PushFalse);
    else if (V.isUnspecified())
      emit(Op::PushUnspecified);
    else
      emit(Op::Const, constantIndex(V));
    pushDepth();
    return;
  }

  case AstKind::VarRef: {
    const auto *V = astCast<VarRefAst>(N);
    switch (V->Where) {
    case VarWhere::Local:
      emit(Op::Local, localOffset(V->Id));
      pushDepth();
      if (P.bindingBoxed(V->Id))
        emit(Op::BoxRef);
      return;
    case VarWhere::Free: {
      emit(Op::Free, V->Id);
      pushDepth();
      int Origin = Fn->Captures[static_cast<size_t>(V->Id)].OriginBindingId;
      if (P.bindingBoxed(Origin))
        emit(Op::BoxRef);
      return;
    }
    case VarWhere::Global:
      emit(Op::GlobalRef, constantIndex(Value::object(V->Sym)));
      pushDepth();
      return;
    }
    return;
  }

  case AstKind::SetVar: {
    const auto *S = astCast<SetVarAst>(N);
    switch (S->Where) {
    case VarWhere::Local:
      assert(P.bindingBoxed(S->Id) && "assigned local must be boxed");
      emit(Op::Local, localOffset(S->Id));
      pushDepth();
      break;
    case VarWhere::Free: {
      [[maybe_unused]] int Origin =
          Fn->Captures[static_cast<size_t>(S->Id)].OriginBindingId;
      assert(P.bindingBoxed(Origin) && "assigned free var must be boxed");
      emit(Op::Free, S->Id);
      pushDepth();
      break;
    }
    case VarWhere::Global:
      break;
    }
    genExpr(S->Val.get());
    if (S->Where == VarWhere::Global) {
      // GlobalSet pops the value and pushes unspecified itself.
      emit(Op::GlobalSet, constantIndex(Value::object(S->Sym)));
    } else {
      emit(Op::BoxSet);
      popDepth(2);
      pushDepth();
    }
    return;
  }

  case AstKind::Define: {
    const auto *D = astCast<DefineAst>(N);
    genExpr(D->Val.get());
    // GlobalDefine pops the value and pushes unspecified itself.
    emit(Op::GlobalDefine, constantIndex(Value::object(D->Sym)));
    return;
  }

  case AstKind::If: {
    const auto *I = astCast<IfAst>(N);
    genOperand(I->Cond.get(), /*Strict=*/true);
    size_t JElse = emit(Op::JumpIfFalse, -1);
    popDepth();
    int Saved = Depth;
    genExpr(I->Then.get());
    size_t JEnd = emit(Op::Jump, -1);
    patchJump(JElse);
    Depth = Saved;
    genExpr(I->Else.get());
    patchJump(JEnd);
    return;
  }

  case AstKind::Begin: {
    const auto *B = astCast<BeginAst>(N);
    for (size_t I = 0; I + 1 < B->Forms.size(); ++I) {
      genExpr(B->Forms[I].get());
      emit(Op::Pop);
      popDepth();
    }
    genExpr(B->Forms.back().get());
    return;
  }

  case AstKind::Let: {
    const auto *L = astCast<LetAst>(N);
    for (size_t I = 0; I < L->Inits.size(); ++I) {
      int Off = Depth;
      genExpr(L->Inits[I].get());
      if (P.bindingBoxed(L->BindingIds[I]))
        emit(Op::MakeBox);
      Offsets.emplace_back(L->BindingIds[I], Off);
    }
    genExpr(L->Body.get());
    // Squash the let locals so the result is contiguous with any operands
    // pushed before the let (e.g. earlier arguments of a call).
    if (!L->Inits.empty()) {
      emit(Op::Slide, static_cast<int32_t>(L->Inits.size()));
      popDepth(static_cast<int>(L->Inits.size()) + 1);
      pushDepth();
    }
    for (size_t I = 0; I < L->Inits.size(); ++I)
      Offsets.pop_back();
    return;
  }

  case AstKind::Lambda:
    genClosure(astCast<LambdaAst>(N));
    return;

  case AstKind::Call: {
    const auto *Call = astCast<CallAst>(N);
    genExpr(Call->Fn.get());
    for (const AstPtr &A : Call->Args)
      genExpr(A.get());
    emitTouchFor(Call->Fn.get(),
                 static_cast<int>(Call->Args.size())); // calling touches
    emit(Op::Call, static_cast<int32_t>(Call->Args.size()));
    popDepth(static_cast<int>(Call->Args.size()) + 1);
    pushDepth();
    return;
  }

  case AstKind::PrimCall:
    genPrimCall(astCast<PrimCallAst>(N));
    return;

  case AstKind::Future: {
    const auto *F = astCast<FutureAst>(N);
    genClosure(F->Thunk.get());
    emit(Op::FutureOp);
    return;
  }

  case AstKind::TouchExpr: {
    const auto *T = astCast<TouchAst>(N);
    genOperand(T->Expr.get(), /*Strict=*/true);
    return;
  }
  }
  assert(false && "unhandled AST kind in codegen");
}

} // namespace

Code *mult::generateCode(Program &P, CodeRegistry &Registry,
                         const CompilerOptions &Opts, CompileStats &Stats) {
  assert(P.Top && "generateCode on a failed Program");
  auto *Top = astCast<LambdaAst>(P.Top.get());
  FunctionGen G(P, Registry, Opts, Stats);
  return G.generate(Top, nullptr);
}

void Compiler::collectUserGlobals(const AstNode *N) {
  if (!N)
    return;
  switch (N->Kind) {
  case AstKind::Define:
    NonIntegrable.insert(astCast<DefineAst>(N)->Sym);
    collectUserGlobals(astCast<DefineAst>(N)->Val.get());
    return;
  case AstKind::SetVar: {
    const auto *S = astCast<SetVarAst>(N);
    if (S->Where == VarWhere::Global)
      NonIntegrable.insert(S->Sym);
    collectUserGlobals(S->Val.get());
    return;
  }
  case AstKind::If: {
    const auto *I = astCast<IfAst>(N);
    collectUserGlobals(I->Cond.get());
    collectUserGlobals(I->Then.get());
    collectUserGlobals(I->Else.get());
    return;
  }
  case AstKind::Begin:
    for (const AstPtr &F : astCast<BeginAst>(N)->Forms)
      collectUserGlobals(F.get());
    return;
  case AstKind::Let: {
    const auto *L = astCast<LetAst>(N);
    for (const AstPtr &I : L->Inits)
      collectUserGlobals(I.get());
    collectUserGlobals(L->Body.get());
    return;
  }
  case AstKind::Lambda:
    collectUserGlobals(astCast<LambdaAst>(N)->Body.get());
    return;
  case AstKind::Call: {
    const auto *C = astCast<CallAst>(N);
    collectUserGlobals(C->Fn.get());
    for (const AstPtr &A : C->Args)
      collectUserGlobals(A.get());
    return;
  }
  case AstKind::PrimCall:
    for (const AstPtr &A : astCast<PrimCallAst>(N)->Args)
      collectUserGlobals(A.get());
    return;
  case AstKind::Future:
    collectUserGlobals(astCast<FutureAst>(N)->Thunk->Body.get());
    return;
  case AstKind::TouchExpr:
    collectUserGlobals(astCast<TouchAst>(N)->Expr.get());
    return;
  case AstKind::Const:
  case AstKind::VarRef:
    return;
  }
}

void Compiler::prescanDefines(const std::vector<Value> &Forms) {
  for (Value F : Forms) {
    if (!isPair(F) || !isSymbolNamed(carOf(F), "define"))
      continue;
    Value Tail = cdrOf(F);
    if (!isPair(Tail))
      continue;
    Value NameOrSig = carOf(Tail);
    if (isSymbol(NameOrSig))
      NonIntegrable.insert(NameOrSig.asObject());
    else if (isPair(NameOrSig) && isSymbol(carOf(NameOrSig)))
      NonIntegrable.insert(carOf(NameOrSig).asObject());
  }
}

Compiler::Result Compiler::compile(Value Datum) {
  Result R;
  Expander::Result E = Exp.expand(Datum);
  if (!E.Ok) {
    R.Error = E.Error;
    return R;
  }

  AnalyzerOptions AOpts;
  AOpts.IntegratePrims = Opts.IntegratePrims;
  Analyzer A(AOpts, NonIntegrable);
  std::string Err;
  Program P = A.analyzeTopLevel(E.Datum, Err);
  if (!P.Top) {
    R.Error = Err;
    return R;
  }

  if (Opts.EmitTouchChecks && Opts.OptimizeTouches)
    runTouchOptimization(P);

  R.TopCode = generateCode(P, Registry, Opts, Stats);
  ++Stats.FormsCompiled;

  // Later forms must not integrate names this form defines or assigns.
  collectUserGlobals(P.Top.get());
  return R;
}

//===----------------------------------------------------------------------===//
// Superinstruction selection (threaded interpreter, vm/Threaded.h).
//===----------------------------------------------------------------------===//

namespace {

/// MULT_FUSED_OPS folded into a dense pair-indexed array.
constexpr auto PairIndex = [] {
  std::array<FusedOp, NumOpcodes * NumOpcodes> T{};
  using enum Op;
#define X(NAME, MERGED, HEAD, ...)                                             \
  for (Op Second : {__VA_ARGS__})                                              \
    T[static_cast<size_t>(HEAD) * NumOpcodes + static_cast<size_t>(Second)] = \
        FusedOp::NAME;
  MULT_FUSED_OPS(X)
#undef X
  return T;
}();

} // namespace

FusedOp mult::fusedPair(Op First, Op Second) {
  return PairIndex[static_cast<size_t>(First) * NumOpcodes +
                   static_cast<size_t>(Second)];
}
