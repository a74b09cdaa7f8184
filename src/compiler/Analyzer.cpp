//===----------------------------------------------------------------------===//
///
/// \file
/// Analyzer implementation.
///
//===----------------------------------------------------------------------===//

#include "compiler/Analyzer.h"

#include "runtime/Printer.h"
#include "support/StrUtil.h"

using namespace mult;

/// A lexical contour (one let or lambda parameter list).
struct Analyzer::Scope {
  Scope *Parent = nullptr;
  size_t FnLevel = 0; ///< Index into FnStack of the owning function.
  std::vector<std::pair<Object *, int>> Names; ///< sym -> binding id.
};

/// Per-function (lambda) analysis state.
struct Analyzer::FunctionCtx {
  LambdaAst *Node = nullptr;
  /// Origin binding id for each free slot (used to dedup captures).
  std::vector<int> FreeOrigins;
};

int Analyzer::newBinding(Object *Sym) {
  Prog.Bindings.push_back(BindingInfo{Sym, false});
  return static_cast<int>(Prog.Bindings.size() - 1);
}

AstPtr Analyzer::fail(const char *Msg, Value Form) {
  if (Error.empty())
    Error = strFormat("compile error: %s in %s", Msg,
                      valueToString(Form).c_str());
  return nullptr;
}

Program Analyzer::analyzeTopLevel(Value Form, std::string &Err) {
  // The top-level form is compiled as the body of a nullary function.
  auto TopLambda = std::make_unique<LambdaAst>();
  TopLambda->Name = "top-level";
  FunctionCtx TopCtx;
  TopCtx.Node = TopLambda.get();
  FnStack.push_back(&TopCtx);
  Scope TopScope;
  TopScope.FnLevel = 0;
  CurrentScope = &TopScope;
  AtTopLevel = true;

  TopLambda->Body = analyze(Form);
  FnStack.pop_back();
  CurrentScope = nullptr;

  if (!TopLambda->Body) {
    Err = Error.empty() ? "compile error: unknown" : Error;
    return Program{};
  }
  Prog.Top = std::move(TopLambda);
  return std::move(Prog);
}

bool Analyzer::resolveLexical(Object *Sym, VarWhere &Where, int &Id) {
  // Find the innermost binding.
  size_t FoundLevel = 0;
  int Binding = -1;
  for (Scope *S = CurrentScope; S; S = S->Parent) {
    for (size_t I = S->Names.size(); I > 0; --I) {
      if (S->Names[I - 1].first == Sym) {
        Binding = S->Names[I - 1].second;
        FoundLevel = S->FnLevel;
        break;
      }
    }
    if (Binding >= 0)
      break;
  }
  if (Binding < 0)
    return false;

  size_t CurLevel = FnStack.size() - 1;
  if (FoundLevel == CurLevel) {
    Where = VarWhere::Local;
    Id = Binding;
    return true;
  }

  // Thread the capture through every intervening function.
  int Slot = Binding;
  for (size_t L = FoundLevel + 1; L <= CurLevel; ++L)
    Slot = captureInto(L, Binding, Sym);
  Where = VarWhere::Free;
  Id = Slot;
  return true;
}

int Analyzer::captureInto(size_t FnLevel, int OriginBinding, Object *Sym) {
  FunctionCtx &Ctx = *FnStack[FnLevel];
  for (size_t I = 0; I < Ctx.FreeOrigins.size(); ++I)
    if (Ctx.FreeOrigins[I] == OriginBinding)
      return static_cast<int>(I);

  // New capture. Its source in the *parent* function: either the binding
  // itself (parent owns it) or the parent's own free slot for it.
  LambdaAst::Capture Cap;
  Cap.OriginBindingId = OriginBinding;
  FunctionCtx &Parent = *FnStack[FnLevel - 1];
  Cap.FromParentFree = false;
  Cap.Index = OriginBinding;
  for (size_t I = 0; I < Parent.FreeOrigins.size(); ++I) {
    if (Parent.FreeOrigins[I] == OriginBinding) {
      Cap.FromParentFree = true;
      Cap.Index = static_cast<int>(I);
      break;
    }
  }
  (void)Sym;
  Ctx.Node->Captures.push_back(Cap);
  Ctx.FreeOrigins.push_back(OriginBinding);
  return static_cast<int>(Ctx.FreeOrigins.size() - 1);
}

AstPtr Analyzer::analyzeVar(Object *Sym) {
  VarWhere Where;
  int Id;
  if (resolveLexical(Sym, Where, Id))
    return std::make_unique<VarRefAst>(Where, Id, Sym);
  return std::make_unique<VarRefAst>(VarWhere::Global, -1, Sym);
}

AstPtr Analyzer::analyze(Value Form) {
  bool WasTop = AtTopLevel;
  AtTopLevel = false;

  if (isSymbol(Form))
    return analyzeVar(Form.asObject());
  if (!isPair(Form)) {
    // Self-evaluating.
    return std::make_unique<ConstAst>(Form);
  }

  Value Head = carOf(Form);
  if (isSymbol(Head)) {
    std::string_view Name = Head.asObject()->symbolText();
    VarWhere W;
    int Id;
    bool Shadowed = resolveLexical(Head.asObject(), W, Id);
    if (!Shadowed) {
      if (Name == "quote") {
        if (listLength(Form) != 2)
          return fail("malformed quote", Form);
        return std::make_unique<ConstAst>(carOf(cdrOf(Form)));
      }
      if (Name == "if") {
        int64_t N = listLength(Form);
        if (N != 3 && N != 4)
          return fail("malformed if", Form);
        AstPtr C = analyze(carOf(cdrOf(Form)));
        if (!C)
          return nullptr;
        AstPtr T = analyze(carOf(cdrOf(cdrOf(Form))));
        if (!T)
          return nullptr;
        AstPtr E;
        if (N == 4) {
          E = analyze(carOf(cdrOf(cdrOf(cdrOf(Form)))));
          if (!E)
            return nullptr;
        } else {
          E = std::make_unique<ConstAst>(Value::unspecified());
        }
        return std::make_unique<IfAst>(std::move(C), std::move(T),
                                       std::move(E));
      }
      if (Name == "set!")
        return analyzeSet(Form);
      if (Name == "define") {
        if (!WasTop)
          return fail("define is only allowed at top level", Form);
        if (listLength(Form) != 3 || !isSymbol(carOf(cdrOf(Form))))
          return fail("malformed define", Form);
        Object *Sym = carOf(cdrOf(Form)).asObject();
        AstPtr V = analyze(carOf(cdrOf(cdrOf(Form))));
        if (!V)
          return nullptr;
        // Name closures after their defining variable.
        if (auto *L = astDynCast<LambdaAst>(V.get()))
          if (L->Name.empty())
            L->Name = std::string(Sym->symbolText());
        return std::make_unique<DefineAst>(Sym, std::move(V));
      }
      if (Name == "lambda") {
        if (listLength(Form) != 3)
          return fail("malformed lambda (expander should have normalized)",
                      Form);
        return analyzeLambda(carOf(cdrOf(Form)), carOf(cdrOf(cdrOf(Form))),
                             "");
      }
      if (Name == "begin") {
        std::vector<AstPtr> Forms;
        for (Value P = cdrOf(Form); !P.isNil(); P = cdrOf(P)) {
          AtTopLevel = WasTop; // defines stay legal in top-level begins
          AstPtr F = analyze(carOf(P));
          if (!F)
            return nullptr;
          Forms.push_back(std::move(F));
        }
        if (Forms.empty())
          return fail("empty begin", Form);
        if (Forms.size() == 1)
          return std::move(Forms[0]);
        return std::make_unique<BeginAst>(std::move(Forms));
      }
      if (Name == "let")
        return analyzeLet(Form);
      if (Name == "future") {
        if (listLength(Form) != 2)
          return fail("malformed future", Form);
        return makeFuture(carOf(cdrOf(Form)));
      }
      if (Name == "touch") {
        if (listLength(Form) != 2)
          return fail("malformed touch", Form);
        AstPtr E = analyze(carOf(cdrOf(Form)));
        if (!E)
          return nullptr;
        return std::make_unique<TouchAst>(std::move(E));
      }
    }
  }
  return analyzeCall(Form);
}

AstPtr Analyzer::analyzeSet(Value Form) {
  if (listLength(Form) != 3 || !isSymbol(carOf(cdrOf(Form))))
    return fail("malformed set!", Form);
  Object *Sym = carOf(cdrOf(Form)).asObject();
  AstPtr V = analyze(carOf(cdrOf(cdrOf(Form))));
  if (!V)
    return nullptr;
  VarWhere Where;
  int Id;
  if (resolveLexical(Sym, Where, Id)) {
    // Mark the origin binding assigned (=> boxed). For Free references the
    // Id is a slot; recover the origin from the current function context.
    if (Where == VarWhere::Local) {
      Prog.Bindings[static_cast<size_t>(Id)].Assigned = true;
    } else {
      int Origin = FnStack.back()->FreeOrigins[static_cast<size_t>(Id)];
      Prog.Bindings[static_cast<size_t>(Origin)].Assigned = true;
    }
    return std::make_unique<SetVarAst>(Where, Id, Sym, std::move(V));
  }
  return std::make_unique<SetVarAst>(VarWhere::Global, -1, Sym, std::move(V));
}

AstPtr Analyzer::analyzeLambda(Value Params, Value Body, std::string Name) {
  auto L = std::make_unique<LambdaAst>();
  L->Name = std::move(Name);

  FunctionCtx Ctx;
  Ctx.Node = L.get();
  FnStack.push_back(&Ctx);

  Scope S;
  S.Parent = CurrentScope;
  S.FnLevel = FnStack.size() - 1;
  for (Value P = Params; !P.isNil(); P = cdrOf(P)) {
    if (!isPair(P)) {
      FnStack.pop_back();
      return fail("rest parameters are not supported", Params);
    }
    if (!isSymbol(carOf(P))) {
      FnStack.pop_back();
      return fail("parameter is not a symbol", Params);
    }
    int Id = newBinding(carOf(P).asObject());
    L->ParamIds.push_back(Id);
    S.Names.emplace_back(carOf(P).asObject(), Id);
  }
  CurrentScope = &S;
  L->Body = analyze(Body);
  CurrentScope = S.Parent;
  FnStack.pop_back();
  if (!L->Body)
    return nullptr;
  return L;
}

AstPtr Analyzer::makeFuture(Value ChildExpr) {
  // (future X) == (*future (lambda () X)): analyzing X inside a fresh
  // nullary function makes the capture machinery copy X's free variables
  // into the closure, as the paper requires.
  auto L = std::make_unique<LambdaAst>();
  L->Name = "future-thunk";
  FunctionCtx Ctx;
  Ctx.Node = L.get();
  FnStack.push_back(&Ctx);
  Scope S;
  S.Parent = CurrentScope;
  S.FnLevel = FnStack.size() - 1;
  CurrentScope = &S;
  L->Body = analyze(ChildExpr);
  CurrentScope = S.Parent;
  FnStack.pop_back();
  if (!L->Body)
    return nullptr;
  return std::make_unique<FutureAst>(std::move(L));
}

AstPtr Analyzer::analyzeLet(Value Form) {
  if (listLength(Form) != 3)
    return fail("malformed let", Form);
  Value Bindings = carOf(cdrOf(Form));
  Value Body = carOf(cdrOf(cdrOf(Form)));

  auto L = std::make_unique<LetAst>();
  Scope S;
  S.Parent = CurrentScope;
  S.FnLevel = FnStack.size() - 1;
  for (Value P = Bindings; !P.isNil(); P = cdrOf(P)) {
    Value Binding = carOf(P);
    Object *Sym = carOf(Binding).asObject();
    // Inits are analyzed in the enclosing scope.
    AstPtr Init = analyze(carOf(cdrOf(Binding)));
    if (!Init)
      return nullptr;
    int Id = newBinding(Sym);
    L->BindingIds.push_back(Id);
    L->Inits.push_back(std::move(Init));
    S.Names.emplace_back(Sym, Id);
  }
  CurrentScope = &S;
  L->Body = analyze(Body);
  CurrentScope = S.Parent;
  if (!L->Body)
    return nullptr;
  return L;
}

AstPtr Analyzer::analyzeCall(Value Form) {
  Value Head = carOf(Form);

  // Count and analyze arguments.
  std::vector<AstPtr> Args;
  for (Value P = cdrOf(Form); !P.isNil(); P = cdrOf(P)) {
    if (!isPair(P))
      return fail("improper argument list", Form);
    AstPtr A = analyze(carOf(P));
    if (!A)
      return nullptr;
    Args.push_back(std::move(A));
  }

  // Primitive integration: the head is a symbol, lexically unbound, not
  // user-defined, and names a primitive.
  if (isSymbol(Head)) {
    Object *Sym = Head.asObject();
    VarWhere W;
    int Id;
    if (!resolveLexical(Sym, W, Id) && !NonIntegrable.count(Sym)) {
      std::string_view Name = Sym->symbolText();
      if (auto Fast = lookupFastOp(Name)) {
        // N-ary arithmetic folding.
        if (Name == "+" || Name == "*" || Name == "-") {
          int64_t Identity = (Name == "*") ? 1 : 0;
          if (Args.empty()) {
            if (Name == "-")
              return fail("'-' needs at least one argument", Form);
            return std::make_unique<ConstAst>(Value::fixnum(Identity));
          }
          if (Args.size() == 1 && Name == "-") {
            // (- x) => (- 0 x)
            auto P = std::make_unique<PrimCallAst>();
            P->IsFast = true;
            P->Fast = *Fast;
            P->Name = std::string(Name);
            P->Args.push_back(
                std::make_unique<ConstAst>(Value::fixnum(0)));
            P->Args.push_back(std::move(Args[0]));
            return P;
          }
          if (Args.size() == 1) {
            // (+ x) => (+ x 0): preserves the type check on x.
            auto P = std::make_unique<PrimCallAst>();
            P->IsFast = true;
            P->Fast = *Fast;
            P->Name = std::string(Name);
            P->Args.push_back(std::move(Args[0]));
            P->Args.push_back(
                std::make_unique<ConstAst>(Value::fixnum(Identity)));
            return P;
          }
          // Left fold.
          AstPtr Acc = std::move(Args[0]);
          for (size_t I = 1; I < Args.size(); ++I) {
            auto P = std::make_unique<PrimCallAst>();
            P->IsFast = true;
            P->Fast = *Fast;
            P->Name = std::string(Name);
            P->Args.push_back(std::move(Acc));
            P->Args.push_back(std::move(Args[I]));
            Acc = std::move(P);
          }
          return Acc;
        }
        if (static_cast<int>(Args.size()) != Fast->Arity)
          return fail("wrong number of arguments to primitive", Form);
        auto P = std::make_unique<PrimCallAst>();
        P->IsFast = true;
        P->Fast = *Fast;
        P->Name = std::string(Name);
        P->Args = std::move(Args);
        return P;
      }
      if (auto Prim = lookupPrim(Name)) {
        const PrimInfo &Info = primInfo(*Prim);
        if (static_cast<int>(Args.size()) < Info.MinArgs ||
            (Info.MaxArgs >= 0 &&
             static_cast<int>(Args.size()) > Info.MaxArgs))
          return fail("wrong number of arguments to primitive", Form);
        auto P = std::make_unique<PrimCallAst>();
        P->IsFast = false;
        P->Prim = *Prim;
        P->Name = std::string(Name);
        P->Args = std::move(Args);
        return P;
      }
    }
  }

  AstPtr Fn = analyze(Head);
  if (!Fn)
    return nullptr;
  return std::make_unique<CallAst>(std::move(Fn), std::move(Args));
}
