//===----------------------------------------------------------------------===//
///
/// \file
/// Called-primitive implementations.
///
/// Conventions (see Primitives.h): a primitive must not perform side
/// effects before its last possible Blocked/NeedsGc return, because those
/// statuses re-run the whole primitive. Internal touches stand in for the
/// implicit touches library code would have compiled in; they cost two
/// cycles each (zero in T3 mode, where futures cannot exist).
///
//===----------------------------------------------------------------------===//

#include "vm/Primitives.h"

#include "core/DynamicEnv.h"
#include "core/Engine.h"
#include "core/FutureOps.h"
#include "core/Semaphore.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace mult;

namespace {

struct PrimCtx {
  Engine &E;
  Processor &P;
  Task &T;
  uint64_t TouchCost;
};

/// touchOrBlock's chase of a future, out of line.
__attribute__((noinline)) bool chaseOrBlock(PrimCtx &C, Value &V,
                                            PrimResult &R) {
  Value Out;
  Object *Unresolved = nullptr;
  uint64_t Chase = 0;
  bool Ok = futureops::chase(V, Out, Unresolved, Chase);
  C.P.charge(Chase);
  if (!Ok) {
    R = PrimResult::blockedOn(Value::future(Unresolved));
    return false;
  }
  V = Out;
  return true;
}

/// Touches \p V in place. Returns false (with \p R filled) when the
/// primitive must block.
__attribute__((always_inline)) inline bool touchOrBlock(PrimCtx &C, Value &V,
                                                     PrimResult &R) {
  C.P.charge(C.TouchCost);
  ++C.E.stats().TouchesExecuted;
  return !V.isFuture() || chaseOrBlock(C, V, R);
}

Object *allocOrNull(PrimCtx &C, TypeTag Tag, uint32_t SizeWords,
                    uint8_t Flags = 0) {
  uint64_t Cycles = 0;
  Object *O = C.E.tryAlloc(C.P, Tag, SizeWords, Cycles, Flags);
  C.P.charge(Cycles);
  return O;
}

bool isPairV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Pair;
}
bool isSymbolV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Symbol;
}
bool isStringV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::String;
}
bool isVectorV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Vector;
}
bool isNumberV(Value V) {
  return V.isFixnum() ||
         (V.isObject() && V.asObject()->tag() == TypeTag::Flonum);
}
double numAsDouble(Value V) {
  return V.isFixnum() ? static_cast<double>(V.asFixnum())
                      : V.asObject()->flonumValue();
}

/// Collects a proper list into \p Out, touching every spine cell.
/// Returns false with \p R set (Blocked) or \p Err set (improper list).
bool listToVec(PrimCtx &C, Value L, std::vector<Value> &Out, PrimResult &R,
               bool &Improper) {
  Improper = false;
  for (;;) {
    if (!touchOrBlock(C, L, R))
      return false;
    if (L.isNil())
      return true;
    if (!isPairV(L)) {
      Improper = true;
      return false;
    }
    Out.push_back(L.asObject()->car());
    L = L.asObject()->cdr();
    C.P.charge(1);
  }
}

/// Builds a list of \p Elems with tail \p Tail; null on allocation failure.
bool buildList(PrimCtx &C, const std::vector<Value> &Elems, Value Tail,
               Value &Out) {
  Value Acc = Tail;
  for (size_t I = Elems.size(); I > 0; --I) {
    Object *Pair = allocOrNull(C, TypeTag::Pair, 2);
    if (!Pair)
      return false;
    Pair->setCar(Elems[I - 1]);
    Pair->setCdr(Acc);
    Acc = Value::object(Pair);
  }
  Out = Acc;
  return true;
}

Value makeStringValue(PrimCtx &C, std::string_view S, bool &Failed) {
  Object *O = allocOrNull(C, TypeTag::String, stringPayloadWords(S.size()),
                          Object::FlagRaw);
  if (!O) {
    Failed = true;
    return Value::nil();
  }
  O->payload()[0] = S.size();
  std::memcpy(O->stringData(), S.data(), S.size());
  Failed = false;
  return Value::object(O);
}

/// Structural equality that chases futures inside structures, the way
/// library code compiled with implicit touches would. Returns 0 equal,
/// 1 unequal, 2 blocked (R filled).
int equalTouching(PrimCtx &C, Value A, Value B, PrimResult &R,
                  unsigned Depth) {
  if (Depth == 0)
    return 1;
  if (!touchOrBlock(C, A, R) || !touchOrBlock(C, B, R))
    return 2;
  if (A.identical(B))
    return 0;
  if (!A.isObject() || !B.isObject())
    return 1;
  Object *OA = A.asObject();
  Object *OB = B.asObject();
  if (OA->tag() != OB->tag())
    return 1;
  switch (OA->tag()) {
  case TypeTag::Pair: {
    int Car = equalTouching(C, OA->car(), OB->car(), R, Depth - 1);
    if (Car != 0)
      return Car;
    return equalTouching(C, OA->cdr(), OB->cdr(), R, Depth - 1);
  }
  case TypeTag::Vector: {
    if (OA->vectorLength() != OB->vectorLength())
      return 1;
    for (int64_t I = 0, N = OA->vectorLength(); I < N; ++I) {
      int E = equalTouching(C, OA->vectorRef(I), OB->vectorRef(I), R,
                            Depth - 1);
      if (E != 0)
        return E;
    }
    return 0;
  }
  case TypeTag::String:
    return OA->stringView() == OB->stringView() ? 0 : 1;
  case TypeTag::Flonum:
    return OA->flonumValue() == OB->flonumValue() ? 0 : 1;
  default:
    return 1;
  }
}

PrimResult primDisplay(PrimCtx &C, Value V, bool Machine) {
  PrimResult R;
  if (!touchOrBlock(C, V, R))
    return R;
  // Only the distinguished terminal task's lock holder may write
  // (paper section 2.3); modelled as a virtual lock on the console.
  C.P.charge(C.E.terminalLock().acquire(C.P.Clock, cost::TerminalLockHold));
  C.T.DidIo = true; // console output cannot be replayed by recovery
  ++C.T.SideEffectEpoch;
  PrintOptions Opts;
  Opts.Machine = Machine;
  printValue(C.E.console(), V, Opts);
  return PrimResult::ok(Value::unspecified());
}

} // namespace

PrimResult mult::callPrimitive(PrimId Id, Engine &E, Processor &P, Task &T,
                               const Value *Args, uint32_t Argc) {
  PrimCtx C{E, P, T, E.config().EmitTouchChecks ? cost::Touch : 0};
  P.charge(primInfo(Id).BaseCost);
  PrimResult R;

  switch (Id) {
  case PrimId::List: {
    std::vector<Value> Elems(Args, Args + Argc);
    Value Out;
    if (!buildList(C, Elems, Value::nil(), Out))
      return PrimResult::needsGc();
    P.charge(Argc);
    return PrimResult::ok(Out);
  }

  case PrimId::Append: {
    if (Argc == 0)
      return PrimResult::ok(Value::nil());
    Value Out = Args[Argc - 1];
    for (size_t I = Argc - 1; I > 0; --I) {
      std::vector<Value> Elems;
      bool Improper;
      if (!listToVec(C, Args[I - 1], Elems, R, Improper))
        return Improper ? PrimResult::error("append: improper list") : R;
      if (!buildList(C, Elems, Out, Out))
        return PrimResult::needsGc();
      P.charge(Elems.size() * 2);
    }
    return PrimResult::ok(Out);
  }

  case PrimId::Reverse: {
    std::vector<Value> Elems;
    bool Improper;
    if (!listToVec(C, Args[0], Elems, R, Improper))
      return Improper ? PrimResult::error("reverse: improper list") : R;
    std::reverse(Elems.begin(), Elems.end());
    Value Out;
    if (!buildList(C, Elems, Value::nil(), Out))
      return PrimResult::needsGc();
    P.charge(Elems.size());
    return PrimResult::ok(Out);
  }

  case PrimId::Length: {
    Value L = Args[0];
    int64_t N = 0;
    for (;;) {
      if (!touchOrBlock(C, L, R))
        return R;
      if (L.isNil())
        return PrimResult::ok(Value::fixnum(N));
      if (!isPairV(L))
        return PrimResult::error("length: improper list");
      ++N;
      L = L.asObject()->cdr();
      P.charge(1);
    }
  }

  case PrimId::Memq:
  case PrimId::Member: {
    Value Key = Args[0];
    if (!touchOrBlock(C, Key, R))
      return R;
    Value L = Args[1];
    for (;;) {
      if (!touchOrBlock(C, L, R))
        return R;
      if (L.isNil())
        return PrimResult::ok(Value::falseV());
      if (!isPairV(L))
        return PrimResult::error("memq/member: improper list");
      Value Head = L.asObject()->car();
      if (!touchOrBlock(C, Head, R))
        return R;
      bool Hit;
      if (Id == PrimId::Memq) {
        Hit = Head.identical(Key);
      } else {
        int Eq = equalTouching(C, Head, Key, R, 100000);
        if (Eq == 2)
          return R;
        Hit = Eq == 0;
      }
      if (Hit)
        return PrimResult::ok(L);
      L = L.asObject()->cdr();
      P.charge(2);
    }
  }

  case PrimId::Assq:
  case PrimId::Assoc: {
    Value Key = Args[0];
    if (!touchOrBlock(C, Key, R))
      return R;
    Value L = Args[1];
    for (;;) {
      if (!touchOrBlock(C, L, R))
        return R;
      if (L.isNil())
        return PrimResult::ok(Value::falseV());
      if (!isPairV(L))
        return PrimResult::error("assq/assoc: improper list");
      Value Entry = L.asObject()->car();
      if (!touchOrBlock(C, Entry, R))
        return R;
      if (isPairV(Entry)) {
        Value EKey = Entry.asObject()->car();
        if (!touchOrBlock(C, EKey, R))
          return R;
        bool Hit;
        if (Id == PrimId::Assq) {
          Hit = EKey.identical(Key);
        } else {
          int Eq = equalTouching(C, EKey, Key, R, 100000);
          if (Eq == 2)
            return R;
          Hit = Eq == 0;
        }
        if (Hit)
          return PrimResult::ok(Entry);
      }
      L = L.asObject()->cdr();
      P.charge(3);
    }
  }

  case PrimId::EqualP: {
    int Eq = equalTouching(C, Args[0], Args[1], R, 100000);
    if (Eq == 2)
      return R;
    P.charge(4);
    return PrimResult::ok(Value::boolean(Eq == 0));
  }

  case PrimId::AtomP:
  case PrimId::SymbolP:
  case PrimId::NumberP:
  case PrimId::StringP:
  case PrimId::VectorP:
  case PrimId::BooleanP:
  case PrimId::ProcedureP:
  case PrimId::CharP: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    bool Res = false;
    switch (Id) {
    case PrimId::AtomP: Res = !isPairV(V); break;
    case PrimId::SymbolP: Res = isSymbolV(V); break;
    case PrimId::NumberP: Res = isNumberV(V); break;
    case PrimId::StringP: Res = isStringV(V); break;
    case PrimId::VectorP: Res = isVectorV(V); break;
    case PrimId::BooleanP: Res = V.isBoolean(); break;
    case PrimId::ProcedureP:
      Res = V.isObject() && V.asObject()->tag() == TypeTag::Closure;
      break;
    default: Res = V.isChar(); break;
    }
    return PrimResult::ok(Value::boolean(Res));
  }

  case PrimId::ZeroP:
  case PrimId::NegativeP:
  case PrimId::PositiveP:
  case PrimId::OddP:
  case PrimId::EvenP: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (!isNumberV(V))
      return PrimResult::error(
          strFormat("%s: not a number", primInfo(Id).Name));
    if (Id == PrimId::OddP || Id == PrimId::EvenP) {
      if (!V.isFixnum())
        return PrimResult::error("odd?/even?: not a fixnum");
      bool Odd = (V.asFixnum() % 2) != 0;
      return PrimResult::ok(Value::boolean(Id == PrimId::OddP ? Odd : !Odd));
    }
    double D = numAsDouble(V);
    bool Res = Id == PrimId::ZeroP ? D == 0
               : Id == PrimId::NegativeP ? D < 0
                                         : D > 0;
    return PrimResult::ok(Value::boolean(Res));
  }

  case PrimId::Abs: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (V.isFixnum())
      return PrimResult::ok(Value::fixnum(std::abs(V.asFixnum())));
    if (!isNumberV(V))
      return PrimResult::error("abs: not a number");
    Object *F = allocOrNull(C, TypeTag::Flonum, 1, Object::FlagRaw);
    if (!F)
      return PrimResult::needsGc();
    F->setFlonumValue(std::abs(V.asObject()->flonumValue()));
    return PrimResult::ok(Value::object(F));
  }

  case PrimId::Min:
  case PrimId::Max: {
    Value Best = Args[0];
    if (!touchOrBlock(C, Best, R))
      return R;
    if (!isNumberV(Best))
      return PrimResult::error("min/max: not a number");
    for (uint32_t I = 1; I < Argc; ++I) {
      Value V = Args[I];
      if (!touchOrBlock(C, V, R))
        return R;
      if (!isNumberV(V))
        return PrimResult::error("min/max: not a number");
      bool Take = Id == PrimId::Min ? numAsDouble(V) < numAsDouble(Best)
                                    : numAsDouble(V) > numAsDouble(Best);
      if (Take)
        Best = V;
      P.charge(2);
    }
    return PrimResult::ok(Best);
  }

  case PrimId::Modulo: {
    Value A = Args[0], B = Args[1];
    if (!touchOrBlock(C, A, R) || !touchOrBlock(C, B, R))
      return R;
    if (!A.isFixnum() || !B.isFixnum())
      return PrimResult::error("modulo: operands must be fixnums");
    if (B.asFixnum() == 0)
      return PrimResult::error("modulo: division by zero");
    int64_t M = A.asFixnum() % B.asFixnum();
    if (M != 0 && ((M < 0) != (B.asFixnum() < 0)))
      M += B.asFixnum();
    return PrimResult::ok(Value::fixnum(M));
  }

  case PrimId::Divide: {
    Value Acc = Args[0];
    if (!touchOrBlock(C, Acc, R))
      return R;
    if (!isNumberV(Acc))
      return PrimResult::error("/: not a number");
    double X = numAsDouble(Acc);
    if (Argc == 1) {
      if (X == 0)
        return PrimResult::error("/: division by zero");
      X = 1.0 / X;
    }
    for (uint32_t I = 1; I < Argc; ++I) {
      Value V = Args[I];
      if (!touchOrBlock(C, V, R))
        return R;
      if (!isNumberV(V))
        return PrimResult::error("/: not a number");
      double D = numAsDouble(V);
      if (D == 0)
        return PrimResult::error("/: division by zero");
      X /= D;
      P.charge(6);
    }
    Object *F = allocOrNull(C, TypeTag::Flonum, 1, Object::FlagRaw);
    if (!F)
      return PrimResult::needsGc();
    F->setFlonumValue(X);
    return PrimResult::ok(Value::object(F));
  }

  case PrimId::Get: {
    Value Sym = Args[0], Key = Args[1];
    if (!touchOrBlock(C, Sym, R) || !touchOrBlock(C, Key, R))
      return R;
    if (!isSymbolV(Sym))
      return PrimResult::error("get: not a symbol");
    for (Value L = Sym.asObject()->plist(); !L.isNil();
         L = L.asObject()->cdr()) {
      Value Entry = L.asObject()->car();
      if (Entry.asObject()->car().identical(Key))
        return PrimResult::ok(Entry.asObject()->cdr());
      P.charge(2);
    }
    return PrimResult::ok(Value::nil());
  }

  case PrimId::Put: {
    Value Sym = Args[0], Key = Args[1], Val = Args[2];
    if (!touchOrBlock(C, Sym, R) || !touchOrBlock(C, Key, R))
      return R;
    if (!isSymbolV(Sym))
      return PrimResult::error("put: not a symbol");
    Object *SymO = Sym.asObject();
    for (Value L = SymO->plist(); !L.isNil(); L = L.asObject()->cdr()) {
      Value Entry = L.asObject()->car();
      if (Entry.asObject()->car().identical(Key)) {
        Entry.asObject()->setCdr(Val);
        return PrimResult::ok(Val);
      }
      P.charge(2);
    }
    Object *Entry = allocOrNull(C, TypeTag::Pair, 2);
    if (!Entry)
      return PrimResult::needsGc();
    Entry->setCar(Key);
    Entry->setCdr(Val);
    Object *Link = allocOrNull(C, TypeTag::Pair, 2);
    if (!Link)
      return PrimResult::needsGc();
    Link->setCar(Value::object(Entry));
    Link->setCdr(SymO->plist());
    SymO->setPlist(Value::object(Link));
    return PrimResult::ok(Val);
  }

  case PrimId::MakeVector: {
    Value N = Args[0];
    if (!touchOrBlock(C, N, R))
      return R;
    if (!N.isFixnum() || N.asFixnum() < 0)
      return PrimResult::error("make-vector: bad length");
    Value Fill = Argc > 1 ? Args[1] : Value::fixnum(0);
    auto Len = static_cast<uint32_t>(N.asFixnum());
    Object *V = allocOrNull(C, TypeTag::Vector, Len + 1);
    if (!V)
      return PrimResult::needsGc();
    V->setSlot(0, Value::fixnum(Len));
    for (uint32_t I = 0; I < Len; ++I)
      V->setSlot(I + 1, Fill);
    P.charge(Len / 2 + 1);
    return PrimResult::ok(Value::object(V));
  }

  case PrimId::VectorCtor: {
    Object *V = allocOrNull(C, TypeTag::Vector, Argc + 1);
    if (!V)
      return PrimResult::needsGc();
    V->setSlot(0, Value::fixnum(Argc));
    for (uint32_t I = 0; I < Argc; ++I)
      V->setSlot(I + 1, Args[I]);
    P.charge(Argc);
    return PrimResult::ok(Value::object(V));
  }

  case PrimId::ListToVector: {
    std::vector<Value> Elems;
    bool Improper;
    if (!listToVec(C, Args[0], Elems, R, Improper))
      return Improper ? PrimResult::error("list->vector: improper list") : R;
    Object *V = allocOrNull(C, TypeTag::Vector,
                            static_cast<uint32_t>(Elems.size()) + 1);
    if (!V)
      return PrimResult::needsGc();
    V->setSlot(0, Value::fixnum(static_cast<int64_t>(Elems.size())));
    for (size_t I = 0; I < Elems.size(); ++I)
      V->setSlot(static_cast<uint32_t>(I) + 1, Elems[I]);
    P.charge(Elems.size());
    return PrimResult::ok(Value::object(V));
  }

  case PrimId::VectorToList: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (!isVectorV(V))
      return PrimResult::error("vector->list: not a vector");
    std::vector<Value> Elems;
    for (int64_t I = 0, N = V.asObject()->vectorLength(); I < N; ++I) {
      E.recordAccess(P, T, V.asObject(), static_cast<uint32_t>(I),
                     /*IsWrite=*/false);
      Elems.push_back(V.asObject()->vectorRef(I));
    }
    Value Out;
    if (!buildList(C, Elems, Value::nil(), Out))
      return PrimResult::needsGc();
    P.charge(Elems.size() * 2);
    return PrimResult::ok(Out);
  }

  case PrimId::VectorFill: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (!isVectorV(V))
      return PrimResult::error("vector-fill!: not a vector");
    for (int64_t I = 0, N = V.asObject()->vectorLength(); I < N; ++I) {
      E.recordAccess(P, T, V.asObject(), static_cast<uint32_t>(I),
                     /*IsWrite=*/true);
      V.asObject()->vectorSet(I, Args[1]);
    }
    P.charge(static_cast<uint64_t>(V.asObject()->vectorLength()));
    return PrimResult::ok(Value::unspecified());
  }

  case PrimId::StringLength: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (!isStringV(V))
      return PrimResult::error("string-length: not a string");
    return PrimResult::ok(
        Value::fixnum(static_cast<int64_t>(V.asObject()->stringLength())));
  }

  case PrimId::StringRef: {
    Value S = Args[0], N = Args[1];
    if (!touchOrBlock(C, S, R) || !touchOrBlock(C, N, R))
      return R;
    if (!isStringV(S) || !N.isFixnum())
      return PrimResult::error("string-ref: bad arguments");
    int64_t K = N.asFixnum();
    if (K < 0 || K >= static_cast<int64_t>(S.asObject()->stringLength()))
      return PrimResult::error("string-ref: index out of range");
    return PrimResult::ok(Value::character(
        static_cast<unsigned char>(S.asObject()->stringView()[K])));
  }

  case PrimId::StringAppend: {
    std::string Out;
    for (uint32_t I = 0; I < Argc; ++I) {
      Value S = Args[I];
      if (!touchOrBlock(C, S, R))
        return R;
      if (!isStringV(S))
        return PrimResult::error("string-append: not a string");
      Out += S.asObject()->stringView();
    }
    bool Failed;
    Value V = makeStringValue(C, Out, Failed);
    if (Failed)
      return PrimResult::needsGc();
    P.charge(Out.size() / 4 + 1);
    return PrimResult::ok(V);
  }

  case PrimId::StringEqualP: {
    Value A = Args[0], B = Args[1];
    if (!touchOrBlock(C, A, R) || !touchOrBlock(C, B, R))
      return R;
    if (!isStringV(A) || !isStringV(B))
      return PrimResult::error("string=?: not a string");
    return PrimResult::ok(
        Value::boolean(A.asObject()->stringView() ==
                       B.asObject()->stringView()));
  }

  case PrimId::SymbolToString: {
    Value S = Args[0];
    if (!touchOrBlock(C, S, R))
      return R;
    if (!isSymbolV(S))
      return PrimResult::error("symbol->string: not a symbol");
    return PrimResult::ok(S.asObject()->symbolName());
  }

  case PrimId::StringToSymbol: {
    Value S = Args[0];
    if (!touchOrBlock(C, S, R))
      return R;
    if (!isStringV(S))
      return PrimResult::error("string->symbol: not a string");
    uint64_t Cycles = 0;
    Object *Sym = E.symbols().intern(S.asObject()->stringView(), P.Clock,
                                     &Cycles);
    P.charge(Cycles);
    return PrimResult::ok(Value::object(Sym));
  }

  case PrimId::NumberToString: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (!isNumberV(V))
      return PrimResult::error("number->string: not a number");
    std::string S = V.isFixnum()
                        ? strFormat("%lld", static_cast<long long>(
                                                V.asFixnum()))
                        : strFormat("%g", V.asObject()->flonumValue());
    bool Failed;
    Value Out = makeStringValue(C, S, Failed);
    if (Failed)
      return PrimResult::needsGc();
    return PrimResult::ok(Out);
  }

  case PrimId::CharToInteger: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (!V.isChar())
      return PrimResult::error("char->integer: not a character");
    return PrimResult::ok(Value::fixnum(V.asChar()));
  }

  case PrimId::IntegerToChar: {
    Value V = Args[0];
    if (!touchOrBlock(C, V, R))
      return R;
    if (!V.isFixnum() || V.asFixnum() < 0 || V.asFixnum() > 0x10ffff)
      return PrimResult::error("integer->char: bad code point");
    return PrimResult::ok(
        Value::character(static_cast<uint32_t>(V.asFixnum())));
  }

  case PrimId::Display:
    return primDisplay(C, Args[0], /*Machine=*/false);
  case PrimId::WritePrim:
    return primDisplay(C, Args[0], /*Machine=*/true);
  case PrimId::Newline:
    P.charge(E.terminalLock().acquire(P.Clock, cost::TerminalLockHold));
    T.DidIo = true; // console output cannot be replayed by recovery
    ++T.SideEffectEpoch;
    E.console() << '\n';
    return PrimResult::ok(Value::unspecified());

  case PrimId::Random: {
    Value N = Args[0];
    if (!touchOrBlock(C, N, R))
      return R;
    if (!N.isFixnum() || N.asFixnum() <= 0)
      return PrimResult::error("random: bound must be a positive fixnum");
    return PrimResult::ok(Value::fixnum(static_cast<int64_t>(
        E.prng().nextBelow(static_cast<uint64_t>(N.asFixnum())))));
  }

  case PrimId::ErrorPrim: {
    Value Msg = Args[0];
    if (!touchOrBlock(C, Msg, R))
      return R;
    std::string Text;
    StringOutStream OS(Text);
    PrintOptions Disp;
    Disp.Machine = false;
    printValue(OS, Msg, Disp);
    for (uint32_t I = 1; I < Argc; ++I) {
      OS << ' ';
      printValue(OS, Args[I]);
    }
    return PrimResult::error(std::move(Text));
  }

  case PrimId::MakeSemaphore: {
    int64_t Count = 0;
    if (Argc > 0) {
      Value N = Args[0];
      if (!touchOrBlock(C, N, R))
        return R;
      if (!N.isFixnum() || N.asFixnum() < 0)
        return PrimResult::error("make-semaphore: bad count");
      Count = N.asFixnum();
    }
    Object *S = allocOrNull(C, TypeTag::Semaphore, Object::SemaphoreSizeWords);
    if (!S)
      return PrimResult::needsGc();
    S->setSlot(Object::SemCount, Value::fixnum(Count));
    S->setSlot(Object::SemWaiters, Value::nil());
    return PrimResult::ok(Value::object(S));
  }

  case PrimId::SemaphoreP: {
    Value S = Args[0];
    if (!touchOrBlock(C, S, R))
      return R;
    if (!S.isObject() || S.asObject()->tag() != TypeTag::Semaphore)
      return PrimResult::error("semaphore-p: not a semaphore");
    switch (sem::p(E, P, T, S.asObject())) {
    case sem::POutcome::Acquired:
      ++T.SemaphoresHeld;
      ++T.SideEffectEpoch; // acquiring is observable: invalidate checkpoints
      return PrimResult::ok(Value::trueV());
    case sem::POutcome::Blocked:
      return PrimResult{PrimResult::Status::BlockedSemaphore,
                        Value::unspecified(), {}, {}, {}};
    case sem::POutcome::NeedsGc:
      return PrimResult::needsGc();
    }
    return PrimResult::error("semaphore-p: internal error");
  }

  case PrimId::SemaphoreV: {
    Value S = Args[0];
    if (!touchOrBlock(C, S, R))
      return R;
    if (!S.isObject() || S.asObject()->tag() != TypeTag::Semaphore)
      return PrimResult::error("semaphore-v: not a semaphore");
    if (T.SemaphoresHeld)
      --T.SemaphoresHeld;
    ++T.SideEffectEpoch; // releasing is observable: invalidate checkpoints
    sem::v(E, P, S.asObject());
    return PrimResult::ok(Value::unspecified());
  }

  case PrimId::DynPush: {
    Value Sym = Args[0];
    if (!touchOrBlock(C, Sym, R))
      return R;
    if (!isSymbolV(Sym))
      return PrimResult::error("%dyn-push: not a symbol");
    if (!dynenv::push(E, P, T, Sym, Args[1]))
      return PrimResult::needsGc();
    return PrimResult::ok(Value::unspecified());
  }
  case PrimId::DynPop:
    dynenv::pop(T);
    return PrimResult::ok(Value::unspecified());
  case PrimId::DynRef: {
    Value Sym = Args[0];
    if (!touchOrBlock(C, Sym, R))
      return R;
    Value Out;
    if (!dynenv::ref(E, P, T, Sym, Out))
      return PrimResult::error(strFormat(
          "unbound fluid variable: %s",
          std::string(Sym.asObject()->symbolText()).c_str()));
    return PrimResult::ok(Out);
  }
  case PrimId::DynSet: {
    Value Sym = Args[0];
    if (!touchOrBlock(C, Sym, R))
      return R;
    if (!dynenv::set(E, P, T, Sym, Args[1]))
      return PrimResult::error(strFormat(
          "set of unbound fluid variable: %s",
          std::string(Sym.asObject()->symbolText()).c_str()));
    return PrimResult::ok(Value::unspecified());
  }
  case PrimId::DynDefine: {
    Value Sym = Args[0];
    if (!touchOrBlock(C, Sym, R))
      return R;
    if (!isSymbolV(Sym))
      return PrimResult::error("%dyn-define: not a symbol");
    if (!dynenv::define(E, P, Sym, Args[1]))
      return PrimResult::needsGc();
    return PrimResult::ok(Value::unspecified());
  }

  case PrimId::Apply: {
    Value Fn = Args[0];
    if (!touchOrBlock(C, Fn, R))
      return R;
    // Validate the argument list (touching its spine) up front.
    Value L = Args[1];
    for (;;) {
      if (!touchOrBlock(C, L, R))
        return R;
      if (L.isNil())
        break;
      if (!isPairV(L))
        return PrimResult::error("apply: improper argument list");
      L = L.asObject()->cdr();
    }
    PrimResult A;
    A.S = PrimResult::Status::Apply;
    A.ApplyFn = Fn;
    A.ApplyArgs = Args[1];
    return A;
  }

  case PrimId::GcPrim: {
    // Force a collection: complete this instruction via a wake action,
    // then report allocation failure so the machine collects.
    T.HasWakeAction = true;
    T.WakePop = 0;
    T.WakeValue = Value::unspecified();
    return PrimResult::needsGc();
  }

  case PrimId::FutureP:
    // Deliberately *not* strict: tests the placeholder tag bit.
    return PrimResult::ok(Value::boolean(Args[0].isFuture()));

  case PrimId::DeterminedP: {
    Value V = Args[0];
    while (V.isFuture()) {
      Object *F = V.pointee();
      if (!F->futureResolved())
        return PrimResult::ok(Value::falseV());
      V = F->futureValue();
    }
    return PrimResult::ok(Value::trueV());
  }

  case PrimId::AddN:
  case PrimId::SubN:
  case PrimId::MulN: {
    // Variadic arithmetic behind the first-class wrappers for + - *.
    double FAcc = Id == PrimId::MulN ? 1.0 : 0.0;
    int64_t IAcc = Id == PrimId::MulN ? 1 : 0;
    bool Flo = false;
    for (uint32_t I = 0; I < Argc; ++I) {
      Value V = Args[I];
      if (!touchOrBlock(C, V, R))
        return R;
      if (!isNumberV(V))
        return PrimResult::error(
            strFormat("%s: operand is not a number", primInfo(Id).Name));
      bool First = I == 0;
      double D = numAsDouble(V);
      if (!Flo && V.isFixnum()) {
        int64_t X = V.asFixnum(), Out = 0;
        bool Overflow = false;
        switch (Id) {
        case PrimId::AddN:
          Overflow = __builtin_add_overflow(IAcc, X, &Out);
          break;
        case PrimId::MulN:
          Overflow = __builtin_mul_overflow(IAcc, X, &Out);
          break;
        default: // SubN
          if (First)
            Out = Argc == 1 ? -X : X;
          else
            Overflow = __builtin_sub_overflow(IAcc, X, &Out);
          break;
        }
        if (!Overflow && Value::fitsFixnum(Out)) {
          IAcc = Out;
          FAcc = static_cast<double>(Out);
          P.charge(1);
          continue;
        }
      }
      // Flonum (or overflow) path.
      if (!Flo) {
        FAcc = static_cast<double>(IAcc);
        Flo = true;
      }
      switch (Id) {
      case PrimId::AddN:
        FAcc += D;
        break;
      case PrimId::MulN:
        FAcc *= D;
        break;
      default:
        FAcc = First ? (Argc == 1 ? -D : D) : FAcc - D;
        break;
      }
      P.charge(2);
    }
    if (!Flo)
      return PrimResult::ok(Value::fixnum(IAcc));
    Object *F = allocOrNull(C, TypeTag::Flonum, 1, Object::FlagRaw);
    if (!F)
      return PrimResult::needsGc();
    F->setFlonumValue(FAcc);
    return PrimResult::ok(Value::object(F));
  }

  case PrimId::CurrentTask:
    return PrimResult::ok(
        Value::fixnum(static_cast<int64_t>(taskIndex(T.Id))));
  case PrimId::CurrentProcessor:
    return PrimResult::ok(Value::fixnum(P.Id));

  case PrimId::NumPrims:
    break;
  }
  return PrimResult::error("unimplemented primitive");
}
