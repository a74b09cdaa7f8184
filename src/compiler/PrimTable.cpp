//===----------------------------------------------------------------------===//
///
/// \file
/// Primitive registry implementation.
///
//===----------------------------------------------------------------------===//

#include "compiler/PrimTable.h"

#include <cassert>
#include <unordered_map>

using namespace mult;

static const PrimInfo PrimInfos[] = {
#define MULT_PRIM_INFO(Id, Name, Min, Max, Cost)                               \
  {PrimId::Id, Name, Min, Max, Cost},
    MULT_PRIM_LIST(MULT_PRIM_INFO)
#undef MULT_PRIM_INFO
};

const PrimInfo &mult::primInfo(PrimId Id) {
  assert(Id < PrimId::NumPrims && "bad primitive id");
  return PrimInfos[static_cast<size_t>(Id)];
}

std::optional<PrimId> mult::lookupPrim(std::string_view Name) {
  static const auto *Map = [] {
    auto *M = new std::unordered_map<std::string_view, PrimId>();
    for (const PrimInfo &P : PrimInfos)
      M->emplace(P.Name, P.Id);
    return M;
  }();
  auto It = Map->find(Name);
  if (It == Map->end())
    return std::nullopt;
  return It->second;
}

static constexpr FastOp FastOps[] = {
#define MULT_FAST_OP(NAME, LISP, ARITY, STRICT, NONFUTURE, ETA)                \
  {LISP, {Op::NAME, ARITY, STRICT, NONFUTURE}, ETA},
#define X(NAME, MNEMONIC, COST, SHAPE, ...)                                    \
  __VA_OPT__(MULT_FAST_OP(NAME, __VA_ARGS__))
    MULT_OPCODES(X)
#undef X
#undef MULT_FAST_OP
};

std::span<const FastOp> mult::fastOps() { return FastOps; }

std::optional<FastOpInfo> mult::lookupFastOp(std::string_view Name) {
  for (const FastOp &F : FastOps)
    if (F.Name == Name)
      return F.Info;
  return std::nullopt;
}
