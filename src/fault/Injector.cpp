//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-injector cursors.
///
//===----------------------------------------------------------------------===//

#include "fault/Injector.h"

#include <algorithm>

namespace mult {

void FaultInjector::configure(const FaultPlan &P) {
  Plan = P;
  Armed = false;
  Rng = Prng(Plan.Seed);
  LieRng = Prng(Plan.Seed ^ kLieStream);
  std::fill(std::begin(Cursors), std::end(Cursors), Cursor());
  StallDone.assign(Plan.Stalls.size(), false);
  PendingInjectedAllocFail = false;
}

namespace {

/// Advances \p Next past every entry of \p Sorted keyed <= \p N and
/// returns the last one keyed exactly \p N (null if none).
template <class T>
const T *consumeUpTo(const std::vector<T> &Sorted, size_t &Next, uint64_t N) {
  const T *Hit = nullptr;
  for (; Next < Sorted.size() && clauseKey(Sorted[Next]) <= N; ++Next)
    if (clauseKey(Sorted[Next]) == N)
      Hit = &Sorted[Next];
  return Hit;
}

/// The entry at \p Next if it is keyed <= \p RelClock, consuming it.
template <class T>
const T *takeDue(const std::vector<T> &Sorted, size_t &Next,
                 uint64_t RelClock) {
  if (Next >= Sorted.size() || clauseKey(Sorted[Next]) > RelClock)
    return nullptr;
  return &Sorted[Next++];
}

bool draw(Prng &R, double P) {
  return P > 0.0 && double(R.next() >> 11) * 0x1.0p-53 < P;
}

} // namespace

bool FaultInjector::hit(FaultClause C) {
  uint64_t N = ++Cursors[size_t(C)].Count;
  bool Hit;
  if (C == FaultClause::StealFailProb)
    Hit = draw(Rng, Plan.StealFailProb);
  else if (C == FaultClause::CrossCheckProb)
    Hit = draw(LieRng, crossCheckProb());
  else if (C == FaultClause::AllocFailEvery)
    Hit = Plan.AllocFailEvery && N % Plan.AllocFailEvery == 0;
  else
    Hit = hit(C, N);
  if (Hit && kClauseKind[size_t(C)] == FaultKind::AllocFail)
    PendingInjectedAllocFail = true;
  return Hit;
}

bool FaultInjector::hit(FaultClause C, uint64_t Ordinal, uint32_t *ValueOut) {
  size_t &Next = Cursors[size_t(C)].Next;
  if (const auto *L = Plan.field<std::vector<uint64_t>>(C))
    return consumeUpTo(*L, Next, Ordinal);
  const FaultPlan::AdaptClampAt *A =
      consumeUpTo(*Plan.field<std::vector<FaultPlan::AdaptClampAt>>(C), Next,
                  Ordinal);
  if (A && ValueOut)
    *ValueOut = A->Value;
  return A;
}

bool FaultInjector::consumeInjectedAllocFail() {
  bool Was = PendingInjectedAllocFail;
  PendingInjectedAllocFail = false;
  return Was;
}

bool FaultInjector::takeMark(FaultClause C, uint64_t RelClock,
                             FaultMark &Out) {
  size_t &Next = Cursors[size_t(C)].Next;
  Out = FaultMark{kClauseKind[size_t(C)]};
  if (const auto *L = Plan.field<std::vector<uint64_t>>(C)) {
    const uint64_t *Cycle = takeDue(*L, Next, RelClock);
    if (Cycle)
      Out.At = *Cycle;
    return Cycle;
  }
  const FaultPlan::MarkAt *M =
      takeDue(*Plan.field<std::vector<FaultPlan::MarkAt>>(C), Next, RelClock);
  if (M) {
    Out.Target = M->Proc;
    Out.At = M->AtCycles;
  }
  return M;
}

std::optional<FaultMark> FaultInjector::nextMark(unsigned Proc,
                                                 uint64_t RelClock) {
  FaultMark M;
  for (FaultClause C : kMarkPollOrder) {
    if (C != FaultClause::Stalls) {
      if (takeMark(C, RelClock, M))
        return M;
      continue;
    }
    for (size_t I = 0; I < Plan.Stalls.size(); ++I) {
      const FaultPlan::StallWindow &W = Plan.Stalls[I];
      if (StallDone[I] || W.Proc != Proc || W.Begin > RelClock)
        continue;
      StallDone[I] = true;
      if (W.Begin + W.Length > RelClock)
        return FaultMark{FaultKind::Stall, Proc, W.Begin,
                         W.Begin + W.Length};
    }
  }
  return std::nullopt;
}

} // namespace mult
