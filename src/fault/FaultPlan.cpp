//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-plan spec parsing and formatting, driven by MULT_FAULT_CLAUSES:
/// each clause's field type picks its parser, formatter and post-parse
/// order from the overload sets below.
///
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cstdlib>

namespace mult {

namespace {

/// Largest run-relative cycle a stall window may end at: one bit of
/// headroom keeps run start + end a representable clock.
constexpr uint64_t kMaxStallEnd = (1ull << 63) - 1;

/// A decimal in [Min, Max].
bool parseNumber(std::string_view S, uint64_t Min, uint64_t Max,
                 uint64_t &Out) {
  uint64_t V;
  if (!parseU64(trim(S), V) || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

// One list entry per shape. Min bounds the entry's first number.

bool parseItem(std::string_view S, uint64_t Min, uint64_t &Out) {
  return parseNumber(S, Min, ~0ull, Out);
}

/// X@C, X <= 0xffff.
bool parseItem(std::string_view S, uint64_t Min, FaultPlan::MarkAt &Out) {
  size_t At = S.find('@');
  uint64_t X;
  if (At == std::string_view::npos ||
      !parseNumber(S.substr(0, At), Min, 0xffff, X) ||
      !parseNumber(S.substr(At + 1), 0, ~0ull, Out.AtCycles))
    return false;
  Out.Proc = unsigned(X);
  return true;
}

/// P@B+L, P <= 0xffff, L >= 1, B + L <= kMaxStallEnd.
bool parseItem(std::string_view S, uint64_t Min,
               FaultPlan::StallWindow &Out) {
  size_t At = S.find('@');
  if (At == std::string_view::npos)
    return false;
  size_t Plus = S.find('+', At + 1);
  uint64_t Proc;
  if (Plus == std::string_view::npos ||
      !parseNumber(S.substr(0, At), Min, 0xffff, Proc) ||
      !parseNumber(S.substr(At + 1, Plus - At - 1), 0, kMaxStallEnd,
                   Out.Begin) ||
      !parseNumber(S.substr(Plus + 1), 1, kMaxStallEnd - Out.Begin,
                   Out.Length))
    return false;
  Out.Proc = unsigned(Proc);
  return true;
}

/// N@V, V <= 2^32-1.
bool parseItem(std::string_view S, uint64_t Min,
               FaultPlan::AdaptClampAt &Out) {
  size_t At = S.find('@');
  uint64_t Value;
  if (At == std::string_view::npos ||
      !parseNumber(S.substr(0, At), Min, ~0ull, Out.Window) ||
      !parseNumber(S.substr(At + 1), 0, 0xffffffffull, Value))
    return false;
  Out.Value = uint32_t(Value);
  return true;
}

// One clause value per field type; a list clause appends its entries.

bool parseValue(std::string_view S, uint64_t Min, uint64_t &Out) {
  return parseItem(S, Min, Out);
}

bool parseValue(std::string_view S, uint64_t Min,
                std::optional<uint32_t> &Out) {
  uint64_t V;
  if (!parseNumber(S, Min, 0xffffffffull, V))
    return false;
  Out = uint32_t(V);
  return true;
}

/// A probability: a number in [0, 1] (not NaN, not empty).
bool parseValue(std::string_view S, uint64_t, double &Out) {
  std::string Buf(S);
  char *End = nullptr;
  double V = std::strtod(Buf.c_str(), &End);
  if (Buf.empty() || End != Buf.c_str() + Buf.size() ||
      !(V >= 0.0 && V <= 1.0))
    return false;
  Out = V;
  return true;
}

template <class T>
bool parseValue(std::string_view S, uint64_t Min, std::vector<T> &Out) {
  for (std::string_view Part : splitAny(S, ",")) {
    T Item;
    if (!parseItem(trim(Part), Min, Item))
      return false;
    Out.push_back(Item);
  }
  return true;
}

void formatItem(std::string &S, uint64_t V) { S += std::to_string(V); }

void formatItem(std::string &S, const FaultPlan::MarkAt &M) {
  S += strFormat("%u@%llu", M.Proc, (unsigned long long)M.AtCycles);
}

void formatItem(std::string &S, const FaultPlan::StallWindow &W) {
  S += strFormat("%u@%llu+%llu", W.Proc, (unsigned long long)W.Begin,
                 (unsigned long long)W.Length);
}

void formatItem(std::string &S, const FaultPlan::AdaptClampAt &A) {
  S += strFormat("%llu@%u", (unsigned long long)A.Window, A.Value);
}

void formatValue(std::string &S, uint64_t V) { formatItem(S, V); }

void formatValue(std::string &S, const std::optional<uint32_t> &V) {
  formatItem(S, *V);
}

void formatValue(std::string &S, double P) { S += strFormat("%g", P); }

template <class T>
void formatValue(std::string &S, const std::vector<T> &L) {
  for (size_t I = 0; I < L.size(); ++I) {
    if (I)
      S += ",";
    formatItem(S, L[I]);
  }
}

/// Ordinal and cycle lists: sorted, duplicates dropped.
void normalize(std::vector<uint64_t> &L) {
  std::sort(L.begin(), L.end());
  L.erase(std::unique(L.begin(), L.end()), L.end());
}

/// Marks, stalls and clamps: stable-sorted by key, duplicates kept.
template <class T> void normalize(std::vector<T> &L) {
  std::stable_sort(L.begin(), L.end(), [](const T &A, const T &B) {
    return clauseKey(A) < clauseKey(B);
  });
}

template <class T> void normalize(T &) {}

} // namespace

bool FaultPlan::empty() const {
  const FaultPlan Unset;
#define X(KEY, TYPE, FIELD, INIT, MIN, KIND)                                   \
  if (FaultKind::KIND != FaultKind::None && FIELD != Unset.FIELD)              \
    return false;
  MULT_FAULT_CLAUSES(X)
#undef X
  return true;
}

std::string FaultPlan::format() const {
  const FaultPlan Unset;
  std::string S;
#define X(KEY, TYPE, FIELD, INIT, MIN, KIND)                                   \
  if (FIELD != Unset.FIELD) {                                                  \
    S += S.empty() ? KEY "=" : ";" KEY "=";                                    \
    formatValue(S, FIELD);                                                     \
  }
  MULT_FAULT_CLAUSES(X)
#undef X
  return S;
}

bool FaultPlan::parse(std::string_view Spec, FaultPlan &Out, std::string &Err) {
  Out = FaultPlan();
  for (std::string_view RawClause : splitAny(Spec, ";")) {
    std::string_view C = trim(RawClause);
    if (C.empty())
      continue;
    size_t Eq = C.find('=');
    if (Eq == std::string_view::npos) {
      Err = strFormat("clause '%.*s' has no '='", int(C.size()), C.data());
      return false;
    }
    std::string_view Key = trim(C.substr(0, Eq));
    std::string_view Val = trim(C.substr(Eq + 1));
    std::optional<bool> Ok; // unset: no clause has this key
#define X(KEY, TYPE, FIELD, INIT, MIN, KIND)                                   \
  if (Key == KEY)                                                              \
    Ok = parseValue(Val, MIN, Out.FIELD);
    MULT_FAULT_CLAUSES(X)
#undef X
    if (!Ok) {
      Err = strFormat("unknown fault clause '%.*s'", int(Key.size()),
                      Key.data());
      return false;
    }
    if (!*Ok) {
      Err = strFormat("bad value in clause '%.*s'", int(C.size()), C.data());
      return false;
    }
  }
#define X(KEY, TYPE, FIELD, INIT, MIN, KIND) normalize(Out.FIELD);
  MULT_FAULT_CLAUSES(X)
#undef X
  return true;
}

} // namespace mult
