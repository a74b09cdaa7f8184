//===----------------------------------------------------------------------===//
///
/// \file
/// The environment reader and range check generated from
/// MULT_ENGINE_CONFIG.
///
//===----------------------------------------------------------------------===//

#include "core/Config.h"

#include "core/Tenancy.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>
#include <type_traits>

using namespace mult;

namespace {

bool inRange(uint64_t V, uint64_t Min, uint64_t Max) {
  return V >= Min && V <= Max;
}

template <class T> void fillIfDefault(T &Field, T Value) {
  if (Field == T())
    Field = Value;
}

/// Applies \p Var, when set, to \p Field unless code moved the field off
/// its \p Default. Spec strings are parsed by their layers later.
template <ConfigParse Parse, class T>
void readVar(EngineConfig &C, T &Field, const T &Default, const char *Var,
             uint64_t Min, uint64_t Max) {
  const char *Env = Parse == ConfigParse::None ? nullptr : std::getenv(Var);
  if (!Env)
    return;
  std::string_view Text(Env);
  std::string Err;
  if constexpr (Parse == ConfigParse::Spec &&
                !std::is_same_v<T, std::string>) {
    // MULT_QUOTA, the one spec row over numbers, fills each quota field at 0.
    EngineConfig Q;
    if (Tenancy::parseQuota(Text, Q, Err)) {
      fillIfDefault(C.GroupHeapQuotaWords, Q.GroupHeapQuotaWords);
      fillIfDefault(C.GroupCycleBudget, Q.GroupCycleBudget);
      fillIfDefault(C.MaxLiveGroups, Q.MaxLiveGroups);
      fillIfDefault(C.MaxQueuedGroups, Q.MaxQueuedGroups);
    }
  } else if (Field != Default) {
    return;
  } else if constexpr (Parse == ConfigParse::Bool) {
    Field = Text != "0" && Text != "off";
  } else if constexpr (Parse == ConfigParse::U64) {
    uint64_t V = 0;
    if (Text == "off" || (parseU64(Text, V) && inRange(V, Min, Max)))
      Field = static_cast<T>(V);
    else
      Err = strFormat("'%s' is not a count in [%llu, %llu] or off", Env,
                      static_cast<unsigned long long>(Min),
                      static_cast<unsigned long long>(Max));
  } else if constexpr (std::is_same_v<T, std::string>) {
    Field = Env;
  }
  if (!Err.empty())
    warnIgnored(Var, Err);
}

/// The field's value as a count; nullopt when it has none to check.
template <class T> std::optional<uint64_t> countOf(const T &V) {
  if constexpr (std::is_same_v<T, std::optional<unsigned>>)
    return V;
  else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>)
    return static_cast<uint64_t>(V);
  return std::nullopt;
}

} // namespace

void EngineConfig::readEnvironment() {
  const EngineConfig D;
#define MULT_CONFIG_READ(Type, Field, Default, Var, Parse, Min, Max, Doc)    \
  readVar<ConfigParse::Parse>(*this, Field, D.Field, Var, Min, Max);
  MULT_ENGINE_CONFIG(MULT_CONFIG_READ)
#undef MULT_CONFIG_READ
}

void mult::warnIgnored(const char *What, const std::string &Why) {
  std::fprintf(stderr, "mult: ignoring %s: %s\n", What, Why.c_str());
}

bool EngineConfig::validate(std::string &Err) const {
  Err.clear();
#define MULT_CONFIG_CHECK(Type, Field, Default, Var, Parse, Min, Max, Doc)   \
  if (std::optional<uint64_t> V = countOf(Field); V && !inRange(*V, Min, Max)) \
    Err = strFormat("%s = %llu is outside [%llu, %llu]", #Field,              \
                    static_cast<unsigned long long>(*V),                      \
                    static_cast<unsigned long long>(Min),                     \
                    static_cast<unsigned long long>(Max));
  MULT_ENGINE_CONFIG(MULT_CONFIG_CHECK)
#undef MULT_CONFIG_CHECK
  if (ChunkWords > HeapWords || LargeObjectWords > ChunkWords)
    Err = strFormat("heap sizes must nest: LargeObjectWords (%zu) <= "
                    "ChunkWords (%zu) <= HeapWords (%zu)",
                    LargeObjectWords, ChunkWords, HeapWords);
  return Err.empty();
}
