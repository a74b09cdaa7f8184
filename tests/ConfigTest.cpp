//===----------------------------------------------------------------------===//
///
/// \file
/// The MULT_ENGINE_CONFIG table: defaults, ranges, the environment reader
/// and the documents that list its variables.
///
//===----------------------------------------------------------------------===//

#include "core/Config.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace mult;

namespace {

/// Sets one environment variable for the guard's lifetime.
class EnvGuard {
public:
  EnvGuard(const char *Name, const char *Value) : Name(Name) {
    setenv(Name, Value, 1);
  }
  ~EnvGuard() { unsetenv(Name); }

private:
  const char *Name;
};

/// readEnvironment on \p C, returning what it printed to stderr.
std::string readEnv(EngineConfig &C) {
  testing::internal::CaptureStderr();
  C.readEnvironment();
  return testing::internal::GetCapturedStderr();
}

std::string sourceFile(const char *Rel) {
  std::ifstream In(std::string(MULT_SOURCE_DIR) + "/" + Rel);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

TEST(ConfigTest, RowDefaultsAreTheFieldDefaults) {
  const EngineConfig D;
#define MULT_CHECK_DEFAULT(Type, Field, Default, Var, Parse, Min, Max, Doc)  \
  EXPECT_TRUE(D.Field == Type(Default)) << #Field;
  MULT_ENGINE_CONFIG(MULT_CHECK_DEFAULT)
#undef MULT_CHECK_DEFAULT
  std::string Err;
  EXPECT_TRUE(D.validate(Err)) << Err;
}

/// Every row's variable ("" for none), parse kind and range.
struct Row {
  const char *Field, *Var;
  ConfigParse Parse;
  uint64_t Min, Max;
};
const Row Rows[] = {
#define MULT_ROW(Type, Field, Default, Var, Parse, Min, Max, Doc)            \
  {#Field, Var, ConfigParse::Parse, Min, Max},
    MULT_ENGINE_CONFIG(MULT_ROW)
#undef MULT_ROW
};

TEST(ConfigTest, RowsWithAVariableNameOne) {
  for (const Row &R : Rows) {
    bool HasVar = std::string_view(R.Var).substr(0, 5) == "MULT_";
    EXPECT_EQ(HasVar, R.Parse != ConfigParse::None) << R.Field;
    EXPECT_LE(R.Min, R.Max) << R.Field;
  }
}

TEST(ConfigTest, ValidateBoundsNumProcessors) {
  std::string Err;
  for (unsigned Bad : {0u, 257u, unsigned(UINT_MAX)}) {
    EngineConfig C;
    C.NumProcessors = Bad;
    Err.clear();
    EXPECT_FALSE(C.validate(Err)) << Bad;
    EXPECT_NE(Err.find("NumProcessors"), std::string::npos) << Err;
    EXPECT_NE(Err.find("[1, 256]"), std::string::npos) << Err;
  }
  for (unsigned Good : {1u, 256u}) {
    EngineConfig C;
    C.NumProcessors = Good;
    EXPECT_TRUE(C.validate(Err)) << Err;
  }
}

TEST(ConfigTest, ValidateRefusesWhatTheCodeWouldClampOrAssert) {
  std::string Err;
  EngineConfig C;
  C.AdaptiveWindowCycles = 0;
  EXPECT_FALSE(C.validate(Err));
  C = EngineConfig();
  C.MaxLiveGroups = 100001;
  EXPECT_FALSE(C.validate(Err));
  C = EngineConfig();
  C.LargeObjectWords = C.ChunkWords + 1;
  EXPECT_FALSE(C.validate(Err));
  EXPECT_NE(Err.find("nest"), std::string::npos) << Err;
  C = EngineConfig();
  C.HeapWords = C.ChunkWords - 1;
  EXPECT_FALSE(C.validate(Err));
}

TEST(ConfigTest, MalformedCountWarnsOnceAndKeepsTheDefault) {
  for (const char *Bad : {"12x", "18446744073709551616", "-1", ""}) {
    EnvGuard G("MULT_CHECKPOINT", Bad);
    EngineConfig C;
    EXPECT_EQ(readEnv(C),
              "mult: ignoring MULT_CHECKPOINT: '" + std::string(Bad) +
                  "' is not a count in [0, 18446744073709551615] or off\n");
    EXPECT_EQ(C.CheckpointEvery, 0u);
  }
  EnvGuard G("MULT_CHECKPOINT", "2000");
  EngineConfig C;
  EXPECT_EQ(readEnv(C), "");
  EXPECT_EQ(C.CheckpointEvery, 2000u);
}

TEST(ConfigTest, AFieldSetInCodeWins) {
  EnvGuard Cp("MULT_CHECKPOINT", "2000");
  EnvGuard Race("MULT_RACE", "0");
  EnvGuard Faults("MULT_FAULTS", "steal-fail=0.5");
  EngineConfig C;
  C.CheckpointEvery = 7;
  C.RaceDetect = true;
  C.Faults = "gc-at=100";
  EXPECT_EQ(readEnv(C), "");
  EXPECT_EQ(C.CheckpointEvery, 7u);
  EXPECT_TRUE(C.RaceDetect);
  EXPECT_EQ(C.Faults, "gc-at=100");
  EngineConfig D;
  readEnv(D);
  EXPECT_EQ(D.CheckpointEvery, 2000u);
  EXPECT_FALSE(D.RaceDetect);
  EXPECT_EQ(D.Faults, "steal-fail=0.5");
}

TEST(ConfigTest, BoolsTakeZeroOrOffAsFalse) {
  for (auto [Text, Want] : {std::pair{"0", false}, {"off", false},
                            {"1", true}, {"yes", true}, {"", true}}) {
    EnvGuard G("MULT_RECOVERY", Text);
    EngineConfig C;
    readEnv(C);
    EXPECT_EQ(C.Recovery, Want) << Text;
  }
}

TEST(ConfigTest, QuotaFillsEachQuotaFieldStillAtItsDefault) {
  EnvGuard G("MULT_QUOTA", "heap=4096;cycles=9;live=2;queue=3");
  EngineConfig C;
  C.GroupCycleBudget = 100;
  EXPECT_EQ(readEnv(C), "");
  EXPECT_EQ(C.GroupHeapQuotaWords, 4096u);
  EXPECT_EQ(C.GroupCycleBudget, 100u);
  EXPECT_EQ(C.MaxLiveGroups, 2u);
  EXPECT_EQ(C.MaxQueuedGroups, 3u);

  EnvGuard Bad("MULT_QUOTA", "live=200000");
  EngineConfig D;
  std::string Warn = readEnv(D);
  EXPECT_EQ(Warn.rfind("mult: ignoring MULT_QUOTA: bad quota clause", 0), 0u)
      << Warn;
  EXPECT_EQ(D.MaxLiveGroups, 0u);
}

TEST(ConfigTest, DocumentsNameEveryVariable) {
  std::string Readme = sourceFile("README.md");
  std::string Bench = sourceFile("bench/BenchUtil.h");
  ASSERT_FALSE(Readme.empty());
  ASSERT_FALSE(Bench.empty());
  // The switch comment is the head of BenchUtil.h, before its first
  // function.
  Bench = Bench.substr(0, Bench.find("inline bool"));
  for (const Row &R : Rows) {
    if (R.Parse == ConfigParse::None)
      continue;
    EXPECT_NE(Readme.find(R.Var), std::string::npos) << R.Var;
    EXPECT_NE(Bench.find(R.Var), std::string::npos) << R.Var;
  }
}

} // namespace
