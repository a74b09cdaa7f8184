//===----------------------------------------------------------------------===//
///
/// \file
/// The engine counter table (core/Stats.h) and the renderers it drives:
/// every counter prints exactly once, each run-json layer section carries
/// exactly its layer's keys, and `:stats` shows each section once.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "ui/Repl.h"

#include <cstdlib>
#include <string>
#include <vector>

using namespace mult;
using namespace mult::testutil;

namespace {

size_t countOf(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Hay.find(Needle); P != std::string::npos;
       P = Hay.find(Needle, P + 1))
    ++N;
  return N;
}

struct Row {
  std::string Key;
  uint64_t Value;
  StatRule Rule;
};

/// An EngineStats with a distinct six-digit value per counter (so no value
/// is a substring of another), plus the table rows that produced it.
EngineStats filledStats(std::vector<Row> &Rows) {
  const StatRule RuleOf[] = {
#define MULT_TEST_SECTION_RULE(Name, Prefix, Rule) StatRule::Rule,
      MULT_STAT_SECTIONS(MULT_TEST_SECTION_RULE)
#undef MULT_TEST_SECTION_RULE
  };
  EngineStats S;
  uint64_t Next = 100000;
#define MULT_TEST_FILL(Field, Key, Label, Section)                             \
  S.Field = ++Next;                                                            \
  Rows.push_back(                                                              \
      {Key, S.Field, RuleOf[static_cast<unsigned>(StatSection::Section)]});
  MULT_ENGINE_COUNTERS(MULT_TEST_FILL)
#undef MULT_TEST_FILL
  return S;
}

/// The `"<Name>":{...}` object of a one-line run-json record, up to the
/// first closing brace (layer counters hold no nested objects before it).
std::string section(const std::string &Json, const std::string &Name) {
  size_t At = Json.find("\"" + Name + "\":{");
  if (At == std::string::npos)
    return "";
  return Json.substr(At, Json.find('}', At) - At);
}

TEST(StatsTable, RendererPrintsEveryCounterExactlyOnce) {
  std::vector<Row> Rows;
  EngineStats S = filledStats(Rows);
  std::string Text;
  StringOutStream OS(Text);
  renderStats(OS, S);
  for (const Row &R : Rows)
    EXPECT_EQ(countOf(Text, std::to_string(R.Value)), 1u)
        << R.Key << " in:\n" << Text;
}

TEST(StatsTable, RunJsonLayerSectionsCarryExactlyTheirKeys) {
  std::vector<Row> Rows;
  EngineStats S = filledStats(Rows);
  Telemetry T;
  std::string Armed;
  StringOutStream OS(Armed);
  writeRunJson(OS, "t", S, T, nullptr, RunLayers{true, true, true});
  ASSERT_EQ(Armed.rfind(";; run-json: {\"tag\":\"t\"", 0), 0u) << Armed;
  EXPECT_EQ(countOf(Armed, "\n"), 1u) << "one record is one line";

  const std::string Core = section(Armed, "core");
  const std::string Faults = section(Armed, "faults");
  const std::string Ckpt = section(Armed, "checkpoint");
  const std::string Tenant = section(Armed, "tenant");
  for (const Row &R : Rows) {
    std::string Pair = "\"" + R.Key + "\":" + std::to_string(R.Value);
    bool InCore = R.Rule == StatRule::Always || R.Rule == StatRule::NonZero;
    EXPECT_EQ(countOf(Armed, Pair), 1u) << Pair;
    EXPECT_EQ(countOf(Core, Pair), InCore ? 1u : 0u) << Pair;
    EXPECT_EQ(countOf(Faults, Pair), R.Rule == StatRule::Faults ? 1u : 0u)
        << Pair;
    EXPECT_EQ(countOf(Ckpt, Pair), R.Rule == StatRule::Checkpoint ? 1u : 0u)
        << Pair;
    EXPECT_EQ(countOf(Tenant, Pair), R.Rule == StatRule::Tenant ? 1u : 0u)
        << Pair;
  }

  // Dormant layers leave no trace in the record.
  std::string Dormant;
  StringOutStream DOS(Dormant);
  writeRunJson(DOS, "t", S, T, nullptr, RunLayers{});
  for (const char *Layer : {"faults", "checkpoint", "tenant", "races"})
    EXPECT_EQ(section(Dormant, Layer), "") << Layer << " in " << Dormant;
  EXPECT_NE(section(Dormant, "core"), "");
}

TEST(StatsRepl, StatsShowsEverySectionOnceUnderProcKill) {
  setenv("MULT_FAULTS", "proc-kill=1@40000", 1);
  Engine E(config(4));
  unsetenv("MULT_FAULTS");
  std::string Buf;
  StringOutStream Out(Buf);
  Repl R(E, Out);
  R.processLine("(define (fib n) (if (< n 2) n (+ (touch (future (fib (- n "
                "1)))) (fib (- n 2)))))");
  R.processLine("(fib 20)");
  ASSERT_NE(Buf.find("6765"), std::string::npos) << Buf;
  Buf.clear();
  R.processLine(":stats");
  for (const char *Prefix :
       {"tasks:", "futures:", "lazy seams:", "touches:", "scheduling:",
        "execution:", "last run:", "robustness:", "recovery:", "stealing:",
        "gc:", "latency (virtual cycles):"})
    EXPECT_EQ(countOf("\n" + Buf, std::string("\n") + Prefix), 1u)
        << Prefix << " in:\n" << Buf;
  size_t Rec = Buf.find("\nrecovery: 1 procs killed");
  ASSERT_NE(Rec, std::string::npos) << Buf;
  EXPECT_NE(Buf.substr(Rec + 1, Buf.find('\n', Rec + 1) - Rec)
                .find("wakes redirected"),
            std::string::npos)
      << Buf;
}

} // namespace
