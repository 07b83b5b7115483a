// Golden-output tests pinning the machine-readable run report (`stmbench7
// --json`, schema 3): well-formedness through the in-tree JSON parser, the
// key set of every block, and the document order of the top-level and
// config keys. Report refactors that would silently break downstream parsers
// must fail here first — and bumping the schema must be a deliberate,
// test-visible act.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/harness/report.h"

namespace sb7 {
namespace {

// One deterministic tiny run shared by the format tests: single thread,
// op-capped, fixed seed.
const BenchResult& GoldenResult(const BenchmarkRunner** runner_out) {
  static BenchmarkRunner* runner = nullptr;
  static BenchResult* result = nullptr;
  if (result == nullptr) {
    BenchConfig config;
    config.strategy = "tl2";
    config.scale = "tiny";
    config.threads = 1;
    config.length_seconds = 3600.0;
    config.max_operations = 150;
    config.seed = 20070326;
    runner = new BenchmarkRunner(config);
    result = new BenchResult(runner->Run());
  }
  *runner_out = runner;
  return *result;
}

std::set<std::string> KeysOf(const JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.Members()) {
    keys.insert(key);
  }
  return keys;
}

// The parser keeps no member order, so document order is read off the text:
// each key must first appear after the one before it.
void ExpectKeysInOrder(const std::string& text, const std::vector<std::string>& keys) {
  size_t at = 0;
  for (const std::string& key : keys) {
    const size_t found = text.find("\"" + key + "\": ", at);
    ASSERT_NE(found, std::string::npos) << "key \"" << key << "\" missing or out of order";
    at = found + 1;
  }
}

const std::set<std::string> kStmKeys = {
    "starts", "commits", "aborts", "reads", "writes", "validation_steps", "bytes_cloned",
    "kills", "ro_starts", "ro_commits", "ro_aborts", "abort_causes"};
const std::set<std::string> kAbortCauseKeys = {"read_validation", "write_lock", "kill",
                                               "snapshot_too_old", "unknown"};

void ExpectStmBlock(const JsonValue* stm) {
  ASSERT_NE(stm, nullptr);
  EXPECT_EQ(KeysOf(*stm), kStmKeys);
  const JsonValue* causes = stm->Find("abort_causes");
  ASSERT_NE(causes, nullptr);
  EXPECT_EQ(KeysOf(*causes), kAbortCauseKeys);
}

TEST(JsonGoldenTest, DocumentIsWellFormedAndKeySetIsPinned) {
  const BenchmarkRunner* runner = nullptr;
  const BenchResult& result = GoldenResult(&runner);
  std::ostringstream out;
  WriteJson(out, *runner, result);
  const std::string text = out.str();

  const JsonParseResult parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << "JSON output is not well-formed: " << parsed.error;
  const JsonValue& doc = parsed.value;
  ASSERT_TRUE(doc.is_object());

  // Top-level and config keys, in document order. Plain runs carry no
  // "phases" block and untraced runs no "trace" block.
  ExpectKeysInOrder(text, {"schema", "config", "strategy", "contention_manager", "scale",
                           "workload", "threads", "length_seconds", "seed", "elapsed_seconds",
                           "total_success", "total_started", "throughput_success",
                           "throughput_started", "stm", "operations"});
  EXPECT_EQ(KeysOf(doc), (std::set<std::string>{"schema", "config", "elapsed_seconds",
                                                "total_success", "total_started",
                                                "throughput_success", "throughput_started",
                                                "stm", "operations"}));
  EXPECT_EQ(doc.Find("schema")->AsNumber(), 3.0);
  EXPECT_NE(text.find("\"schema\": 3,"), std::string::npos);

  const JsonValue* config = doc.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(KeysOf(*config),
            (std::set<std::string>{"strategy", "contention_manager", "scale", "workload",
                                   "threads", "length_seconds", "seed"}));
  EXPECT_EQ(config->Find("strategy")->AsString(), "tl2");

  // The stm block carries the abort-cause breakdown.
  ExpectStmBlock(doc.Find("stm"));

  // Every per-operation row carries the full pinned key set.
  const JsonValue* operations = doc.Find("operations");
  ASSERT_NE(operations, nullptr);
  ASSERT_FALSE(operations->Items().empty());
  const std::set<std::string> op_keys = {
      "op",      "category", "read_only", "ratio",  "completed", "failed",       "max_ms",
      "mean_ms", "p50_ms",   "p90_ms",    "p99_ms", "p999_ms",   "started_per_s"};
  for (const JsonValue& op : operations->Items()) {
    EXPECT_EQ(KeysOf(op), op_keys) << op.Find("op")->AsString();
  }
}

TEST(JsonGoldenTest, ScenarioDocumentCarriesThePinnedPhaseBlocks) {
  BenchConfig config;
  config.strategy = "mvstm";
  config.scale = "tiny";
  config.threads = 2;
  config.length_seconds = 3600.0;
  config.seed = 7;
  Scenario scenario;
  scenario.name = "golden-json";
  for (int p = 0; p < 2; ++p) {
    PhaseSpec phase;
    phase.name = "g" + std::to_string(p);
    phase.max_ops = 40;
    phase.read_fraction = p == 0 ? 0.9 : 0.1;
    scenario.phases.push_back(phase);
  }
  config.scenario = scenario;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();

  std::ostringstream out;
  WriteJson(out, runner, result);
  const std::string text = out.str();
  const JsonParseResult parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& doc = parsed.value;
  EXPECT_EQ(doc.Find("schema")->AsNumber(), 3.0);
  ExpectKeysInOrder(text, {"schema", "config", "workload", "scenario", "threads",
                           "operations", "phases"});
  EXPECT_EQ(doc.Find("config")->Find("scenario")->AsString(), "golden-json");

  // Exactly one block per phase, in phase order, each with the pinned keys.
  const JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->Items().size(), 2u);
  const std::set<std::string> phase_keys = {
      "name",    "arrival", "threads",   "read_fraction", "zipf_theta",    "hot_fraction",
      "elapsed_seconds",    "completed", "started",       "ops_per_s",     "started_per_s",
      "open_loop",          "hotspot",   "stm"};
  for (size_t p = 0; p < phases->Items().size(); ++p) {
    const JsonValue& phase = phases->Items()[p];
    EXPECT_EQ(KeysOf(phase), phase_keys);
    EXPECT_EQ(phase.Find("name")->AsString(), "g" + std::to_string(p));
    EXPECT_EQ(phase.Find("arrival")->AsString(), "closed");
    const JsonValue* open_loop = phase.Find("open_loop");
    ASSERT_NE(open_loop, nullptr);
    EXPECT_EQ(KeysOf(*open_loop), (std::set<std::string>{"target_rate", "arrivals", "delayed",
                                                         "backlog_peak", "queue_delay_ms"}));
    EXPECT_EQ(KeysOf(*open_loop->Find("queue_delay_ms")),
              (std::set<std::string>{"p50", "p90", "p99", "p999", "max"}));
    EXPECT_EQ(KeysOf(*phase.Find("hotspot")), (std::set<std::string>{"hits", "samples"}));
    ExpectStmBlock(phase.Find("stm"));
  }
}

}  // namespace
}  // namespace sb7
