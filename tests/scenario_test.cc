// Scenario engine tests: built-in presets, the key=value spec parser, and a
// deterministic-seed phased run that pins phase boundaries, open-loop pacing
// counters and Zipfian hotspot concentration.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/invariants.h"
#include "src/harness/driver.h"
#include "src/scenario/scenario.h"

namespace sb7 {
namespace {

// --- built-ins ---

TEST(ScenarioBuiltinsTest, AllNamesResolveAndAreWellFormed) {
  for (const std::string& name : BuiltinScenarioNames()) {
    const std::optional<Scenario> scenario = FindBuiltinScenario(name);
    ASSERT_TRUE(scenario.has_value()) << name;
    EXPECT_EQ(scenario->name, name);
    EXPECT_GE(scenario->phases.size(), 2u) << name;
    EXPECT_GT(scenario->TotalWeight(), 0.0) << name;
    for (const PhaseSpec& phase : scenario->phases) {
      EXPECT_GT(phase.duration_weight, 0.0) << name << "/" << phase.name;
      if (phase.arrival != ArrivalModel::kClosed) {
        EXPECT_GT(phase.rate_ops_per_sec, 0.0) << name << "/" << phase.name;
      }
    }
  }
}

TEST(ScenarioBuiltinsTest, UnknownNameErrorListsValidOnes) {
  const ScenarioParseResult result = LoadScenario("no-such-scenario");
  ASSERT_FALSE(result.scenario.has_value());
  for (const std::string& name : BuiltinScenarioNames()) {
    EXPECT_NE(result.error.find(name), std::string::npos) << result.error;
  }
}

TEST(ScenarioBuiltinsTest, DiurnalMixesArrivalModels) {
  const std::optional<Scenario> diurnal = FindBuiltinScenario("diurnal");
  ASSERT_TRUE(diurnal.has_value());
  bool has_poisson = false;
  bool has_bursty = false;
  for (const PhaseSpec& phase : diurnal->phases) {
    has_poisson |= phase.arrival == ArrivalModel::kPoisson;
    has_bursty |= phase.arrival == ArrivalModel::kBursty;
  }
  EXPECT_TRUE(has_poisson);
  EXPECT_TRUE(has_bursty);
}

// --- spec parser ---

ScenarioParseResult ParseText(const std::string& text) {
  std::istringstream in(text);
  return ParseScenarioSpec(in, "inline");
}

TEST(ScenarioSpecTest, ParsesPhasesAndKeys) {
  const ScenarioParseResult result = ParseText(R"(
# demo scenario
name = demo
phase = warm
duration = 2
workload = rw
phase = storm
read_fraction = 0.05
arrival = poisson
rate = 2500
zipf = 0.9
hot_fraction = 0.05
threads = 6
traversals = off
sms = off
disable = OP4, OP5
max_ops = 123
)");
  ASSERT_TRUE(result.scenario.has_value()) << result.error;
  const Scenario& scenario = *result.scenario;
  EXPECT_EQ(scenario.name, "demo");
  ASSERT_EQ(scenario.phases.size(), 2u);
  const PhaseSpec& warm = scenario.phases[0];
  EXPECT_EQ(warm.name, "warm");
  EXPECT_DOUBLE_EQ(warm.duration_weight, 2.0);
  ASSERT_TRUE(warm.read_fraction.has_value());
  EXPECT_DOUBLE_EQ(*warm.read_fraction, 0.6);  // rw preset
  EXPECT_EQ(warm.arrival, ArrivalModel::kClosed);
  const PhaseSpec& storm = scenario.phases[1];
  EXPECT_DOUBLE_EQ(*storm.read_fraction, 0.05);
  EXPECT_EQ(storm.arrival, ArrivalModel::kPoisson);
  EXPECT_DOUBLE_EQ(storm.rate_ops_per_sec, 2500.0);
  EXPECT_DOUBLE_EQ(storm.zipf_theta, 0.9);
  EXPECT_DOUBLE_EQ(storm.hot_fraction, 0.05);
  EXPECT_EQ(storm.threads, 6);
  EXPECT_EQ(storm.long_traversals, false);
  EXPECT_EQ(storm.structure_mods, false);
  EXPECT_EQ(storm.disabled_ops.count("OP4"), 1u);
  EXPECT_EQ(storm.disabled_ops.count("OP5"), 1u);
  EXPECT_EQ(storm.max_ops, 123);
}

TEST(ScenarioSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseText("").scenario.has_value());  // no phases
  EXPECT_FALSE(ParseText("duration=1\n").scenario.has_value());  // before phase=
  EXPECT_FALSE(ParseText("phase=p\nnot a key value\n").scenario.has_value());
  EXPECT_FALSE(ParseText("phase=p\nbogus=1\n").scenario.has_value());
  EXPECT_FALSE(ParseText("phase=p\nread_fraction=1.5\n").scenario.has_value());
  EXPECT_FALSE(ParseText("phase=p\nzipf=1.0\n").scenario.has_value());
  EXPECT_FALSE(ParseText("phase=p\nthreads=0\n").scenario.has_value());
  EXPECT_FALSE(ParseText("phase=p\narrival=poisson\n").scenario.has_value());  // rate missing
  EXPECT_FALSE(ParseText("phase=p\narrival=sometimes\n").scenario.has_value());
  // Errors carry the line number of the offending key.
  const ScenarioParseResult bad = ParseText("phase=p\nzipf=2\n");
  EXPECT_NE(bad.error.find("line 2"), std::string::npos) << bad.error;
  // Phase names stay single tokens: delimiters are rejected.
  EXPECT_FALSE(ParseText("phase=storm,v2\n").scenario.has_value());
  EXPECT_FALSE(ParseText("phase=a\"b\n").scenario.has_value());
}

TEST(ScenarioSpecTest, LoadScenarioReadsSpecFiles) {
  const std::string path = ::testing::TempDir() + "/sb7_scenario_spec_test.scenario";
  {
    std::ofstream out(path);
    out << "phase=only\nduration=1\nread_fraction=0.5\n";
  }
  const ScenarioParseResult result = LoadScenario(path);
  ASSERT_TRUE(result.scenario.has_value()) << result.error;
  EXPECT_EQ(result.scenario->phases.size(), 1u);
  EXPECT_NE(result.scenario->name.find("sb7_scenario_spec_test"), std::string::npos);
  std::remove(path.c_str());
}

// --- deterministic phased run ---

// Three phases, each capped by max_ops (durations are effectively infinite),
// single-threaded: the whole run is a pure function of the seed. Phase 2 is
// open-loop Poisson at an absurd rate so pacing never sleeps; phase 3 turns
// on a strong Zipfian hotspot.
BenchConfig DeterministicScenarioConfig() {
  const ScenarioParseResult parsed = []() {
    std::istringstream in(R"(
name=pinned
phase=reads
read_fraction=1.0
max_ops=300
phase=paced
read_fraction=0.1
arrival=poisson
rate=1000000000
max_ops=200
phase=hot
read_fraction=0.5
zipf=0.9
hot_fraction=0.1
max_ops=400
)");
    return ParseScenarioSpec(in, "pinned");
  }();
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 1;
  config.length_seconds = 3600.0;
  config.seed = 4242;
  config.scenario = parsed.scenario;
  return config;
}

TEST(ScenarioRunTest, DeterministicSeedPinsPhasesPacingAndHotspot) {
  const BenchConfig config = DeterministicScenarioConfig();
  ASSERT_TRUE(config.scenario.has_value());

  BenchmarkRunner first(config);
  const BenchResult a = first.Run();
  EXPECT_TRUE(CheckInvariants(first.data()).ok());

  ASSERT_EQ(a.phases.size(), 3u);
  // Phase boundaries: every phase ends exactly at its started-op cap.
  EXPECT_EQ(a.phases[0].total_started, 300);
  EXPECT_EQ(a.phases[1].total_started, 200);
  EXPECT_EQ(a.phases[2].total_started, 400);
  EXPECT_EQ(a.total_started, 900);

  // Open-loop pacing counters: exactly one arrival per started operation,
  // only in the paced phase.
  EXPECT_EQ(a.phases[0].pace.arrivals, 0);
  EXPECT_EQ(a.phases[1].pace.arrivals, 200);
  EXPECT_EQ(a.phases[1].pace.queue_delay.total_count(), 200);
  EXPECT_EQ(a.phases[2].pace.arrivals, 0);

  // Hotspot concentration: only the hot phase draws skewed ids, and the hot
  // 10% of the id space absorbs far more than 10% of the draws.
  EXPECT_EQ(a.phases[0].hot_samples, 0);
  EXPECT_EQ(a.phases[1].hot_samples, 0);
  ASSERT_GT(a.phases[2].hot_samples, 0);
  const double hit_rate = static_cast<double>(a.phases[2].hot_hits) /
                          static_cast<double>(a.phases[2].hot_samples);
  EXPECT_GT(hit_rate, 0.3);

  // The phase mix actually shifted: phase 1 is pure reads, phase 2 is not.
  EXPECT_DOUBLE_EQ(a.phases[0].read_fraction, 1.0);
  EXPECT_DOUBLE_EQ(a.phases[1].read_fraction, 0.1);

  // Bit-for-bit repeatability under the same seed.
  BenchmarkRunner second(config);
  const BenchResult b = second.Run();
  ASSERT_EQ(b.phases.size(), a.phases.size());
  for (size_t p = 0; p < a.phases.size(); ++p) {
    EXPECT_EQ(a.phases[p].total_started, b.phases[p].total_started) << p;
    EXPECT_EQ(a.phases[p].total_success, b.phases[p].total_success) << p;
    EXPECT_EQ(a.phases[p].pace.arrivals, b.phases[p].pace.arrivals) << p;
    EXPECT_EQ(a.phases[p].hot_samples, b.phases[p].hot_samples) << p;
    EXPECT_EQ(a.phases[p].hot_hits, b.phases[p].hot_hits) << p;
    ASSERT_EQ(a.phases[p].per_op.size(), b.phases[p].per_op.size());
    for (size_t i = 0; i < a.phases[p].per_op.size(); ++i) {
      EXPECT_EQ(a.phases[p].per_op[i].success, b.phases[p].per_op[i].success) << p << ":" << i;
      EXPECT_EQ(a.phases[p].per_op[i].failed, b.phases[p].per_op[i].failed) << p << ":" << i;
    }
  }
}

TEST(ScenarioRunTest, PureReadPhaseRunsOnlyReadOnlyOps) {
  const BenchConfig config = DeterministicScenarioConfig();
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  const auto& ops = runner.registry().all();
  ASSERT_EQ(result.phases.size(), 3u);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i]->read_only()) {
      EXPECT_EQ(result.phases[0].per_op[i].started(), 0) << ops[i]->name();
    }
  }
}

TEST(ScenarioRunTest, PhaseCapWaitingDoesNotBurnTheGlobalBudget) {
  // Two phases capped at 50 started ops each, with a global --max-ops of
  // exactly 100: waiting out phase one's cap must not consume budget that
  // phase two needs (regression: the global claim used to run on every loop
  // iteration, including ones that never started an operation).
  const ScenarioParseResult parsed =
      ParseText("phase=a\nmax_ops=50\nphase=b\nmax_ops=50\n");
  ASSERT_TRUE(parsed.scenario.has_value()) << parsed.error;
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 1;
  config.length_seconds = 3600.0;
  config.max_operations = 100;
  config.scenario = parsed.scenario;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_EQ(result.phases[0].total_started, 50);
  EXPECT_EQ(result.phases[1].total_started, 50);
}

TEST(ScenarioRunTest, LowRateOpenLoopPhasesStillEndOnTime) {
  // One arrival every ~2 seconds against 0.2-second phases: the workers
  // spend essentially the whole phase parked inside the arrival wait, which
  // must still observe the phase deadline (regression: the wait loop only
  // watched for phase flips, so nobody was left to flip the phase).
  const ScenarioParseResult parsed = ParseText(
      "phase=a\narrival=poisson\nrate=0.5\nphase=b\narrival=poisson\nrate=0.5\n");
  ASSERT_TRUE(parsed.scenario.has_value()) << parsed.error;
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 1;
  config.length_seconds = 0.4;
  config.scenario = parsed.scenario;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_GT(result.phases[1].elapsed_seconds, 0.0);  // phase b actually ran
  EXPECT_LT(result.elapsed_seconds, 2.0);            // and nothing stalled on arrivals
}

TEST(ScenarioRunTest, RampSpawnsTheMaxThreadCountAndRunsAllPhases) {
  BenchConfig config;
  config.strategy = "tl2";
  config.scale = "tiny";
  config.threads = 1;  // the scenario's per-phase counts override this
  config.length_seconds = 0.8;
  config.scenario = FindBuiltinScenario("ramp");
  ASSERT_TRUE(config.scenario.has_value());

  BenchmarkRunner runner(config);
  EXPECT_EQ(runner.spawned_threads(), 8);
  const BenchResult result = runner.Run();
  ASSERT_EQ(result.phases.size(), 4u);
  int expected_threads = 1;
  for (const PhaseResult& phase : result.phases) {
    EXPECT_EQ(phase.threads, expected_threads) << phase.name;
    expected_threads *= 2;
    EXPECT_GT(phase.total_started, 0) << phase.name;
    EXPECT_GT(phase.elapsed_seconds, 0.0) << phase.name;
  }
  EXPECT_TRUE(CheckInvariants(runner.data()).ok());
}

TEST(ScenarioRunTest, WriteStormUnderMvstmKeepsInvariants) {
  BenchConfig config;
  config.strategy = "mvstm";
  config.scale = "tiny";
  config.threads = 4;
  config.length_seconds = 0.9;
  config.scenario = FindBuiltinScenario("write-storm");
  ASSERT_TRUE(config.scenario.has_value());

  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  ASSERT_EQ(result.phases.size(), 3u);
  EXPECT_GT(result.total_success, 0);
  // The storm phase carries the Zipfian hotspot.
  EXPECT_GT(result.phases[1].hot_samples, 0);
  EXPECT_TRUE(CheckInvariants(runner.data()).ok());
}

}  // namespace
}  // namespace sb7
