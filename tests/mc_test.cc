// Tests for the deterministic interleaving explorer (src/mc/): scheduler
// determinism, sleep-set reduction soundness, the pinned historical-race
// regressions with trace round-trip replay, and bounded STM exploration.
// Compiled only in SB7_MC builds (see CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "src/mc/explorer.h"
#include "src/mc/litmus.h"
#include "src/mc/scheduler.h"
#include "src/mc/trace_io.h"

namespace sb7::mc {
namespace {

ExploreOptions SmokeOptions() {
  ExploreOptions options;
  options.max_schedules = 500;
  options.max_steps = 400;
  return options;
}

const Litmus& Registered(const char* name) {
  const Litmus* litmus = FindLitmus(name);
  EXPECT_NE(litmus, nullptr) << name;
  return *litmus;
}

TEST(McExplorerTest, ExplorationIsDeterministic) {
  // Same litmus, same options: the full sequence of explored schedules must
  // be identical run to run — that is what makes traces replayable and CI
  // failures reproducible.
  for (const char* name : {"astm-priority-race", "dpor-2x2", "tracer-tls-uaf"}) {
    const Litmus& litmus = Registered(name);
    const ExploreResult first = Explore(litmus, SmokeOptions());
    const ExploreResult second = Explore(litmus, SmokeOptions());
    EXPECT_EQ(first.schedules, second.schedules) << name;
    EXPECT_EQ(first.failures, second.failures) << name;
    EXPECT_EQ(first.schedule_tids, second.schedule_tids) << name;
  }
}

// A 2-thread / 2-variable message-passing litmus whose reachable outcomes
// are known exactly: T0 stores x then y; T1 loads x then y. The reader can
// observe (0,0), (1,0), (1,1) — and (0,1) by reading x before the writer
// runs and y after. Sleep sets must preserve this *outcome set* while
// exploring fewer (or equal) schedules.
struct MpCells {
  sp::AtomicU64 x{0}, y{0};
  uint64_t rx = 0, ry = 0;
};

Litmus MakeOutcomeLitmus(const std::shared_ptr<MpCells>& cells,
                         const std::shared_ptr<std::set<std::pair<uint64_t, uint64_t>>>&
                             outcomes) {
  Litmus litmus;
  litmus.name = "test-mp-outcomes";
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->x.store(0, std::memory_order_relaxed);
    cells->y.store(0, std::memory_order_relaxed);
    cells->rx = cells->ry = 0;
  };
  litmus.bodies = {
      [cells] {
        cells->x.store(1, std::memory_order_relaxed);
        cells->y.store(1, std::memory_order_relaxed);
      },
      [cells] {
        cells->rx = cells->x.load(std::memory_order_relaxed);
        cells->ry = cells->y.load(std::memory_order_relaxed);
      },
  };
  litmus.check = [cells, outcomes]() {
    outcomes->emplace(cells->rx, cells->ry);
    return std::string();
  };
  return litmus;
}

TEST(McExplorerTest, SleepSetReductionIsSound) {
  auto cells = std::make_shared<MpCells>();
  auto full_outcomes = std::make_shared<std::set<std::pair<uint64_t, uint64_t>>>();
  auto reduced_outcomes = std::make_shared<std::set<std::pair<uint64_t, uint64_t>>>();

  ExploreOptions full = SmokeOptions();
  full.sleep_sets = false;
  const ExploreResult unreduced =
      Explore(MakeOutcomeLitmus(cells, full_outcomes), full);

  const ExploreResult reduced =
      Explore(MakeOutcomeLitmus(cells, reduced_outcomes), SmokeOptions());

  EXPECT_FALSE(unreduced.budget_exhausted);
  EXPECT_FALSE(reduced.budget_exhausted);
  // Soundness: reduction loses no observable outcome.
  EXPECT_EQ(*reduced_outcomes, *full_outcomes);
  // All four message-passing outcomes are reachable and must be found.
  const std::set<std::pair<uint64_t, uint64_t>> expected = {
      {0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_EQ(*full_outcomes, expected);
  // Effectiveness: the reduced run does no more work than the full one.
  EXPECT_LE(reduced.schedules, unreduced.schedules);
}

TEST(McExplorerTest, SwitchBoundPrunesPreemptiveSchedules) {
  const Litmus& litmus = Registered("dpor-2x2");
  ExploreOptions unbounded = SmokeOptions();
  unbounded.sleep_sets = false;
  ExploreOptions bounded = unbounded;
  bounded.switch_bound = 0;
  const ExploreResult all = Explore(litmus, unbounded);
  const ExploreResult few = Explore(litmus, bounded);
  EXPECT_GE(few.schedules, 1u);
  EXPECT_LT(few.schedules, all.schedules);
  EXPECT_EQ(few.failures, 0u);
}

// A racy litmus whose violation needs one preemption at an early branch
// point: T0 publishes x = 1 and retracts it at once, then writes z many
// times; T1 reads z a few times, then x. T1 sees x == 1 only when all of it
// runs inside T0's two-step window, right after T0's first step. The z
// accesses conflict, so sleep sets cannot collapse the late interleavings
// that a latest-branch-first DFS explores before it backtracks that far.
struct EarlyWindowCells {
  sp::AtomicU64 x{0}, z{0};
  uint64_t seen = 0;
};

Litmus MakeEarlyWindowLitmus(const std::shared_ptr<EarlyWindowCells>& cells) {
  constexpr int kWriterFill = 12;
  constexpr int kReaderFill = 6;
  Litmus litmus;
  litmus.name = "test-early-window";
  litmus.expect_violation = true;
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->x.store(0, std::memory_order_relaxed);
    cells->z.store(0, std::memory_order_relaxed);
    cells->seen = 0;
  };
  litmus.bodies = {
      [cells] {
        cells->x.store(1, std::memory_order_relaxed);
        cells->x.store(0, std::memory_order_relaxed);
        for (int i = 1; i <= kWriterFill; ++i) {
          cells->z.store(i, std::memory_order_relaxed);
        }
      },
      [cells] {
        for (int i = 0; i < kReaderFill; ++i) {
          (void)cells->z.load(std::memory_order_relaxed);
        }
        cells->seen = cells->x.load(std::memory_order_relaxed);
      },
  };
  litmus.check = [cells]() -> std::string {
    return cells->seen == 1 ? "reader saw the retracted x == 1" : "";
  };
  return litmus;
}

TEST(McExplorerTest, IterativeBoundsFindAnEarlyPreemptionUnboundedDfsMisses) {
  auto cells = std::make_shared<EarlyWindowCells>();
  const Litmus litmus = MakeEarlyWindowLitmus(cells);
  ExploreOptions options = SmokeOptions();
  options.max_schedules = 2000;

  const ExploreResult unbounded = Explore(litmus, options);
  EXPECT_EQ(unbounded.failures, 0u);
  EXPECT_TRUE(unbounded.budget_exhausted);

  const ExploreResult iterative = ExploreIterativeBounds(litmus, options);
  EXPECT_GT(iterative.failures, 0u);
  EXPECT_EQ(iterative.bound, 1);
  EXPECT_LE(iterative.schedules, options.max_schedules);
  ASSERT_TRUE(iterative.first_failure.has_value());
  EXPECT_EQ(iterative.first_failure->check_failure, "reader saw the retracted x == 1");
}

TEST(McExplorerTest, IterativeBoundsStopWhenABoundPrunesNothing) {
  // A clean litmus small enough to explore whole: the rounds end at the
  // first bound that dropped no branch point, within the budget, and the
  // last round covers every schedule the unbounded search finds.
  const Litmus& litmus = Registered("dpor-2x2");
  const ExploreResult unbounded = Explore(litmus, SmokeOptions());
  ASSERT_FALSE(unbounded.budget_exhausted);
  const ExploreResult iterative = ExploreIterativeBounds(litmus, SmokeOptions());
  EXPECT_FALSE(iterative.budget_exhausted);
  EXPECT_EQ(iterative.failures, 0u);
  EXPECT_EQ(iterative.bound_pruned, 0u);
  EXPECT_GE(iterative.bound, 1);
  EXPECT_GE(iterative.schedules, unbounded.schedules);
}

// A spin lock whose holder does not run first: T1 holds it from the start,
// writes x and releases it; T0 retries a CAS on it with a yield between
// attempts, then reads x. The spinner starts (lowest tid), so at bound 0 the
// holder can only run if switching away from a yielding thread costs no
// preemption; otherwise the spinner spins until max_steps.
struct SpinLockCells {
  sp::AtomicU64 lock{1}, x{0};
  uint64_t seen = 0;
};

Litmus MakeSpinLockLitmus(const std::shared_ptr<SpinLockCells>& cells) {
  Litmus litmus;
  litmus.name = "test-spin-lock";
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->lock.store(1, std::memory_order_relaxed);
    cells->x.store(0, std::memory_order_relaxed);
    cells->seen = 0;
  };
  litmus.bodies = {
      [cells] {
        uint64_t unlocked = 0;
        // mo: acquire — pairs with the holder's release of the lock.
        while (!cells->lock.compare_exchange_strong(unlocked, 1, std::memory_order_acquire)) {
          unlocked = 0;
          sp::SyncPoint(nullptr, sp::OpKind::kYield);
        }
        // mo: relaxed — ordered by the lock.
        cells->seen = cells->x.load(std::memory_order_relaxed);
      },
      [cells] {
        // mo: relaxed store, then release — publishes x with the unlock.
        cells->x.store(1, std::memory_order_relaxed);
        cells->lock.store(0, std::memory_order_release);
      },
  };
  litmus.check = [cells]() -> std::string {
    return cells->seen == 1 ? "" : "spinner took the lock before its release";
  };
  return litmus;
}

TEST(McExplorerTest, SpinnerGivesWayToAPreemptedLockHolder) {
  auto cells = std::make_shared<SpinLockCells>();
  const Litmus litmus = MakeSpinLockLitmus(cells);
  ExploreOptions options = SmokeOptions();
  options.switch_bound = 0;
  const ExploreResult result = Explore(litmus, options);
  EXPECT_GE(result.schedules, 1u);
  EXPECT_EQ(result.truncated, 0u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_FALSE(result.budget_exhausted);
}

// Giving way at a yield must not hide the order in which the yielder runs
// on: T0 writes a, yields (as a retry's backoff does), then reads x, which
// T1 writes. The default policy runs T1 at T0's yield; the schedule in
// which T0 retries its read first (tids 0, 0, 0, 1) stays an alternative,
// explored by an unbounded search and by the iterative bounds (at bound 1,
// since running on past a yield while T1 could run is one preemption).
struct RetryCells {
  sp::AtomicU64 a{0}, x{0};
};

Litmus MakeRetryBeforeRivalLitmus(const std::shared_ptr<RetryCells>& cells) {
  Litmus litmus;
  litmus.name = "test-retry-before-rival";
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->a.store(0, std::memory_order_relaxed);
    cells->x.store(0, std::memory_order_relaxed);
  };
  litmus.bodies = {
      [cells] {
        // mo: relaxed — only the interleaving matters here.
        cells->a.store(1, std::memory_order_relaxed);
        sp::SyncPoint(nullptr, sp::OpKind::kYield);
        (void)cells->x.load(std::memory_order_relaxed);
      },
      [cells] {
        // mo: relaxed — only the interleaving matters here.
        cells->x.store(1, std::memory_order_relaxed);
      },
  };
  return litmus;
}

TEST(McExplorerTest, YielderRunningOnStaysAnAlternative) {
  auto cells = std::make_shared<RetryCells>();
  const Litmus litmus = MakeRetryBeforeRivalLitmus(cells);
  const std::vector<int> retry_first = {0, 0, 0, 1};
  const auto count_retry_first = [&](const ExploreResult& result) {
    return std::count(result.schedule_tids.begin(), result.schedule_tids.end(), retry_first);
  };

  const ExploreResult unbounded = Explore(litmus, SmokeOptions());
  EXPECT_FALSE(unbounded.budget_exhausted);
  EXPECT_EQ(count_retry_first(unbounded), 1);

  ExploreOptions bound0 = SmokeOptions();
  bound0.switch_bound = 0;
  const ExploreResult pruned = Explore(litmus, bound0);
  EXPECT_EQ(count_retry_first(pruned), 0);
  EXPECT_GT(pruned.bound_pruned, 0u);

  const ExploreResult iterative = ExploreIterativeBounds(litmus, SmokeOptions());
  EXPECT_EQ(count_retry_first(iterative), 1);
  EXPECT_EQ(iterative.bound_pruned, 0u);
}

TEST(McRegressionTest, AstmPriorityRaceIsPinned) {
  // The historical bug: exploration must *deterministically* find the racy
  // pair — no luck of OS timing involved.
  const ExploreResult racy = Explore(Registered("astm-priority-race"), SmokeOptions());
  EXPECT_GT(racy.failures, 0u);
  ASSERT_TRUE(racy.first_failure.has_value());
  EXPECT_EQ(racy.first_failure->violation.kind, Violation::Kind::kDataRace)
      << racy.first_failure->violation.detail;

  // And the shipped fix must explore clean, exhaustively.
  const ExploreResult fixed = Explore(Registered("astm-priority-fixed"), SmokeOptions());
  EXPECT_EQ(fixed.failures, 0u);
  EXPECT_FALSE(fixed.budget_exhausted);
}

TEST(McRegressionTest, TracerTlsUseAfterFreeIsPinned) {
  const ExploreResult racy = Explore(Registered("tracer-tls-uaf"), SmokeOptions());
  EXPECT_GT(racy.failures, 0u);
  ASSERT_TRUE(racy.first_failure.has_value());
  EXPECT_EQ(racy.first_failure->violation.kind, Violation::Kind::kUseAfterFree)
      << racy.first_failure->violation.detail;

  const ExploreResult fixed = Explore(Registered("tracer-tls-fixed"), SmokeOptions());
  EXPECT_EQ(fixed.failures, 0u);
  EXPECT_FALSE(fixed.budget_exhausted);
}

TEST(McRegressionTest, FailingScheduleRoundTripsThroughTraceFile) {
  const Litmus& litmus = Registered("astm-priority-race");
  const ExploreResult result = Explore(litmus, SmokeOptions());
  ASSERT_TRUE(result.first_failure.has_value());

  // Serialize -> file -> parse.
  const std::string path = testing::TempDir() + "/astm_priority_race.trace";
  std::string error;
  ASSERT_TRUE(WriteTraceFile(path, *result.first_failure, litmus.num_threads(), &error))
      << error;
  const auto parsed = ReadTraceFile(path, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->litmus, litmus.name);
  EXPECT_EQ(parsed->threads, litmus.num_threads());
  EXPECT_EQ(parsed->steps.size(), result.first_failure->steps.size());

  // Replay must follow the recorded schedule exactly and rediscover the
  // same class of violation.
  std::string divergence;
  const ScheduleTrace replayed = Replay(litmus, parsed->steps, &divergence);
  EXPECT_TRUE(divergence.empty()) << divergence;
  EXPECT_EQ(replayed.violation.kind, Violation::Kind::kDataRace)
      << replayed.violation.detail;
}

TEST(McRegressionTest, TraceParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseTrace("not a trace\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      ParseTrace("sb7-mc-trace v1\nlitmus x\nstep 1 tid 0 kind load addr a\n", &error)
          .has_value());  // step index must start at 0
  EXPECT_FALSE(ParseTrace("sb7-mc-trace v1\nthreads 2\n", &error).has_value());
}

TEST(McStmTest, BoundedExplorationOfRealBackendsStaysOpaque) {
  // Bounded sweep through real transactions: every explored schedule's
  // history must pass the opacity checker and land the expected end state.
  // The schedule space is far larger than the budget; budget exhaustion is
  // fine — zero failures within the budget is the gate.
  ExploreOptions options;
  options.max_schedules = 60;
  options.max_steps = 600;
  for (const char* name : {"stm-lost-update-tl2", "stm-lost-update-norec",
                           "stm-snapshot-mvstm", "stm-increment-pair-tinystm"}) {
    const ExploreResult result = Explore(Registered(name), options);
    EXPECT_EQ(result.failures, 0u)
        << name << ": "
        << (result.first_failure
                ? (result.first_failure->violation
                       ? result.first_failure->violation.detail
                       : result.first_failure->check_failure)
                : std::string("?"));
    EXPECT_GT(result.schedules, 0u) << name;
  }
}

TEST(McStmTest, GroupCommitLitmusesStayOpaqueAndWriteAhead) {
  // The group-commit sequencer under the explorer: every schedule must be
  // opaque, every published commit must already be in the redo log, and the
  // log must frame-check (src/mc/litmus.cc's GroupCommitFailure gate). The
  // spin/yield coordination makes the schedule space huge; zero failures
  // within the budget is the gate.
  ExploreOptions options;
  options.max_schedules = 60;
  options.max_steps = 2000;
  for (const char* name : {"mvstm-group-commit", "mvstm-group-commit-snapshot"}) {
    const ExploreResult result = Explore(Registered(name), options);
    EXPECT_EQ(result.failures, 0u)
        << name << ": "
        << (result.first_failure
                ? (result.first_failure->violation
                       ? result.first_failure->violation.detail
                       : result.first_failure->check_failure)
                : std::string("?"));
    EXPECT_GT(result.schedules, 0u) << name;
  }
}

}  // namespace
}  // namespace sb7::mc
