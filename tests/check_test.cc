// Acceptance tests for the correctness-oracle subsystem (src/check/):
//   * the differential oracle replays one pinned-seed operation sequence
//     under all six strategies and demands identical return values and deep
//     structural fingerprints;
//   * the history recorder + opacity checker accept real recorded tl2/mvstm
//     histories and reject hand-crafted non-opaque ones (torn snapshots,
//     write skew, intra-transaction inconsistency);
//   * the fuzz driver finds an injected deterministic bug, shrinks it to a
//     minimal phase list, and prints a reproduce command — twice, with
//     identical results.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/check/differential.h"
#include "src/check/fingerprint.h"
#include "src/check/fuzz.h"
#include "src/check/history.h"
#include "src/harness/driver.h"
#include "src/stm/stm_factory.h"

namespace sb7 {
namespace {

class Cell : public TmObject {
 public:
  explicit Cell(int64_t initial = 0) : value(unit(), initial) {}
  TxField<int64_t> value;
};

// --- differential oracle ---

TEST(DifferentialOracleTest, AllSixStrategiesAgreeOnPinnedSeed) {
  DifferentialOptions options;
  options.seed = 20070326;
  options.operations = 160;
  const DifferentialReport report = RunDifferential(options);
  ASSERT_EQ(report.runs.size(), 6u);
  EXPECT_TRUE(report.ok()) << (report.mismatches.empty() ? "" : report.mismatches.front());
  for (const DifferentialRun& run : report.runs) {
    EXPECT_TRUE(run.invariants_ok) << run.strategy;
    EXPECT_EQ(run.fingerprint, report.runs.front().fingerprint) << run.strategy;
    EXPECT_EQ(run.results, report.runs.front().results) << run.strategy;
  }
  EXPECT_EQ(report.op_names.size(), 160u);
}

TEST(DifferentialOracleTest, RunsAreDeterministicInTheSeed) {
  DifferentialOptions options;
  options.strategies = {"tl2"};
  options.operations = 80;
  options.seed = 99;
  const DifferentialReport first = RunDifferential(options);
  const DifferentialReport second = RunDifferential(options);
  EXPECT_EQ(first.runs.front().fingerprint, second.runs.front().fingerprint);
  EXPECT_EQ(first.runs.front().results, second.runs.front().results);

  options.seed = 100;  // a different world and op stream
  const DifferentialReport third = RunDifferential(options);
  EXPECT_NE(first.runs.front().fingerprint, third.runs.front().fingerprint);
}

TEST(FingerprintTest, DetectsSingleFieldCorruption) {
  DataHolder::Setup setup;
  setup.params = Parameters::ForName("tiny");
  setup.seed = 5;
  DataHolder data(setup);
  const uint64_t clean = DeepFingerprint(data);
  EXPECT_EQ(clean, DeepFingerprint(data));  // stable when nothing changed

  AtomicPart* victim = nullptr;
  data.atomic_part_id_index().ForEach([&victim](const int64_t&, AtomicPart* const& part) {
    victim = part;
    return false;
  });
  ASSERT_NE(victim, nullptr);
  victim->SwapXY();
  const uint64_t corrupted = DeepFingerprint(data);
  if (victim->x() != victim->y()) {
    EXPECT_NE(corrupted, clean);
  }
  victim->SwapXY();
  EXPECT_EQ(DeepFingerprint(data), clean);
}

// --- history recorder + opacity checker ---

TEST(HistoryRecorderTest, RecordsCommitsAndDiscardsAborts) {
  HistoryRecorder recorder;
  recorder.Install();
  auto stm = MakeStm("tl2");
  Cell cell(1);
  stm->RunAtomically([&](Transaction&) { cell.value.Set(cell.value.Get() + 1); });
  struct Bail {};
  bool first = true;
  EXPECT_THROW(stm->RunAtomically([&](Transaction&) {
                 cell.value.Set(99);
                 if (first) {
                   first = false;
                   throw TxAborted{};  // aborted attempt: must not be recorded
                 }
                 throw Bail{};  // failure path: commits and records
               }),
               Bail);
  recorder.Uninstall();
  const History history = recorder.TakeHistory();
  ASSERT_EQ(history.committed.size(), 2u);
  EXPECT_FALSE(history.truncated);
  for (const HistoryTx& tx : history.committed) {
    EXPECT_GT(tx.commit_ts, tx.begin_ts);
  }
  EXPECT_TRUE(CheckOpacity(history).ok());
}

TEST(OpacityCheckerTest, AcceptsRecordedTl2History) {
  HistoryRecorder recorder;
  recorder.Install();
  auto stm = MakeStm("tl2");
  constexpr int kAccounts = 8;
  std::vector<std::unique_ptr<Cell>> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(std::make_unique<Cell>(100));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(10 + t);
      for (int i = 0; i < 500; ++i) {
        const int from = static_cast<int>(rng.NextBounded(kAccounts));
        const int to = static_cast<int>(rng.NextBounded(kAccounts));
        stm->RunAtomically([&](Transaction&) {
          accounts[from]->value.Set(accounts[from]->value.Get() - 1);
          accounts[to]->value.Set(accounts[to]->value.Get() + 1);
        });
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  recorder.Uninstall();
  const History history = recorder.TakeHistory();
  EXPECT_EQ(history.committed.size(), 2000u);
  const OpacityResult result = CheckOpacity(history);
  EXPECT_TRUE(result.ok()) << result.diagnosis;
  EXPECT_EQ(result.serialized_updates, 2000u);
}

TEST(OpacityCheckerTest, AcceptsRecordedMvstmHistoryWithSnapshotReaders) {
  HistoryRecorder recorder;
  recorder.Install();
  auto stm = MakeStm("mvstm");
  Cell a(0);
  Cell b(0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i <= 800; ++i) {
      stm->RunAtomically([&](Transaction&) {
        a.value.Set(i);
        b.value.Set(i);
      });
      EbrDomain::Global().Quiesce();
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      stm->RunAtomically(
          [&](Transaction&) {
            a.value.Get();
            b.value.Get();
          },
          /*read_only=*/true);
      EbrDomain::Global().Quiesce();
    }
  });
  writer.join();
  reader.join();
  recorder.Uninstall();
  const History history = recorder.TakeHistory();
  EXPECT_GE(history.committed.size(), 800u);
  const OpacityResult result = CheckOpacity(history);
  EXPECT_TRUE(result.ok()) << result.diagnosis;
  // mvstm read-only transactions may serve *old* snapshots; the checker must
  // accept them precisely because they match an earlier consistent state.
  EXPECT_EQ(result.serialized_updates, 800u);
  EbrDomain::Global().DrainAll();
}

// A value stored before Install is invisible to the recorder. A snapshot
// reader that saw it next to a newer value (a stale mvstm head did exactly
// this) is caught only once RecordInitial grounds the field; otherwise the
// reader's own reads define the "initial" values and the history passes.
TEST(OpacityCheckerTest, GroundsValuesStoredBeforeInstall) {
  auto stm = MakeStm("tl2");
  Cell x(0);
  Cell y(0);
  const auto record = [&](bool ground) {
    x.value.Set(0);  // before Install: not recorded
    y.value.Set(0);
    HistoryRecorder recorder;
    recorder.Install();
    if (ground) {
      recorder.RecordInitial(x.value);
      recorder.RecordInitial(y.value);
    }
    // A faulty reader begins, a writer commits x = y = 1 on another thread,
    // and the reader reports x == 0, y == 1.
    recorder.OnTxBegin(/*read_only=*/true);
    std::thread([&] {
      stm->RunAtomically([&](Transaction&) {
        x.value.Set(1);
        y.value.Set(1);
      });
    }).join();
    recorder.OnTxRead(x.value, 0);
    recorder.OnTxRead(y.value, 1);
    recorder.OnTxCommit();
    recorder.Uninstall();
    return CheckOpacity(recorder.TakeHistory());
  };
  const OpacityResult grounded = record(/*ground=*/true);
  EXPECT_FALSE(grounded.ok());
  EXPECT_FALSE(grounded.inconclusive);
  // The gap the grounding closes: ungrounded, the same history passes.
  EXPECT_TRUE(record(/*ground=*/false).ok());
}

// Builds a HistoryTx from (begin, commit, accesses).
HistoryTx MakeTx(uint64_t begin_ts, uint64_t commit_ts,
                 std::vector<HistoryAccess> accesses) {
  HistoryTx tx;
  tx.begin_ts = begin_ts;
  tx.commit_ts = commit_ts;
  tx.accesses = std::move(accesses);
  return tx;
}

constexpr uintptr_t kLocX = 0x1000;
constexpr uintptr_t kLocY = 0x2000;

TEST(OpacityCheckerTest, RejectsTornSnapshot) {
  // T1 atomically writes x=1, y=1; a reader claims x=1 but y=0 — a snapshot
  // straddling T1's commit. No serial order explains it.
  History history;
  history.initial = {{kLocX, 0}, {kLocY, 0}};
  history.committed.push_back(MakeTx(1, 2, {{kLocX, 1, true}, {kLocY, 1, true}}));
  history.committed.push_back(MakeTx(3, 4, {{kLocX, 1, false}, {kLocY, 0, false}}));
  const OpacityResult result = CheckOpacity(history);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.diagnosis.empty());

  // The consistent variants are both accepted: the all-old and the all-new
  // snapshot (reader intervals here permit either side).
  History old_snapshot = history;
  old_snapshot.committed[1] =
      MakeTx(1, 4, {{kLocX, 0, false}, {kLocY, 0, false}});
  EXPECT_TRUE(CheckOpacity(old_snapshot).ok());
  History new_snapshot = history;
  new_snapshot.committed[1] = MakeTx(3, 4, {{kLocX, 1, false}, {kLocY, 1, false}});
  EXPECT_TRUE(CheckOpacity(new_snapshot).ok());
}

TEST(OpacityCheckerTest, RejectsWriteSkew) {
  // Classic write skew: both transactions read {x=0, y=0}, one writes x=1,
  // the other y=1. Serializing either first invalidates the other's read.
  History history;
  history.initial = {{kLocX, 0}, {kLocY, 0}};
  history.committed.push_back(
      MakeTx(1, 3, {{kLocX, 0, false}, {kLocY, 0, false}, {kLocX, 1, true}}));
  history.committed.push_back(
      MakeTx(2, 4, {{kLocX, 0, false}, {kLocY, 0, false}, {kLocY, 1, true}}));
  EXPECT_FALSE(CheckOpacity(history).ok());
}

TEST(OpacityCheckerTest, RejectsIntraTransactionTornRead) {
  History history;
  history.initial = {{kLocX, 0}};
  // One transaction reads x twice and sees two different values.
  history.committed.push_back(MakeTx(1, 2, {{kLocX, 0, false}, {kLocX, 7, false}}));
  const OpacityResult result = CheckOpacity(history);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.diagnosis.find("torn"), std::string::npos);
}

TEST(OpacityCheckerTest, RepairsCommitTimestampInversions) {
  // The writer's commit event landed *after* the reader's although the
  // writer serialized first (post-commit-point timestamping): overlapping
  // intervals let the checker reorder them.
  History history;
  history.initial = {{kLocX, 0}};
  history.committed.push_back(MakeTx(1, 4, {{kLocX, 1, true}}));        // writer
  history.committed.push_back(MakeTx(2, 3, {{kLocX, 1, false}}));       // reader saw it
  EXPECT_TRUE(CheckOpacity(history).ok());

  // But a reader that *began after the writer committed* cannot see the old
  // value: the interval constraint forbids serializing it first.
  History stale;
  stale.initial = {{kLocX, 0}};
  stale.committed.push_back(MakeTx(1, 2, {{kLocX, 1, true}}));
  stale.committed.push_back(MakeTx(3, 4, {{kLocX, 0, false}}));  // stale read
  EXPECT_FALSE(CheckOpacity(stale).ok());
}

// --- fuzz driver ---

FuzzOptions InjectedBugOptions() {
  FuzzOptions options;
  options.seed = 20250729;
  options.cases = 12;
  options.strategies = {"tl2"};
  options.ops_per_phase = 30;
  options.max_phases = 4;
  options.max_threads = 2;
  // Injected deterministic bug: whenever the case contains a phase with a
  // write-heavy mix, corrupt one index entry after the run. The failure is a
  // pure function of the case spec, so find/shrink/reproduce are exact.
  options.post_run_hook = [](DataHolder& dh, const FuzzCase& fuzz_case) {
    bool triggered = false;
    for (const PhaseSpec& phase : fuzz_case.scenario.phases) {
      if (phase.read_fraction.value_or(1.0) < 0.5) {
        triggered = true;
      }
    }
    if (!triggered) {
      return;
    }
    int64_t victim = -1;
    dh.atomic_part_id_index().ForEach([&victim](const int64_t& id, AtomicPart* const&) {
      victim = id;
      return false;
    });
    if (victim >= 0) {
      dh.atomic_part_id_index().Remove(victim);  // stale-index corruption
    }
  };
  return options;
}

TEST(FuzzDriverTest, CaseGenerationIsDeterministic) {
  FuzzOptions options;
  options.seed = 7;
  for (int index = 0; index < 5; ++index) {
    const FuzzCase a = GenerateFuzzCase(options, index);
    const FuzzCase b = GenerateFuzzCase(options, index);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.structure_seed, b.structure_seed);
    ASSERT_EQ(a.scenario.phases.size(), b.scenario.phases.size());
    for (size_t p = 0; p < a.scenario.phases.size(); ++p) {
      EXPECT_EQ(a.scenario.phases[p].name, b.scenario.phases[p].name);
      EXPECT_EQ(a.scenario.phases[p].read_fraction, b.scenario.phases[p].read_fraction);
      EXPECT_EQ(a.scenario.phases[p].disabled_ops, b.scenario.phases[p].disabled_ops);
      EXPECT_EQ(a.scenario.phases[p].threads, b.scenario.phases[p].threads);
    }
  }
}

TEST(FuzzDriverTest, FindsShrinksAndReproducesInjectedBugDeterministically) {
  const FuzzOptions options = InjectedBugOptions();
  const FuzzReport first = RunFuzz(options);
  ASSERT_FALSE(first.ok()) << "the injected bug was never triggered — "
                              "adjust seed or trigger predicate";
  const FuzzFailure& failure = *first.failure;
  EXPECT_FALSE(failure.reason.empty());
  EXPECT_NE(failure.reason.find("invariant"), std::string::npos) << failure.reason;

  // Shrinking reached a minimal phase list: exactly the phases that trigger
  // the injected predicate survive (here: one write-heavy phase).
  ASSERT_EQ(failure.minimal.scenario.phases.size(), 1u);
  EXPECT_LT(*failure.minimal.scenario.phases[0].read_fraction, 0.5);
  EXPECT_LE(failure.minimal.scenario.phases.size(),
            failure.original.scenario.phases.size());

  // The reproduce command names the seed, the case and the phase subset.
  EXPECT_NE(failure.reproduce_command.find("--fuzz 20250729"), std::string::npos)
      << failure.reproduce_command;
  EXPECT_NE(failure.reproduce_command.find("--fuzz-case"), std::string::npos);

  // Determinism: the sweep finds the same case, shrinks to the same phases,
  // and emits the same command.
  const FuzzReport second = RunFuzz(options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.failure->original.index, failure.original.index);
  EXPECT_EQ(second.failure->minimal.scenario.phases.size(),
            failure.minimal.scenario.phases.size());
  EXPECT_EQ(second.failure->minimal.scenario.phases[0].name,
            failure.minimal.scenario.phases[0].name);
  EXPECT_EQ(second.failure->reproduce_command, failure.reproduce_command);

  // And the single-case runner re-observes the failure from the command's
  // ingredients (case index + phase subset).
  FuzzCase repro = GenerateFuzzCase(options, failure.original.index);
  std::vector<PhaseSpec> kept;
  for (const PhaseSpec& phase : repro.scenario.phases) {
    if (phase.name == failure.minimal.scenario.phases[0].name) {
      kept.push_back(phase);
    }
  }
  ASSERT_EQ(kept.size(), 1u);
  repro.scenario.phases = kept;
  EXPECT_FALSE(RunFuzzCase(options, repro).empty());
}

TEST(FuzzDriverTest, CleanSweepPasses) {
  FuzzOptions options;
  options.seed = 3;
  options.cases = 3;
  options.strategies = {"tl2", "mvstm"};
  options.ops_per_phase = 40;
  options.max_phases = 2;
  options.max_threads = 2;
  const FuzzReport report = RunFuzz(options);
  EXPECT_TRUE(report.ok()) << report.failure->reason;
  EXPECT_EQ(report.cases_run, 3);
}

}  // namespace
}  // namespace sb7
