// Properties specific to the multi-version backend (mvstm): read-only
// transactions serve every read from a pinned snapshot and therefore never
// validate and never abort, no matter what concurrent writers do; version
// nodes are reclaimed through EBR instead of accumulating per commit; and the
// driver routes operations marked read-only onto the snapshot path.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/ebr/ebr.h"
#include "src/harness/driver.h"
#include "src/mvstm/mvstm.h"
#include "src/mvstm/version_chain.h"
#include "src/stm/stm_factory.h"

namespace sb7 {
namespace {

class Cell : public TmObject {
 public:
  explicit Cell(int64_t initial = 0) : value(unit(), initial) {}
  TxField<int64_t> value;
};

TEST(MvstmTest, FactoryAndStrategyKnowTheBackend) {
  auto stm = MakeStm("mvstm");
  ASSERT_NE(stm, nullptr);
  EXPECT_EQ(stm->name(), "mvstm");
  auto strategy = MakeStrategy("mvstm");
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->name(), "mvstm");
  EXPECT_NE(strategy->stm(), nullptr);
}

TEST(MvstmTest, ReadOnlySnapshotIgnoresLaterCommits) {
  MvStm stm;
  Cell cell(1);
  // First commit so the field has a version chain at a known timestamp.
  stm.RunAtomically([&](Transaction&) { cell.value.Set(2); });

  // Pin a read-only transaction by hand, then let a writer commit past it.
  MvTx reader;
  reader.SetReadOnly(true);
  reader.BeginAttempt();
  ASSERT_TRUE(reader.snapshot_mode());
  SetCurrentTx(&reader);
  EXPECT_EQ(cell.value.Get(), 2);
  SetCurrentTx(nullptr);

  stm.RunAtomically([&](Transaction&) { cell.value.Set(3); });

  // The pinned snapshot must still serve the pre-commit value.
  SetCurrentTx(&reader);
  EXPECT_EQ(cell.value.Get(), 2);
  SetCurrentTx(nullptr);
  EXPECT_TRUE(reader.TryCommit());

  // A fresh read-only transaction sees the newest committed value.
  int64_t seen = 0;
  stm.RunAtomically([&](Transaction&) { seen = cell.value.Get(); }, /*read_only=*/true);
  EXPECT_EQ(seen, 3);
}

TEST(MvstmTest, SnapshotReadsAreConsistentAcrossFields) {
  // Writers keep a == b; a pinned read-only transaction must observe the
  // SAME timestamp for both fields even when a writer commits between its
  // two reads.
  MvStm stm;
  Cell a(0);
  Cell b(0);

  MvTx reader;
  reader.SetReadOnly(true);
  reader.BeginAttempt();
  SetCurrentTx(&reader);
  const int64_t first = a.value.Get();
  SetCurrentTx(nullptr);

  stm.RunAtomically([&](Transaction&) {
    a.value.Set(7);
    b.value.Set(7);
  });

  SetCurrentTx(&reader);
  const int64_t second = b.value.Get();
  SetCurrentTx(nullptr);
  EXPECT_TRUE(reader.TryCommit());
  EXPECT_EQ(first, second);  // both from the pinned snapshot: 0 == 0
}

TEST(MvstmTest, ReadOnlyNeverAbortsUnderConcurrentWriters) {
  MvStm stm;
  constexpr int kCells = 8;
  std::vector<std::unique_ptr<Cell>> cells;
  for (int i = 0; i < kCells; ++i) {
    cells.push_back(std::make_unique<Cell>(0));
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  constexpr int kWriterThreads = 2;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriterThreads; ++w) {
    writers.emplace_back([&] {
      for (int i = 1; i <= 10'000; ++i) {
        stm.RunAtomically([&](Transaction&) {
          // Keep all cells equal; any torn read-only view is a snapshot bug.
          for (auto& cell : cells) {
            cell->value.Set(cell->value.Get() + 1);
          }
        });
        EbrDomain::Global().Quiesce();
      }
      stop = true;
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      stm.RunAtomically(
          [&](Transaction&) {
            const int64_t expected = cells[0]->value.Get();
            for (auto& cell : cells) {
              if (cell->value.Get() != expected) {
                torn = true;
              }
            }
          },
          /*read_only=*/true);
      EbrDomain::Global().Quiesce();
    }
  });
  for (std::thread& writer : writers) {
    writer.join();
  }
  reader.join();

  EXPECT_FALSE(torn.load());
  const StmStats::View view = stm.stats().Snapshot();
  EXPECT_GT(view.ro_commits, 0);
  EXPECT_EQ(view.ro_aborts, 0);  // the defining mvstm property
  EXPECT_GT(view.commits, view.ro_commits);  // writers committed too
}

TEST(MvstmTest, MislabeledReadOnlyBodyIsDemotedAndStillCommits) {
  MvStm stm;
  Cell cell(0);
  // The body writes despite the read-only promise: the first attempt aborts
  // once (demotion), the retry runs in update mode and commits.
  stm.RunAtomically([&](Transaction&) { cell.value.Set(41); }, /*read_only=*/true);
  EXPECT_EQ(cell.value.Get(), 41);
  EXPECT_EQ(stm.stats().commits.load(), 1);
  EXPECT_EQ(stm.stats().ro_aborts.load(), 1);  // the demotion abort, surfaced
}

TEST(MvstmTest, VersionNodesAreReclaimedThroughEbr) {
  EbrDomain::Global().DrainAll();
  const int64_t baseline = MvVersion::LiveNodeCount();
  {
    MvStm stm;
    Cell cell(0);
    for (int i = 0; i < 5'000; ++i) {
      stm.RunAtomically([&](Transaction&) { cell.value.Set(i); });
      EbrDomain::Global().Quiesce();
    }
    EbrDomain::Global().DrainAll();
    // Only the chain head survives per written field; history went to EBR.
    EXPECT_LE(MvVersion::LiveNodeCount() - baseline, 1);
  }
  // The field destructor frees the head.
  EbrDomain::Global().DrainAll();
  EXPECT_EQ(MvVersion::LiveNodeCount(), baseline);
}

TEST(MvstmTest, UpdateCommitRetiresOneBatchForItsWholeWriteSet) {
  EbrDomain& ebr = EbrDomain::Global();
  ebr.DrainAll();
  const int64_t live_before = MvVersion::LiveNodeCount();
  MvStm stm;
  constexpr int kCells = 6;
  constexpr int kWritten = kCells / 2;  // fields with a history already
  std::vector<std::unique_ptr<Cell>> cells;
  for (int i = 0; i < kCells; ++i) {
    cells.push_back(std::make_unique<Cell>(i));
  }
  stm.RunAtomically([&](Transaction&) {
    for (int i = 0; i < kWritten; ++i) {
      cells[i]->value.Set(100 + i);
    }
  });
  ebr.DrainAll();
  // One head per written field.
  EXPECT_EQ(MvVersion::LiveNodeCount() - live_before, kWritten);

  // Half the fields displace a head, the other half their synthesized base
  // version: still one EBR entry for the commit.
  const int64_t pending_before = ebr.PendingCount();
  stm.RunAtomically([&](Transaction&) {
    for (auto& cell : cells) {
      cell->value.Set(cell->value.Get() + 1);
    }
  });
  EXPECT_EQ(ebr.PendingCount() - pending_before, 1);
  // Heads for every field, plus the displaced versions in limbo.
  EXPECT_EQ(MvVersion::LiveNodeCount() - live_before, 2 * kCells);

  EXPECT_EQ(ebr.DrainAll(), 1);
  EXPECT_EQ(MvVersion::LiveNodeCount() - live_before, kCells);
  cells.clear();  // the field destructors free the heads
  EXPECT_EQ(MvVersion::LiveNodeCount(), live_before);
}

TEST(MvstmTest, ReadOnlyPathDoesNoValidationWork) {
  MvStm stm;
  Cell cell(3);
  for (int i = 0; i < 100; ++i) {
    stm.RunAtomically([&](Transaction&) { cell.value.Get(); }, /*read_only=*/true);
  }
  const StmStats::View view = stm.stats().Snapshot();
  EXPECT_EQ(view.validation_steps, 0);
  EXPECT_EQ(view.ro_commits, 100);
  EXPECT_GE(view.reads, 100);
}

// Full-stack check: the driver dispatches operations whose metadata marks
// them read-only onto the snapshot path, and a multi-threaded benchmark run
// with traversals enabled records zero read-only aborts.
TEST(MvstmDriverTest, BenchmarkRunRecordsZeroReadOnlyAborts) {
  BenchConfig config;
  config.strategy = "mvstm";
  config.scale = "tiny";
  config.threads = 4;
  config.length_seconds = 30.0;  // bounded by max_operations below
  config.workload = WorkloadType::kReadWrite;
  config.long_traversals = true;
  config.max_operations = 2'000;
  config.seed = 42;
  config.verify_invariants = true;

  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  EXPECT_GT(result.total_success, 0);
  EXPECT_GT(result.stm.ro_starts, 0);
  EXPECT_GT(result.stm.ro_commits, 0);
  EXPECT_EQ(result.stm.ro_aborts, 0);
  EXPECT_EQ(result.stm.ro_commits, result.stm.ro_starts);
}

}  // namespace
}  // namespace sb7
