// Every site that allocates inside a transaction must register the abort
// hook that frees the allocation before its first transactional access
// that can abort the attempt; an abort in between leaks the allocation.
// These tests walk an injected abort through every transactional write of
// each such site. The leak checker of an AddressSanitizer build
// (`cmake --preset asan`) reports whatever an aborted attempt left behind;
// in every build, the retried executions must leave a consistent structure.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/containers/skiplist_index.h"
#include "src/containers/snapshot_index.h"
#include "src/containers/txvector.h"
#include "src/core/builder.h"
#include "src/core/data_holder.h"
#include "src/core/invariants.h"
#include "src/mvstm/mvstm.h"

namespace sb7 {
namespace {

// mvstm whose next execution, once armed with k, aborts its first attempt at
// the attempt's k-th transactional write; the retry then runs clean.
class AbortAtWriteStm : public MvStm {
 public:
  void Arm(int k) {
    armed_at_ = k;
    fired_ = false;
  }
  // True when the armed execution reached its k-th write and aborted there.
  bool fired() const { return fired_; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override { return std::make_unique<Tx>(*this); }

 private:
  class Tx : public MvTx {
   public:
    explicit Tx(AbortAtWriteStm& stm) : stm_(stm) {}

    void SetReadOnly(bool read_only) override {
      MvTx::SetReadOnly(read_only);
      abort_at_ = stm_.armed_at_;
      stm_.armed_at_ = 0;
      writes_ = 0;
    }

    void Write(TxFieldBase& field, uint64_t value) override {
      if (abort_at_ != 0 && ++writes_ == abort_at_) {
        abort_at_ = 0;
        stm_.fired_ = true;
        throw TxAborted{};
      }
      MvTx::Write(field, value);
    }

   private:
    AbortAtWriteStm& stm_;
    int abort_at_ = 0;
    int writes_ = 0;
  };

  int armed_at_ = 0;
  bool fired_ = false;
};

// Calls run(k) for k = 1, 2, ... with `stm` armed to abort at the k-th write
// of the execution run(k) starts first, until that execution has fewer than
// k writes. Returns the number of abort points walked.
template <typename Run>
int AbortAtEveryWrite(AbortAtWriteStm& stm, Run run) {
  int k = 1;
  for (;; ++k) {
    stm.Arm(k);
    run(k);
    if (!stm.fired()) {
      return k - 1;
    }
  }
}

class TextCell : public TmObject {
 public:
  TextCell() : text(unit(), "initial") {}
  TxText text;
};

TEST(AbortHooksTest, TxTextSet) {
  AbortAtWriteStm stm;
  TextCell cell;
  const int walked = AbortAtEveryWrite(stm, [&](int k) {
    stm.RunAtomically([&](Transaction&) { cell.text.Set("body " + std::to_string(k)); });
  });
  EXPECT_GE(walked, 1);
  EXPECT_EQ(cell.text.Get(), "body " + std::to_string(walked + 1));
}

TEST(AbortHooksTest, SnapshotIndexPublish) {
  AbortAtWriteStm stm;
  SnapshotIndex<int64_t, int64_t> index;
  const int walked = AbortAtEveryWrite(stm, [&](int k) {
    stm.RunAtomically([&](Transaction&) { index.Insert(k, k); });
  });
  EXPECT_GE(walked, 1);
  EXPECT_EQ(index.Size(), walked + 1);
}

TEST(AbortHooksTest, SkipListIndexInsert) {
  AbortAtWriteStm stm;
  SkipListIndex<int64_t, int64_t> index;
  const int walked = AbortAtEveryWrite(stm, [&](int k) {
    stm.RunAtomically([&](Transaction&) { index.Insert(k, k); });
  });
  EXPECT_GE(walked, 1);
  EXPECT_EQ(index.Size(), walked + 1);
}

TEST(AbortHooksTest, TxVectorGrow) {
  AbortAtWriteStm stm;
  const int walked = AbortAtEveryWrite(stm, [&](int k) {
    // Full at capacity 1, so the transactional push must grow it.
    TxVector<int64_t> vec(1);
    vec.PushBack(0);
    stm.RunAtomically([&](Transaction&) { vec.PushBack(k); });
    EXPECT_EQ(vec.Size(), 2);
    EXPECT_EQ(vec.Get(1), k);
  });
  EXPECT_GE(walked, 1);
}

class AbortHooksBuilderTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  void SetUp() override {
    DataHolder::Setup setup;
    setup.params = Parameters::Tiny();
    setup.index_kind = GetParam();
    dh_ = std::make_unique<DataHolder>(setup);
  }
  void TearDown() override {
    const InvariantReport report = CheckInvariants(*dh_);
    EXPECT_TRUE(report.ok()) << report.violations.front();
  }

  // Any complex assembly on `level`.
  ComplexAssembly* ComplexAt(int level) {
    ComplexAssembly* found = nullptr;
    dh_->complex_assembly_id_index().ForEach([&](const int64_t&, ComplexAssembly* assembly) {
      if (assembly->level() == level) {
        found = assembly;
      }
      return found == nullptr;
    });
    return found;
  }

  AbortAtWriteStm stm_;
  Rng rng_{11};
  std::unique_ptr<DataHolder> dh_;
};

TEST_P(AbortHooksBuilderTest, CreateCompositePart) {
  const int walked = AbortAtEveryWrite(stm_, [&](int) {
    CompositePart* part = nullptr;
    stm_.RunAtomically([&](Transaction&) { part = CreateCompositePart(*dh_, rng_); });
    stm_.RunAtomically([&](Transaction&) { DeleteCompositePart(*dh_, part); });
  });
  EXPECT_GE(walked, 1);
}

TEST_P(AbortHooksBuilderTest, CreateBaseAssembly) {
  ComplexAssembly* parent = ComplexAt(2);
  ASSERT_NE(parent, nullptr);
  const int walked = AbortAtEveryWrite(stm_, [&](int) {
    BaseAssembly* assembly = nullptr;
    stm_.RunAtomically([&](Transaction&) { assembly = CreateBaseAssembly(*dh_, parent, rng_); });
    stm_.RunAtomically([&](Transaction&) { DeleteBaseAssembly(*dh_, assembly); });
  });
  EXPECT_GE(walked, 1);
}

TEST_P(AbortHooksBuilderTest, CreateAssemblySubtree) {
  ComplexAssembly* parent = ComplexAt(3);
  ASSERT_NE(parent, nullptr);
  const int walked = AbortAtEveryWrite(stm_, [&](int) {
    Assembly* subtree = nullptr;
    stm_.RunAtomically(
        [&](Transaction&) { subtree = CreateAssemblySubtree(*dh_, parent, 2, rng_); });
    stm_.RunAtomically([&](Transaction&) {
      DeleteAssemblySubtree(*dh_, static_cast<ComplexAssembly*>(subtree));
    });
  });
  EXPECT_GE(walked, 1);
}

INSTANTIATE_TEST_SUITE_P(Indexes, AbortHooksBuilderTest,
                         ::testing::Values(IndexKind::kSnapshot, IndexKind::kSkipList),
                         [](const ::testing::TestParamInfo<IndexKind>& info) {
                           return std::string(IndexKindName(info.param));
                         });

}  // namespace
}  // namespace sb7
