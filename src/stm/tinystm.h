// TinySTM-style word-based STM (Felber, Fetzer, Riegel — the paper's
// [11]/[13] lazy-snapshot / encounter-time family).
//
// Mechanics: encounter-time locking — a write immediately acquires the
// stripe, saves the old value in an undo log and updates memory in place.
// Reads are invisible and timestamp-validated; when a read observes a version
// newer than the current snapshot the snapshot is *extended* (the whole read
// set is revalidated against the current clock), which lets long transactions
// survive concurrent commits that touched none of their reads — the key
// difference from plain TL2.

#ifndef STMBENCH7_SRC_STM_TINYSTM_H_
#define STMBENCH7_SRC_STM_TINYSTM_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/stm/lock_table.h"
#include "src/stm/stm.h"

namespace sb7 {

class TinyStm : public Stm {
 public:
  std::string_view name() const override { return "tinystm"; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;
};

class TinyTx : public TxImplBase {
 public:
  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

 private:
  struct ReadEntry {
    const sp::AtomicU64* stripe;
    uint64_t observed;  // stripe word at read time
  };
  struct UndoEntry {
    TxFieldBase* field;
    uint64_t old_value;
  };
  struct OwnedStripe {
    sp::AtomicU64* stripe;
    uint64_t pre_lock_word;  // restored on abort
  };

  bool OwnsStripe(const sp::AtomicU64* stripe) const {
    return owned_lookup_.count(stripe) != 0;
  }

  // Revalidates the read set against `now` and, on success, moves the
  // snapshot forward. Returns false if any read is stale.
  bool ExtendSnapshot(uint64_t now);
  bool ValidateReadSet();
  void RollbackAndRelease();

  uint64_t rv_ = 0;

  std::vector<ReadEntry> read_set_;
  std::vector<UndoEntry> undo_log_;
  std::vector<OwnedStripe> owned_;
  std::unordered_set<const sp::AtomicU64*> owned_lookup_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_TINYSTM_H_
