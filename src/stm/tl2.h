// TL2-style word-based STM (Dice, Shalev, Shavit — DISC'06, the paper's [5]).
//
// Mechanics: a transaction samples the global version clock at start (rv),
// reads are invisible and validated per-read against the per-stripe versioned
// locks (post-validation gives opacity, so no zombie executions), writes are
// buffered in a redo log and published at commit under commit-time stripe
// locks with a fresh write version (wv).

#ifndef STMBENCH7_SRC_STM_TL2_H_
#define STMBENCH7_SRC_STM_TL2_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/stm/lock_table.h"
#include "src/stm/stm.h"

namespace sb7 {

class Tl2Stm : public Stm {
 public:
  std::string_view name() const override { return "tl2"; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;
};

// The TL2 engine. mvstm's update mode runs it too: MvTx derives from Tl2Tx
// and replaces only the commit's write-version step and its writeback
// (src/mvstm/mvstm.h).
class Tl2Tx : public TxImplBase {
 public:
  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

 protected:
  struct WriteEntry {
    TxFieldBase* field;
    uint64_t value;
  };

  // Commit steps a derived engine may replace. Both run with the write
  // stripes held. TakeWriteVersion sets *wv to the commit's write version
  // and returns false (cause recorded) when the read set does not validate
  // against it; WriteBack makes the write log visible at `wv` before the
  // stripes unlock.
  virtual bool TakeWriteVersion(uint64_t* wv);
  virtual void WriteBack(uint64_t wv);

  bool ValidateReadSet();

  uint64_t rv_ = 0;
  std::vector<WriteEntry> write_log_;

 private:
  // Acquires the stripes covering the write set in address order; returns
  // false (with everything released) if any stripe is held by another
  // transaction.
  bool AcquireWriteStripes();
  void ReleaseAcquired(uint64_t unlock_word_version, bool use_saved);

  std::vector<const sp::AtomicU64*> read_set_;
  std::unordered_map<const TxFieldBase*, size_t> write_index_;

  struct AcquiredStripe {
    sp::AtomicU64* stripe;
    uint64_t saved_word;  // pre-lock word, restored on failed commit
  };
  std::vector<AcquiredStripe> acquired_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_TL2_H_
