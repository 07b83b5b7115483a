#include "src/stm/tl2.h"

#include <algorithm>

#include "src/common/diag.h"

namespace sb7 {

std::unique_ptr<TxImplBase> Tl2Stm::CreateTx() { return std::make_unique<Tl2Tx>(); }

void Tl2Tx::BeginAttempt() {
  rv_ = LockTable::ClockNow();
  read_set_.clear();
  write_log_.clear();
  ClearHashIndex(write_index_);
  acquired_.clear();
}

uint64_t Tl2Tx::Read(const TxFieldBase& field) {
  ++counters_.reads;
  if (!write_index_.empty()) {
    auto it = write_index_.find(&field);
    if (it != write_index_.end()) {
      return write_log_[it->second].value;
    }
  }
  const sp::AtomicU64& stripe = LockTable::Global().StripeOf(field);
  // mo: acquire (both stripe loads and the data load) — the pre/post stripe
  // check brackets the data read seqlock-style; each must see the writeback
  // published by the committer's release of the stripe.
  const uint64_t pre = stripe.load(std::memory_order_acquire);
  const uint64_t value = field.LoadRaw(std::memory_order_acquire);
  const uint64_t post = stripe.load(std::memory_order_acquire);
  if (LockTable::IsLocked(pre) || pre != post || LockTable::VersionOf(pre) > rv_) {
    // Location is being written, or was written after this transaction's
    // snapshot point: the snapshot cannot be extended in plain TL2.
    SetTxAbortCause(AbortCause::kReadValidation, &stripe);
    throw TxAborted{};
  }
  read_set_.push_back(&stripe);
  return value;
}

void Tl2Tx::Write(TxFieldBase& field, uint64_t value) {
  ++counters_.writes;
  auto [it, inserted] = write_index_.try_emplace(&field, write_log_.size());
  if (inserted) {
    write_log_.push_back(WriteEntry{&field, value});
  } else {
    write_log_[it->second].value = value;
  }
}

bool Tl2Tx::AcquireWriteStripes() {
  // Collect the distinct stripes covering the write set; sorting by address
  // makes concurrent committers acquire in the same order, so the only
  // possible outcome of a collision is a clean abort, never deadlock.
  std::vector<sp::AtomicU64*> stripes;
  stripes.reserve(write_log_.size());
  for (const WriteEntry& entry : write_log_) {
    stripes.push_back(&LockTable::Global().StripeOf(*entry.field));
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());

  acquired_.reserve(stripes.size());
  for (sp::AtomicU64* stripe : stripes) {
    // mo: acquire on the probe; acq_rel on the CAS — taking the lock must
    // observe the prior owner's release and publish our ownership.
    uint64_t word = stripe->load(std::memory_order_acquire);
    if (LockTable::IsLocked(word) ||
        !stripe->compare_exchange_strong(word, LockTable::MakeLocked(this),
                                         std::memory_order_acq_rel)) {
      SetTxAbortCause(AbortCause::kWriteLock, stripe);
      ReleaseAcquired(0, /*use_saved=*/true);
      return false;
    }
    acquired_.push_back(AcquiredStripe{stripe, word});
  }
  return true;
}

void Tl2Tx::ReleaseAcquired(uint64_t unlock_version, bool use_saved) {
  for (const AcquiredStripe& held : acquired_) {
    // mo: release — unlocking publishes the redo-log writeback (in-place
    // stores, or mvstm's version nodes) or, on abort, re-exposes the
    // untouched pre-lock version.
    held.stripe->store(use_saved ? held.saved_word : LockTable::MakeVersion(unlock_version),
                       std::memory_order_release);
  }
  acquired_.clear();
}

bool Tl2Tx::ValidateReadSet() {
  TxValidationScope validation;
  validation.set_steps(read_set_.size());
  counters_.validation_steps += static_cast<int64_t>(read_set_.size());
  for (const sp::AtomicU64* stripe : read_set_) {
    // mo: acquire — pairs with committers' release stores; a version we
    // accept implies that commit's writeback is visible.
    const uint64_t word = stripe->load(std::memory_order_acquire);
    uint64_t effective = word;
    if (LockTable::IsLocked(word)) {
      if (LockTable::OwnerOf(word) != this) {
        SetTxAbortCause(AbortCause::kReadValidation, stripe);
        return false;
      }
      // Locked by this transaction's own commit: the stripe must still be
      // validated against the version it carried *before* we locked it — a
      // conflicting commit may have bumped it between our read and our lock
      // acquisition (acquired_ is sorted by stripe address; see
      // AcquireWriteStripes).
      const auto it = std::lower_bound(
          acquired_.begin(), acquired_.end(), stripe,
          [](const AcquiredStripe& held, const sp::AtomicU64* key) {
            return held.stripe < key;
          });
      SB7_DCHECK(it != acquired_.end() && it->stripe == stripe);
      effective = it->saved_word;
    }
    if (LockTable::VersionOf(effective) > rv_) {
      SetTxAbortCause(AbortCause::kReadValidation, stripe);
      return false;
    }
  }
  return true;
}

bool Tl2Tx::TakeWriteVersion(uint64_t* wv) {
  *wv = LockTable::ClockAdvance();
  // If nobody committed between start and lock acquisition, the read set is
  // trivially valid (the standard TL2 rv + 1 == wv shortcut).
  return *wv == rv_ + 1 || ValidateReadSet();
}

void Tl2Tx::WriteBack(uint64_t /*wv*/) {
  for (const WriteEntry& entry : write_log_) {
    entry.field->StoreRaw(entry.value, std::memory_order_release);
  }
}

bool Tl2Tx::TryCommit() {
  if (write_log_.empty()) {
    // Read-only: per-read validation already pinned every read to the rv_
    // snapshot, so the transaction is serializable at its start point.
    return true;
  }
  if (!AcquireWriteStripes()) {
    return false;
  }
  uint64_t wv = 0;
  if (!TakeWriteVersion(&wv)) {
    ReleaseAcquired(0, /*use_saved=*/true);
    return false;
  }
  // Past this point the commit cannot fail.
  WriteBack(wv);
  ReleaseAcquired(wv, /*use_saved=*/false);
  return true;
}

void Tl2Tx::AbortSelf() {
  // Reads are invisible and writes are buffered; nothing to undo.
  SB7_DCHECK(acquired_.empty());
}

}  // namespace sb7
