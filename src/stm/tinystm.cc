#include "src/stm/tinystm.h"

#include "src/common/diag.h"

namespace sb7 {

std::unique_ptr<TxImplBase> TinyStm::CreateTx() { return std::make_unique<TinyTx>(); }

void TinyTx::BeginAttempt() {
  rv_ = LockTable::ClockNow();
  read_set_.clear();
  undo_log_.clear();
  owned_.clear();
  ClearHashIndex(owned_lookup_);
}

bool TinyTx::ValidateReadSet() {
  TxValidationScope validation;
  validation.set_steps(read_set_.size());
  counters_.validation_steps += static_cast<int64_t>(read_set_.size());
  for (const ReadEntry& entry : read_set_) {
    // mo: acquire — pairs with committers' release stores on the stripe.
    const uint64_t word = entry.stripe->load(std::memory_order_acquire);
    if (word == entry.observed) {
      continue;
    }
    // The word changed since the read. The only benign change is this
    // transaction itself locking the stripe for writing afterwards.
    if (LockTable::IsLocked(word) && LockTable::OwnerOf(word) == this) {
      continue;
    }
    SetTxAbortCause(AbortCause::kReadValidation, entry.stripe);
    return false;
  }
  return true;
}

bool TinyTx::ExtendSnapshot(uint64_t now) {
  if (!ValidateReadSet()) {
    return false;
  }
  rv_ = now;
  return true;
}

uint64_t TinyTx::Read(const TxFieldBase& field) {
  ++counters_.reads;
  sp::AtomicU64& stripe = LockTable::Global().StripeOf(field);
  while (true) {
    // mo: acquire — the pre/post pair brackets the in-place data read
    // seqlock-style; both must see the owning writer's release.
    const uint64_t pre = stripe.load(std::memory_order_acquire);
    if (LockTable::IsLocked(pre)) {
      if (LockTable::OwnerOf(pre) == this) {
        // In-place write-through: memory already holds this transaction's
        // value.
        return field.LoadRaw(std::memory_order_acquire);
      }
      SetTxAbortCause(AbortCause::kWriteLock, &stripe);
      throw TxAborted{};  // owned by a concurrent writer
    }
    const uint64_t value = field.LoadRaw(std::memory_order_acquire);
    // mo: acquire — the post read of the seqlock pair bracketing the data.
    const uint64_t post = stripe.load(std::memory_order_acquire);
    if (post != pre) {
      continue;  // raced with a commit; re-read
    }
    if (LockTable::VersionOf(pre) > rv_) {
      if (!ExtendSnapshot(LockTable::ClockNow())) {
        // Cause and conflict key were set by ValidateReadSet.
        throw TxAborted{};
      }
      // `value` belongs to the old snapshot: a commit landing between its
      // load and the clock read above may have overwritten it with a
      // version the extended snapshot covers. Re-read under the new
      // snapshot, as TinySTM's stm_read restarts after an extension.
      continue;
    }
    read_set_.push_back(ReadEntry{&stripe, pre});
    return value;
  }
}

void TinyTx::Write(TxFieldBase& field, uint64_t value) {
  ++counters_.writes;
  sp::AtomicU64& stripe = LockTable::Global().StripeOf(field);
  if (!OwnsStripe(&stripe)) {
    // mo: acquire — probe must see the last owner's release of the stripe.
    uint64_t word = stripe.load(std::memory_order_acquire);
    if (LockTable::IsLocked(word)) {
      // Either a concurrent writer owns it, or this transaction does (which
      // OwnsStripe already ruled out).
      SetTxAbortCause(AbortCause::kWriteLock, &stripe);
      throw TxAborted{};
    }
    if (LockTable::VersionOf(word) > rv_ && !ExtendSnapshot(LockTable::ClockNow())) {
      // Cause and conflict key were set by ValidateReadSet.
      throw TxAborted{};
    }
    // mo: acq_rel — encounter-time acquisition: observe the prior owner's
    // release and publish our ownership before the in-place store.
    if (!stripe.compare_exchange_strong(word, LockTable::MakeLocked(this),
                                        std::memory_order_acq_rel)) {
      SetTxAbortCause(AbortCause::kWriteLock, &stripe);
      throw TxAborted{};
    }
    owned_.push_back(OwnedStripe{&stripe, word});
    owned_lookup_.insert(&stripe);
  }
  undo_log_.push_back(UndoEntry{&field, field.LoadRaw(std::memory_order_acquire)});
  field.StoreRaw(value, std::memory_order_release);
}

bool TinyTx::TryCommit() {
  if (owned_.empty()) {
    return true;
  }
  const uint64_t wv = LockTable::ClockAdvance();
  if (wv != rv_ + 1 && !ValidateReadSet()) {
    RollbackAndRelease();
    return false;
  }
  for (const OwnedStripe& held : owned_) {
    // mo: release — publishes the in-place writes before the new version.
    held.stripe->store(LockTable::MakeVersion(wv), std::memory_order_release);
  }
  owned_.clear();
  ClearHashIndex(owned_lookup_);
  return true;
}

void TinyTx::RollbackAndRelease() {
  // Undo in reverse so repeated writes to a field restore the original.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    it->field->StoreRaw(it->old_value, std::memory_order_release);
  }
  undo_log_.clear();
  for (const OwnedStripe& held : owned_) {
    // mo: release — publishes the undo writeback before dropping the lock.
    held.stripe->store(held.pre_lock_word, std::memory_order_release);
  }
  owned_.clear();
  ClearHashIndex(owned_lookup_);
}

void TinyTx::AbortSelf() { RollbackAndRelease(); }

}  // namespace sb7
