#include "src/stm/astm.h"

#include "src/common/diag.h"
#include "src/stm/lock_table.h"

namespace sb7 {
namespace {

// Conflict key for a unit-granular abort: the lock-table stripe of the
// unit's first field, so attribution shares the word-STM key space. Null
// for the (theoretical) field-less unit.
const void* UnitConflictKey(const TmUnit& unit) {
  const auto& fields = unit.fields();
  return fields.empty() ? nullptr
                        : static_cast<const void*>(&LockTable::Global().StripeOf(*fields[0]));
}

}  // namespace

AstmStm::AstmStm(std::unique_ptr<ContentionManager> cm) : cm_(std::move(cm)) {
  if (!cm_) {
    cm_ = MakePolkaManager();
  }
}

std::unique_ptr<TxImplBase> AstmStm::CreateTx() {
  return std::make_unique<AstmTx>(stats(), *cm_);
}

void AstmTx::BeginAttempt() {
  // mo: release — re-arming the status publishes the cleaned-up state from
  // the previous attempt to contention managers chasing astm_owner.
  status_.store(AstmStatus::kActive, std::memory_order_release);
  ClearHashIndex(read_map_);
  ClearHashIndex(write_map_);
  write_order_.clear();
  // mo: relaxed — heuristic mirror of the open count (see astm.h).
  priority_.store(0, std::memory_order_relaxed);
}

void AstmTx::CheckAlive() const {
  // mo: acquire — pairs with the killer's acq_rel CAS in RequestAbort.
  if (status_.load(std::memory_order_acquire) == AstmStatus::kAborted) {
    SetTxAbortCause(AbortCause::kKill);
    throw TxAborted{};
  }
}

bool AstmTx::ValidateReadList() {
  // Full scan: this is the O(k) step that, executed on every new read-open,
  // yields the O(k^2) behaviour characteristic of invisible-read STMs.
  TxValidationScope validation;
  validation.set_steps(read_map_.size());
  counters_.validation_steps += static_cast<int64_t>(read_map_.size());
  for (const auto& [unit, version] : read_map_) {
    // mo: acquire — pairs with committers' seqlock bumps during writeback.
    if (unit->astm_version.load(std::memory_order_acquire) != version) {
      SetTxAbortCause(AbortCause::kReadValidation, UnitConflictKey(*unit));
      return false;
    }
  }
  return true;
}

bool AstmTx::ReadUnitOwnedByRival() {
  // Write skew: T1 and T2 both read {a, b}, T1 then owns a and T2 owns b.
  // Neither has flushed, so both read lists still validate by version. DSTM
  // semantics close the gap: a read unit owned by another live transaction
  // is a conflict. Each side stores its ownership (OpenWrite's CAS) and then
  // loads the other's, a Dekker pattern.
  // mo: seq_cst fence — orders our ownership CASes before the owner loads
  // below; with the rival's matching fence at least one of the two
  // committers sees the other's ownership.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (const auto& [unit, version] : read_map_) {
    // mo: acquire — an owner we see must be chased for its status.
    AstmTx* owner = unit->astm_owner.load(std::memory_order_acquire);
    if (owner != nullptr && owner != this && owner->status() != AstmStatus::kAborted) {
      SetTxAbortCause(AbortCause::kReadValidation, UnitConflictKey(*unit));
      return true;
    }
  }
  return false;
}

void AstmTx::HandleConflict(const TmUnit& unit, AstmTx& owner, int& retries) {
  if (owner.status() != AstmStatus::kActive) {
    // The owner is committing or cleaning up; it will release shortly.
    Backoff::Pause(++retries);
    return;
  }
  switch (cm_->OnConflict(*this, owner, retries)) {
    case ContentionManager::Action::kAbortSelf:
      // Lost the arbitration for `unit` to its current owner.
      SetTxAbortCause(AbortCause::kWriteLock, UnitConflictKey(unit));
      throw TxAborted{};
    case ContentionManager::Action::kAbortOther:
      if (owner.RequestAbort()) {
        // mo: relaxed — StmStats tally.
        stats_.kills.fetch_add(1, std::memory_order_relaxed);
      }
      Backoff::Pause(++retries);  // wait for the kill to take effect
      return;
    case ContentionManager::Action::kRetry:
      Backoff::Pause(++retries);
      return;
  }
}

uint64_t AstmTx::OpenRead(const TmUnit& unit) {
  if (auto it = read_map_.find(&unit); it != read_map_.end()) {
    return it->second;
  }
  int retries = 0;
  uint64_t version;
  while (true) {
    CheckAlive();
    // mo: acquire — an even version pairs with the last committer's flush.
    version = unit.astm_version.load(std::memory_order_acquire);
    if ((version & 1) != 0) {
      // A committed writer is flushing its image; wait it out.
      Backoff::Pause(++retries);
      continue;
    }
    // mo: acquire — chasing the owner pointer must see that descriptor's
    // published state (status, priority).
    AstmTx* owner = unit.astm_owner.load(std::memory_order_acquire);
    if (owner != nullptr && owner != this) {
      // Read-after-write conflict (DSTM/ASTM semantics): arbitrate.
      HandleConflict(unit, *owner, retries);
      continue;
    }
    break;
  }
  if (!ValidateReadList()) {
    // Cause and conflict key were set by ValidateReadList.
    throw TxAborted{};
  }
  read_map_.emplace(&unit, version);
  // mo: relaxed — heuristic open-count mirror (see astm.h).
  priority_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

uint64_t AstmTx::Read(const TxFieldBase& field) {
  CheckAlive();
  ++counters_.reads;
  const TmUnit& unit = field.owner();
  if (!write_map_.empty()) {
    if (auto it = write_map_.find(const_cast<TmUnit*>(&unit)); it != write_map_.end()) {
      return it->second.words[field.index_in_unit()];
    }
  }
  const uint64_t recorded = OpenRead(unit);
  const uint64_t value = field.LoadRaw(std::memory_order_acquire);
  // Post-validation: a writer may have committed and flushed between the
  // open and the load; the seqlock-style version detects both the bump and
  // the odd (mid-flush) state.
  // mo: acquire — seqlock post-check; pairs with the writeback bumps.
  if (unit.astm_version.load(std::memory_order_acquire) != recorded) {
    SetTxAbortCause(AbortCause::kReadValidation, UnitConflictKey(unit));
    throw TxAborted{};
  }
  return value;
}

AstmTx::WriteImage& AstmTx::OpenWrite(TmUnit& unit) {
  int retries = 0;
  while (true) {
    CheckAlive();
    // mo: acquire load / acq_rel CAS — acquiring ownership must see the
    // previous owner's release (its flush is complete) and publish this
    // descriptor to rivals and contention managers.
    AstmTx* owner = unit.astm_owner.load(std::memory_order_acquire);
    if (owner == nullptr) {
      if (unit.astm_owner.compare_exchange_strong(owner, this, std::memory_order_acq_rel)) {
        break;
      }
      continue;
    }
    SB7_DCHECK(owner != this);  // write_map_ hit would have short-circuited
    HandleConflict(unit, *owner, retries);
  }
  // Ownership acquired; the previous owner (if any) finished its flush before
  // releasing, so the version is stable and even. Clone the whole object:
  // every field word plus any out-of-line payload. This is object-level
  // logging — the cost is proportional to the object, not to the write.
  WriteImage image;
  const auto& fields = unit.fields();
  image.words.reserve(fields.size());
  for (const TxFieldBase* f : fields) {
    image.words.push_back(f->LoadRaw(std::memory_order_acquire));
  }
  counters_.bytes_cloned += static_cast<int64_t>(fields.size() * sizeof(uint64_t));
  if (const TmUnit::PayloadSource& source = unit.payload_source()) {
    const std::string_view payload = source();
    image.payload_clone.assign(payload.data(), payload.size());
    counters_.bytes_cloned += static_cast<int64_t>(payload.size());
  }
  write_order_.push_back(&unit);
  // mo: relaxed — heuristic open-count mirror (see astm.h).
  priority_.fetch_add(1, std::memory_order_relaxed);
  return write_map_.emplace(&unit, std::move(image)).first->second;
}

void AstmTx::Write(TxFieldBase& field, uint64_t value) {
  CheckAlive();
  ++counters_.writes;
  TmUnit& unit = field.owner();
  auto it = write_map_.find(&unit);
  if (it == write_map_.end()) {
    WriteImage& image = OpenWrite(unit);
    image.words[field.index_in_unit()] = value;
    return;
  }
  it->second.words[field.index_in_unit()] = value;
}

bool AstmTx::TryCommit() {
  // A read-only transaction serializes at its validation below, before any
  // rival's flush; only one that writes can complete a skew.
  if (!write_order_.empty() && ReadUnitOwnedByRival()) {
    AbortSelf();
    return false;
  }
  if (!ValidateReadList()) {
    // Cause and conflict key were set by ValidateReadList.
    AbortSelf();
    return false;
  }
  AstmStatus expected = AstmStatus::kActive;
  // mo: acq_rel — the commit point races the killer's CAS in RequestAbort;
  // exactly one lands, and its effects must be visible both ways.
  if (!status_.compare_exchange_strong(expected, AstmStatus::kCommitted,
                                       std::memory_order_acq_rel)) {
    SetTxAbortCause(AbortCause::kKill);
    AbortSelf();  // a contention manager killed this transaction
    return false;
  }
  // Commit point passed: flush redo images. The per-object seqlock goes odd
  // during the flush so concurrent readers never consume torn states.
  for (TmUnit* unit : write_order_) {
    const WriteImage& image = write_map_[unit];
    // mo: acq_rel — odd marks flush-in-progress; readers spin on it.
    unit->astm_version.fetch_add(1, std::memory_order_acq_rel);
    const auto& fields = unit->fields();
    for (size_t i = 0; i < fields.size(); ++i) {
      fields[i]->StoreRaw(image.words[i], std::memory_order_release);
    }
    // mo: acq_rel bump publishes the flushed words (even again); release
    // on the owner clear lets the next acquirer see the completed flush.
    unit->astm_version.fetch_add(1, std::memory_order_acq_rel);
    unit->astm_owner.store(nullptr, std::memory_order_release);
  }
  return true;
}

void AstmTx::ReleaseOwnerships() {
  // No writeback happened (abort path), so versions stay untouched.
  for (TmUnit* unit : write_order_) {
    // mo: release — hands the unit back with our (non-)effects settled.
    unit->astm_owner.store(nullptr, std::memory_order_release);
  }
  write_order_.clear();
  ClearHashIndex(write_map_);
  // Keep the advertised priority consistent with the surviving read list
  // until the next BeginAttempt resets both.
  // mo: relaxed — heuristic open-count mirror (see astm.h).
  priority_.store(static_cast<int64_t>(read_map_.size()), std::memory_order_relaxed);
}

void AstmTx::AbortSelf() {
  // mo: release — publishes the dead state before ownerships drop.
  status_.store(AstmStatus::kAborted, std::memory_order_release);
  ReleaseOwnerships();
}

}  // namespace sb7
