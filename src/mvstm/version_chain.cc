#include "src/mvstm/version_chain.h"

#include <atomic>
#include <new>

#include "src/common/diag.h"
#include "src/ebr/ebr.h"
#include "src/stm/lock_table.h"
#include "src/stm/stm.h"

#ifdef SB7_MC
#include <mutex>
#include <vector>

#include "src/mc/scheduler.h"
#endif

namespace sb7 {

namespace {

// mo: relaxed (all uses) — leak-check tally; read single-threaded in tests.
std::atomic<int64_t> g_live_mv_nodes{0};

void FreeNode(MvVersion* node) {
#ifdef SB7_MC
  if (sp::UnderMcScheduler()) {
    // Under the explorer a freed node is marked freed for the scheduler and
    // kept mapped: a schedule that still reads it is reported as a
    // use-after-free, instead of walking recycled memory. Never reused, so
    // no later allocation can alias it.
    static std::mutex mu;
    static std::vector<MvVersion*>* quarantine = new std::vector<MvVersion*>();
    mc::ModelFree(node);
    std::lock_guard<std::mutex> lock(mu);
    quarantine->push_back(node);
    return;
  }
#endif
  delete node;
}

}  // namespace

namespace internal {

void FreeMvHistoryHead(void* head) {
  delete static_cast<MvVersion*>(head);
  // mo: relaxed — see g_live_mv_nodes.
  g_live_mv_nodes.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace internal

// mo: relaxed — see g_live_mv_nodes.
int64_t MvVersion::LiveNodeCount() { return g_live_mv_nodes.load(std::memory_order_relaxed); }

DisplacedVersions* DisplacedVersions::New(size_t capacity) {
  // One block: the header, then the node pointers.
  static_assert(sizeof(DisplacedVersions) % alignof(MvVersion*) == 0);
  void* block = ::operator new(sizeof(DisplacedVersions) + capacity * sizeof(MvVersion*));
  return new (block) DisplacedVersions(capacity);
}

void DisplacedVersions::Retire(DisplacedVersions* batch) {
  // mo: relaxed — see g_live_mv_nodes.
  g_live_mv_nodes.fetch_add(static_cast<int64_t>(batch->allocated_),
                            std::memory_order_relaxed);
  EbrDomain::Global().Retire(batch, &DisplacedVersions::Free);
}

void DisplacedVersions::Free(void* ptr) {
  auto* batch = static_cast<DisplacedVersions*>(ptr);
  for (size_t i = 0; i < batch->size_; ++i) {
    FreeNode(batch->nodes()[i]);
  }
  // mo: relaxed — see g_live_mv_nodes.
  g_live_mv_nodes.fetch_sub(static_cast<int64_t>(batch->size_), std::memory_order_relaxed);
  batch->~DisplacedVersions();
  ::operator delete(batch);
}

void VersionChain::Publish(TxFieldBase& field, uint64_t value, uint64_t commit_ts,
                           DisplacedVersions& displaced) {
  SB7_DCHECK(displaced.size_ < displaced.capacity_);
  // mo: relaxed — the committer holds this field's stripe lock, so it is the
  // only possible writer of the head and the word until it unlocks.
  auto* old_head = static_cast<MvVersion*>(field.LoadMvHistory(std::memory_order_relaxed));
  if (old_head == nullptr) {
    // First write ever: synthesize the pre-history version so that readers
    // with a start timestamp below `commit_ts` still find their snapshot.
    old_head = new MvVersion{field.LoadRaw(std::memory_order_relaxed), 0, nullptr};
    ++displaced.allocated_;
  }
  auto* node = new MvVersion{value, commit_ts, old_head};
  ++displaced.allocated_;
  // Publish the version before the in-place word: a reader that sees the new
  // word but a null history head would misattribute it to the pre-history
  // snapshot (see the chain-empty fallback in ReadAtSnapshot).
  // mo: release (both) — the node's fields must be visible before the head
  // pointer, and the head before the word (readers load in reverse order).
  field.StoreMvHistory(node, std::memory_order_release);
  field.StoreRaw(value, std::memory_order_release);
  // The displaced node stays reachable (node->next) for the read-only
  // transactions that still need it; EBR frees its batch only once every
  // registered thread has quiesced, i.e. once those transactions have
  // finished. Later transactions pin start_ts >= commit_ts and stop their
  // walk at `node`.
  displaced.nodes()[displaced.size_++] = old_head;
}

uint64_t VersionChain::ReadAtSnapshot(const TxFieldBase& field, uint64_t snapshot_ts) {
  // Safety hinges on the commit protocol's lock-before-clock-advance order
  // (Tl2Tx::TryCommit, which MvTx runs): a commit with timestamp wv holds all its
  // stripe locks before the clock can reach wv. Hence, for any reader whose
  // snapshot_ts came from the clock, an UNLOCKED stripe proves that every
  // commit to it with timestamp <= snapshot_ts has fully published its
  // versions — the word and the chain can be trusted. A LOCKED stripe may
  // carry an in-flight commit that belongs in this snapshot, so the reader
  // waits out the (short) publish+release window instead of serving a
  // possibly pre-commit state. Waiting is not aborting: the reader stays
  // abort-free, it is merely not wait-free across a rival's commit point.
  const sp::AtomicU64& stripe = LockTable::Global().StripeOf(field);
  for (int attempt = 0;; ++attempt) {
    Backoff::Pause(attempt);
    // mo: acquire — an unlocked word pairs with the last committer's release,
    // making its published chain and writeback visible.
    const uint64_t pre = stripe.load(std::memory_order_acquire);
    if (LockTable::IsLocked(pre)) {
      continue;
    }
    if (LockTable::VersionOf(pre) <= snapshot_ts) {
      // The stripe's newest commit is within the snapshot: the in-place word
      // is the snapshot value. The post-check rejects words torn by a commit
      // that locked the stripe between the two loads.
      const uint64_t word = field.LoadRaw(std::memory_order_acquire);
      // mo: acquire — seqlock post-check; pairs with lockers' CAS.
      if (stripe.load(std::memory_order_acquire) == pre) {
        return word;
      }
      continue;
    }
    // Stripe newer than the snapshot (possibly on behalf of a colliding
    // field) but unlocked: the version this reader needs is already in the
    // chain. Load the word BEFORE the history head: writers publish the head
    // before the word, so a null head here proves the word read below
    // predates every committed write to this field — it is the pre-history
    // value, committed at ts 0.
    const uint64_t word = field.LoadRaw(std::memory_order_acquire);
    // mo: acquire — pairs with Publish's release; seeing the head implies the
    // node contents (value, commit_ts, next) are initialized.
    const auto* node =
        static_cast<const MvVersion*>(field.LoadMvHistory(std::memory_order_acquire));
    if (node == nullptr) {
      return word;
    }
    for (; node != nullptr; node = node->next) {
#ifdef SB7_MC
      // A node is plain memory: the explorer checks its reads against the
      // frees it has granted, so reading one reclamation freed is reported.
      mc::ModelRead(node);
#endif
      if (node->commit_ts <= snapshot_ts) {
        return node->value;
      }
    }
    // Unreachable: every chain bottoms out at a version with commit_ts 0.
    SB7_CHECK(false && "mvstm: version chain missing snapshot version");
  }
}

}  // namespace sb7
