#include "src/ebr/ebr.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/diag.h"

namespace sb7 {
namespace {

// Domains that are still alive. Thread-exit cleanup consults this so that a
// ThreadState outliving its (test-local) domain does not touch freed memory.
std::mutex& AliveMutex() {
  static std::mutex mu;
  return mu;
}

std::vector<EbrDomain*>& AliveDomains() {
  static std::vector<EbrDomain*> domains;
  return domains;
}

constexpr size_t kLimboReclaimThreshold = 512;
constexpr uint64_t kQuiesceReclaimPeriod = 64;

}  // namespace

// Per-thread, per-domain state. Destroyed at thread exit; any objects still
// in limbo are handed to the domain's orphan list.
class EbrDomain::ThreadState {
 public:
  explicit ThreadState(EbrDomain* domain)
      : domain_(domain), domain_id_(domain->id_), slot_(domain->RegisterThread()) {}

  ~ThreadState() {
    std::lock_guard<std::mutex> lock(AliveMutex());
    auto& alive = AliveDomains();
    if (std::find(alive.begin(), alive.end(), domain_) != alive.end() &&
        domain_->id_ == domain_id_) {
      domain_->UnregisterThread(slot_, std::move(limbo_));
    } else {
      // The domain died before this thread (or its address was reused by a
      // younger domain): nobody can still be reading the retired objects.
      for (const Retired& entry : limbo_) {
        entry.deleter(entry.ptr);
      }
    }
  }

  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  EbrDomain* domain_;
  uint64_t domain_id_;
  int slot_;
  std::deque<Retired> limbo_;  // in nondecreasing epoch order
  uint64_t quiesce_calls_ = 0;
  bool online_ = false;
};

namespace {
std::atomic<uint64_t> g_ebr_domain_counter{1};
}  // namespace

EbrDomain::EbrDomain() : id_(g_ebr_domain_counter.fetch_add(1, std::memory_order_relaxed)) {
  std::lock_guard<std::mutex> lock(AliveMutex());
  AliveDomains().push_back(this);
}

EbrDomain::~EbrDomain() {
  DrainAll();
  std::lock_guard<std::mutex> lock(AliveMutex());
  auto& alive = AliveDomains();
  alive.erase(std::remove(alive.begin(), alive.end(), this), alive.end());
}

EbrDomain& EbrDomain::Global() {
  static EbrDomain* domain = new EbrDomain();  // intentionally immortal
  return *domain;
}

int EbrDomain::RegisterThread() {
  // A free slot already announces kOffline, so the thread starts offline.
  for (int i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (slots_[i].in_use.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      // Raise the scan bound to cover slot i. This runs before the thread's
      // first Quiesce, so the bound is published before the fence of its
      // online transition (see OldestAnnouncement).
      int bound = slot_bound_.load(std::memory_order_relaxed);
      while (bound <= i &&
             !slot_bound_.compare_exchange_weak(bound, i + 1, std::memory_order_relaxed)) {
      }
      return i;
    }
  }
  SB7_CHECK(false && "EbrDomain: too many registered threads");
  return -1;
}

void EbrDomain::UnregisterThread(int slot, std::deque<Retired>&& leftovers) {
  if (!leftovers.empty()) {
    std::lock_guard<std::mutex> lock(orphan_mu_);
    const auto middle = static_cast<std::ptrdiff_t>(orphans_.size());
    orphans_.insert(orphans_.end(), leftovers.begin(), leftovers.end());
    std::inplace_merge(orphans_.begin(), orphans_.begin() + middle, orphans_.end(),
                       [](const Retired& a, const Retired& b) { return a.epoch < b.epoch; });
    has_orphans_.store(true, std::memory_order_relaxed);
  }
  slots_[slot].local_epoch.store(kOffline, std::memory_order_release);
  slots_[slot].in_use.store(false, std::memory_order_release);
}

EbrDomain::ThreadState& EbrDomain::LocalState() {
  thread_local std::vector<std::unique_ptr<ThreadState>> states;
  for (const auto& state : states) {
    if (state->domain_ == this && state->domain_id_ == id_) {
      return *state;
    }
  }
  states.push_back(std::make_unique<ThreadState>(this));
  return *states.back();
}

void EbrDomain::Retire(void* ptr, void (*deleter)(void*)) {
  ThreadState& state = LocalState();
  // An online retirer orders its unlink before later epoch advances through
  // its next announcement. An offline one announces nothing, so it reads the
  // epoch with a read-modify-write instead: every advance is a CAS, so it
  // continues this release sequence, and a reader that loads a later epoch
  // sees the unlink.
  const uint64_t epoch = state.online_
                             ? global_epoch_.load(std::memory_order_acquire)
                             : global_epoch_.fetch_add(0, std::memory_order_acq_rel);
  state.limbo_.push_back(Retired{ptr, deleter, epoch});
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (state.limbo_.size() >= kLimboReclaimThreshold) {
    TryReclaim();
  }
}

void EbrDomain::Quiesce() {
  ThreadState& state = LocalState();
  slots_[state.slot_].local_epoch.store(global_epoch_.load(std::memory_order_acquire),
                                        std::memory_order_release);
  if (!state.online_) {
    // Coming online (the store above, then reads of shared structures) is a
    // store-load pattern against TryReclaim (retire, then read the slots).
    // With a fence on both sides, either the reclaimer sees this
    // announcement or every read from here on sees the unlinks it reclaims.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    state.online_ = true;
  }
  if (++state.quiesce_calls_ % kQuiesceReclaimPeriod == 0 || !state.limbo_.empty()) {
    TryReclaim();
  }
}

void EbrDomain::Offline() {
  ThreadState& state = LocalState();
  // Release: the references this thread dropped are dead before a reclaimer
  // that reads kOffline frees anything.
  slots_[state.slot_].local_epoch.store(kOffline, std::memory_order_release);
  state.online_ = false;
}

EbrDomain::Announcement EbrDomain::OldestAnnouncement() const {
  // Offline threads and free slots announce kOffline, which never wins.
  Announcement oldest{global_epoch_.load(std::memory_order_acquire), -1};
  // Only slots below the bound were ever handed out; the rest announce
  // kOffline forever. Reading the bound relaxed is enough for TryReclaim,
  // which reads it after its fence: a thread raises the bound before the
  // fence of its first Quiesce, and that is the same store-load pattern as
  // its announcement. If the registering thread's fence comes first, this
  // read sees the raised bound (and the announcement); if the reclaimer's
  // comes first, the new thread's reads see every unlink retired before it,
  // so it cannot hold what this pass frees. The bound never shrinks, so a
  // high slot stays scanned after the slots below it are freed and reused.
  const int bound = slot_bound_.load(std::memory_order_relaxed);
  for (int i = 0; i < bound; ++i) {
    const uint64_t epoch = slots_[i].local_epoch.load(std::memory_order_acquire);
    if (epoch < oldest.epoch) {
      oldest = Announcement{epoch, i};
    }
  }
  return oldest;
}

int EbrDomain::LaggardSlot() const { return OldestAnnouncement().slot; }

int64_t EbrDomain::FreeSafe(std::deque<Retired>& limbo, uint64_t safe_before) {
  int64_t freed = 0;
  while (!limbo.empty() && limbo.front().epoch < safe_before) {
    // Pop before running the deleter, so a deleter that retires is safe.
    const Retired entry = limbo.front();
    limbo.pop_front();
    entry.deleter(entry.ptr);
    ++freed;
  }
  if (freed > 0) {
    pending_.fetch_sub(freed, std::memory_order_relaxed);
  }
  return freed;
}

void EbrDomain::TryReclaim() {
  // Pairs with the fence in Quiesce's online transition.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const uint64_t min_epoch = OldestAnnouncement().epoch;
  const uint64_t global = global_epoch_.load(std::memory_order_acquire);
  if (min_epoch == global) {
    // Every online thread has seen the current epoch; open a new one.
    uint64_t expected = global;
    global_epoch_.compare_exchange_strong(expected, global + 1, std::memory_order_acq_rel);
  }
  // Objects retired at epoch e are safe once min >= e + 2.
  if (min_epoch < 2) {
    return;
  }
  const uint64_t safe_before = min_epoch - 1;
  FreeSafe(LocalState().limbo_, safe_before);
  // A stale false only defers the orphans to a later pass.
  if (has_orphans_.load(std::memory_order_relaxed) && orphan_mu_.try_lock()) {
    FreeOrphansLocked(safe_before);
    orphan_mu_.unlock();
  }
}

int64_t EbrDomain::FreeOrphansLocked(uint64_t safe_before) {
  const int64_t freed = FreeSafe(orphans_, safe_before);
  has_orphans_.store(!orphans_.empty(), std::memory_order_relaxed);
  return freed;
}

int64_t EbrDomain::DrainAll() {
  const uint64_t everything = ~uint64_t{0};
  const int64_t freed = FreeSafe(LocalState().limbo_, everything);
  std::lock_guard<std::mutex> lock(orphan_mu_);
  return freed + FreeOrphansLocked(everything);
}

int64_t EbrDomain::PendingCount() const { return pending_.load(std::memory_order_relaxed); }

}  // namespace sb7
