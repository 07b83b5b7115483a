// Quiescent-state-based epoch reclamation (QSBR).
//
// Why this exists: the word-based STMs (TL2, TinySTM) read shared memory
// optimistically. A doomed transaction — one that will fail validation — may
// still be dereferencing objects that a concurrent, committed structure-
// modification operation has already unlinked. The original Java benchmark
// leaned on the JVM's garbage collector for this "type-stable memory"
// guarantee; here the same guarantee comes from deferring frees until every
// registered thread has passed through a quiescent state (a point outside any
// transaction / critical section).
//
// Usage contract:
//   * a thread registers lazily on its first call into the domain, and a
//     registered thread is either *online* or *offline*. It starts offline;
//   * Quiesce() is the only way online. A thread must call it before its
//     first optimistic read of shared structures, and again between
//     operations to announce that it holds no references into them;
//   * Offline() announces that the thread will hold no references until its
//     next Quiesce(). An offline thread never holds back the epoch, so every
//     thread that stops running operations (a caller blocked in join(), a
//     thread that only builds, drains, checks or replays a structure) goes
//     offline instead of pinning reclamation for everyone else;
//   * any thread, online or offline, may Retire() objects it unlinked. One
//     Retire() is one limbo entry, whatever its deleter frees: mvstm retires
//     all the versions an update commit displaced as one entry
//     (src/mvstm/version_chain.h), index structures retire one node each;
//   * deleters run on whichever thread triggers reclamation; they must not
//     touch shared state.
//
// The implementation is the classic three-epoch scheme folded into QSBR: a
// global epoch advances once every online thread has observed it; retired
// objects tagged with epoch E are freed once every online thread has
// announced E + 2. A thread's limbo list is appended in epoch order, so a
// reclamation pass frees a prefix and costs O(freed), not O(limbo): a
// thread that lags behind costs memory, not CPU per operation. The pass
// reads only the slots handed out so far (a high-water mark), not all
// kMaxThreads of them.

#ifndef STMBENCH7_SRC_EBR_EBR_H_
#define STMBENCH7_SRC_EBR_EBR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <type_traits>

namespace sb7 {

class EbrDomain {
 public:
  static constexpr int kMaxThreads = 256;

  EbrDomain();
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // Process-wide domain used by the benchmark structure.
  static EbrDomain& Global();

  // Defers destruction of `ptr` until it is provably unreachable. May be
  // called from unregistered threads (the object is then routed through the
  // orphan list and freed on the next successful reclamation pass).
  void Retire(void* ptr, void (*deleter)(void*));

  template <typename T>
  void RetireObject(T* ptr) {
    Retire(const_cast<std::remove_const_t<T>*>(ptr),
           [](void* p) { delete static_cast<std::remove_const_t<T>*>(p); });
  }

  // Announces that the calling thread holds no references into shared
  // structures and puts it online (it may read them from now on). Cheap;
  // called between operations.
  void Quiesce();

  // Takes the calling thread offline: it holds no references into shared
  // structures and will take none before its next Quiesce(). Until then it
  // is ignored when the epoch advances.
  void Offline();

  // Attempts to advance the global epoch and free everything that became
  // safe. Called internally from Quiesce()/Retire(); exposed for tests and
  // for draining at shutdown.
  void TryReclaim();

  // Frees every object the calling thread and exited threads retired,
  // unconditionally. Only safe when the caller guarantees no other thread is
  // inside a read-side section (e.g. after all workers joined). Returns the
  // number of entries freed.
  int64_t DrainAll();

  // Number of Retire() entries waiting in limbo (approximate; for tests and
  // telemetry). An entry may free many objects, e.g. an mvstm commit's batch.
  int64_t PendingCount() const;

  uint64_t global_epoch() const { return global_epoch_.load(std::memory_order_acquire); }

  // The slot of an online thread holding back the epoch (the lowest
  // announced epoch, when it is behind the global one), or -1 when none is.
  // A slot named here across many observations marks a stalled thread.
  int LaggardSlot() const;

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  // Announced by offline threads and free slots; never the minimum.
  static constexpr uint64_t kOffline = ~uint64_t{0};

  struct Slot {
    std::atomic<bool> in_use{false};
    // Last global epoch the thread announced, or kOffline.
    std::atomic<uint64_t> local_epoch{kOffline};
  };

  class ThreadState;
  friend class ThreadState;

  // Registers the calling thread and returns its slot index.
  int RegisterThread();
  void UnregisterThread(int slot, std::deque<Retired>&& leftovers);

  ThreadState& LocalState();

  struct Announcement {
    uint64_t epoch;
    int slot;
  };
  // The smallest epoch an online thread announced and its slot, when it is
  // behind the global epoch; else the global epoch and slot -1.
  Announcement OldestAnnouncement() const;

  // Frees the prefix of `limbo` retired before `safe_before`; the list must
  // be in nondecreasing epoch order. Returns the number freed.
  int64_t FreeSafe(std::deque<Retired>& limbo, uint64_t safe_before);
  // FreeSafe over the orphan list, keeping has_orphans_ in step. The caller
  // holds orphan_mu_.
  int64_t FreeOrphansLocked(uint64_t safe_before);

  std::atomic<uint64_t> global_epoch_{2};
  // Distinguishes domain generations: a domain constructed at the address of
  // a destroyed one must not inherit cached per-thread state (slots would
  // alias across unrelated threads).
  uint64_t id_;
  Slot slots_[kMaxThreads];
  // One past the highest slot index ever handed out; reclamation scans only
  // the slots below it. Never shrinks.
  std::atomic<int> slot_bound_{0};

  // Objects inherited from exited threads, kept in epoch order; protected by
  // orphan_mu_. has_orphans_ mirrors !orphans_.empty() (written under the
  // lock), so reclamation skips the lock while there are none.
  mutable std::mutex orphan_mu_;
  std::deque<Retired> orphans_;
  std::atomic<bool> has_orphans_{false};

  std::atomic<int64_t> pending_{0};
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_EBR_EBR_H_
