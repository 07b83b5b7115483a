// Transaction-history recording and offline opacity checking.
//
// The recorder is a TxObserver (src/stm/field.h): once installed it logs, per
// committed transaction, the program-ordered sequence of transactional reads
// and writes (field address + 64-bit word) plus a commit timestamp drawn from
// a global counter at the commit point. Aborted attempts are discarded — the
// benchmark's correctness statement is about committed state. Recording costs
// one thread-local append per field access and one mutex acquisition per
// commit; with no recorder installed the hook is a single relaxed load.
//
// The checker answers: is the recorded committed history *opaque* — i.e., is
// it equivalent to some serial execution in which every transaction (update
// and read-only alike) observed a consistent snapshot? It works purely from
// values:
//   1. each transaction is normalized to an external read set (first read of
//      each location not previously self-written) and a final write set;
//      repeated external reads of one location must agree — a torn read
//      inside one transaction is rejected immediately;
//   2. a backtracking search looks for one total order of all committed
//      transactions whose value replay succeeds and which respects the
//      recorded real-time intervals: begin and commit events draw from one
//      global sequence, and a transaction that began after another's commit
//      can never serialize before it. The interval constraint caps the
//      branching factor at the thread count (only transactions concurrent
//      with the earliest-committing pending one are candidates), and since
//      commit timestamps are nearly accurate the search degenerates to a
//      linear replay on honest histories. Pure readers that match the
//      current state are placed greedily — they change nothing, so deferring
//      them can never help. A snapshot mixing state from two epochs (the
//      mvstm/tl2 class of bugs) matches no reachable state and fails.
// Locations never grounded by an explicit initial value are grounded by
// their first observed read, exactly once — two transactions that disagree
// on a never-written location's value can therefore never both pass. A value
// stored before Install is not seen by the recorder; RecordInitial grounds
// it, and without that a reader that saw it torn may define it instead.
//
// Finding an order is a certificate of serializability. Exhausting the
// search space proves non-opacity; exhausting the *step budget* proves
// nothing and is reported as a distinct inconclusive outcome
// (OpacityResult::inconclusive) — still a failed gate, but labelled so
// nobody hunts a nonexistent STM bug.

#ifndef STMBENCH7_SRC_CHECK_HISTORY_H_
#define STMBENCH7_SRC_CHECK_HISTORY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/stm/field.h"

namespace sb7 {

struct HistoryAccess {
  uintptr_t loc = 0;      // field identity (its address during the run)
  uint64_t word = 0;      // raw 64-bit value read or written
  bool is_write = false;
};

struct HistoryTx {
  // Begin/commit sequence numbers drawn from one global counter. The
  // transaction's serialization point lies inside [begin_ts, commit_ts]
  // (the begin event fires before any attempt state is created, the commit
  // event after the commit point), so if A.commit_ts < B.begin_ts then A
  // serializes before B. Hand-crafted histories may leave begin_ts 0, which
  // imposes no ordering constraint.
  uint64_t begin_ts = 0;
  uint64_t commit_ts = 0;
  bool read_only = false;  // the retry loop's hint (informational)
  std::vector<HistoryAccess> accesses;  // program order
};

struct History {
  std::vector<HistoryTx> committed;
  // Known initial values; locations absent here are grounded lazily by their
  // first observed read. Tests crafting adversarial histories should ground
  // every location explicitly, otherwise the first reader defines "initial".
  std::unordered_map<uintptr_t, uint64_t> initial;
  // Set when the recorder hit its transaction cap and stopped recording.
  bool truncated = false;
};

class HistoryRecorder : public TxObserver {
 public:
  explicit HistoryRecorder(size_t max_transactions = 1'000'000)
      : max_transactions_(max_transactions) {}
  ~HistoryRecorder() override;

  // Install/Uninstall must run while no transactions are in flight.
  void Install();
  void Uninstall();

  // Records `field`'s current word as its initial value. For fields whose
  // value was set before Install, which the recorder never saw. Call while
  // no transaction is in flight.
  void RecordInitial(const TxFieldBase& field);

  // Moves the recorded history out (call after Uninstall / quiescence).
  History TakeHistory();

  // TxObserver implementation (called from worker threads).
  void OnTxBegin(bool read_only) noexcept override;
  void OnTxRead(const TxFieldBase& field, uint64_t word) noexcept override;
  void OnTxWrite(const TxFieldBase& field, uint64_t word) noexcept override;
  void OnTxCommit() noexcept override;
  void OnTxAbort(const TxAbortInfo& info) noexcept override;
  // Births and raw stores inside an open attempt become writes of that
  // transaction (they are pre-publication seeding of private objects, or STM
  // writeback of values the attempt already logged). Outside any attempt
  // (initial build, direct mode) they land in the history's initial map.
  void OnFieldBirth(const TxFieldBase& field, uint64_t word) noexcept override;
  void OnRawStore(const TxFieldBase& field, uint64_t word) noexcept override;

 private:
  struct ThreadBuffer {
    HistoryRecorder* owner = nullptr;  // recorder the open attempt belongs to
    bool read_only = false;
    uint64_t begin_ts = 0;
    std::vector<HistoryAccess> accesses;
  };
  static ThreadBuffer& LocalBuffer();

  void NoteNonTransactionalWord(const TxFieldBase& field, uint64_t word);

  const size_t max_transactions_;
  bool installed_ = false;

  // One global sequence for begin and commit events (see HistoryTx).
  std::atomic<uint64_t> sequence_{0};

  std::mutex mutex_;
  bool truncated_ = false;
  std::vector<HistoryTx> committed_;
  std::unordered_map<uintptr_t, uint64_t> bootstrap_;  // out-of-tx initials
};

struct OpacityResult {
  bool opaque = false;
  // Set when the search ran out of step budget: the history could not be
  // certified, but non-opacity was not proven either. Callers should report
  // this distinctly from a demonstrated violation.
  bool inconclusive = false;
  // Human-readable explanation when not opaque.
  std::string diagnosis;
  // Number of update transactions in the serialization the checker found.
  size_t serialized_updates = 0;

  bool ok() const { return opaque; }
};

OpacityResult CheckOpacity(const History& history);

}  // namespace sb7

#endif  // STMBENCH7_SRC_CHECK_HISTORY_H_
