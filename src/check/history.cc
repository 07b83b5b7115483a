#include "src/check/history.h"

#include <algorithm>

#include "src/common/diag.h"

namespace sb7 {

// --- recorder ---

HistoryRecorder::ThreadBuffer& HistoryRecorder::LocalBuffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

HistoryRecorder::~HistoryRecorder() {
  if (installed_) {
    Uninstall();
  }
}

void HistoryRecorder::Install() {
  SB7_CHECK(!installed_);
  SB7_CHECK(InstallTxObserver(this));
  installed_ = true;
}

void HistoryRecorder::Uninstall() {
  SB7_CHECK(installed_);
  SB7_CHECK(RemoveTxObserver(this));
  installed_ = false;
}

void HistoryRecorder::RecordInitial(const TxFieldBase& field) {
  // raw-ok: no transaction is in flight, so the word is the committed value.
  const uint64_t word = field.LoadRaw(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mutex_);
  bootstrap_[reinterpret_cast<uintptr_t>(&field)] = word;
}

History HistoryRecorder::TakeHistory() {
  std::lock_guard<std::mutex> lock(mutex_);
  History history;
  history.committed = std::move(committed_);
  history.initial = std::move(bootstrap_);
  history.truncated = truncated_;
  committed_.clear();
  bootstrap_.clear();
  // Reset the truncation flag with the data it describes: a later recording
  // session on the same recorder must not inherit a stale "truncated"
  // verdict (which would make callers skip a perfectly checkable history).
  truncated_ = false;
  return history;
}

void HistoryRecorder::OnTxBegin(bool read_only) noexcept {
  ThreadBuffer& buffer = LocalBuffer();
  buffer.owner = this;
  buffer.read_only = read_only;
  buffer.begin_ts = sequence_.fetch_add(1, std::memory_order_seq_cst) + 1;
  buffer.accesses.clear();
}

void HistoryRecorder::OnTxRead(const TxFieldBase& field, uint64_t word) noexcept {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.owner == this) {
    buffer.accesses.push_back({reinterpret_cast<uintptr_t>(&field), word, false});
  }
}

void HistoryRecorder::OnTxWrite(const TxFieldBase& field, uint64_t word) noexcept {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.owner == this) {
    buffer.accesses.push_back({reinterpret_cast<uintptr_t>(&field), word, true});
  }
}

void HistoryRecorder::OnTxCommit() noexcept {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.owner != this) {
    return;
  }
  buffer.owner = nullptr;
  HistoryTx tx;
  tx.begin_ts = buffer.begin_ts;
  tx.commit_ts = sequence_.fetch_add(1, std::memory_order_seq_cst) + 1;
  tx.read_only = buffer.read_only;
  tx.accesses = std::move(buffer.accesses);
  buffer.accesses.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  if (committed_.size() >= max_transactions_) {
    truncated_ = true;
    return;
  }
  committed_.push_back(std::move(tx));
}

void HistoryRecorder::OnTxAbort(const TxAbortInfo& /*info*/) noexcept {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.owner == this) {
    buffer.owner = nullptr;
    buffer.accesses.clear();
  }
}

void HistoryRecorder::NoteNonTransactionalWord(const TxFieldBase& field, uint64_t word) {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.owner == this) {
    // Inside an attempt: a private-object birth/seed or an STM writeback;
    // either way the enclosing transaction is what installs the value.
    buffer.accesses.push_back({reinterpret_cast<uintptr_t>(&field), word, true});
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  bootstrap_[reinterpret_cast<uintptr_t>(&field)] = word;
}

void HistoryRecorder::OnFieldBirth(const TxFieldBase& field, uint64_t word) noexcept {
  NoteNonTransactionalWord(field, word);
}

void HistoryRecorder::OnRawStore(const TxFieldBase& field, uint64_t word) noexcept {
  NoteNonTransactionalWord(field, word);
}

// --- checker ---

namespace {

// One transaction, normalized for serialization checking: the values it must
// observe at its serialization point, and the values it installs.
struct NormalTx {
  size_t history_index = 0;
  uint64_t begin_ts = 0;
  uint64_t commit_ts = 0;
  std::vector<std::pair<uintptr_t, uint64_t>> external_reads;
  std::unordered_map<uintptr_t, uint64_t> writes;
};

// World state during replay: values written by already-serialized updates,
// falling back to grounded initial values. Grounding writes into `ground`
// exactly once per location; a conflicting later grounding is a violation.
struct ReplayState {
  std::unordered_map<uintptr_t, uint64_t> current;           // after applied updates
  std::unordered_map<uintptr_t, uint64_t>* ground = nullptr; // shared initials

  // Checks one external read; `pending_ground` collects groundings that the
  // caller promotes only if the whole transaction matches.
  bool ReadMatches(uintptr_t loc, uint64_t value,
                   std::unordered_map<uintptr_t, uint64_t>& pending_ground) const {
    if (auto it = current.find(loc); it != current.end()) {
      return it->second == value;
    }
    if (auto it = ground->find(loc); it != ground->end()) {
      return it->second == value;
    }
    if (auto it = pending_ground.find(loc); it != pending_ground.end()) {
      return it->second == value;
    }
    pending_ground.emplace(loc, value);
    return true;
  }
};

// Returns true and fills `pending_ground` when every external read of `tx`
// matches `state`.
bool TxMatches(const NormalTx& tx, const ReplayState& state,
               std::unordered_map<uintptr_t, uint64_t>& pending_ground) {
  pending_ground.clear();
  for (const auto& [loc, value] : tx.external_reads) {
    if (!state.ReadMatches(loc, value, pending_ground)) {
      return false;
    }
  }
  return true;
}

std::string DescribeTx(const NormalTx& tx) {
  return "tx#" + std::to_string(tx.history_index) +
         " (commit_ts " + std::to_string(tx.commit_ts) + ")";
}

// Bounded backtracking search for a serialization of *all* committed
// transactions (updates and read-only alike) whose value replay succeeds.
// Candidates are tried in commit-timestamp order, so the search degenerates
// to a linear replay when timestamps are accurate; grounding and state
// changes are rolled back exactly on backtrack. The search is iterative
// (explicit frame stack): recorded histories run to a million transactions,
// which would overflow the call stack recursively.
class OrderSearch {
 public:
  OrderSearch(const std::vector<NormalTx>& txs,
              std::unordered_map<uintptr_t, uint64_t> ground)
      : txs_(txs),
        ground_(std::move(ground)),
        // Honest histories consume about one step per placed transaction, so
        // the budget must scale with the history — it exists to bound
        // pathological backtracking, not linear placement.
        step_budget_(std::max<int64_t>(1'000'000, 8 * static_cast<int64_t>(txs.size()))) {
    // suffix_min_begin_[i] = min begin_ts over txs_[i..]; lets a candidate
    // scan stop as soon as no later transaction can still be admissible.
    suffix_min_begin_.resize(txs_.size() + 1, ~uint64_t{0});
    for (size_t i = txs_.size(); i-- > 0;) {
      suffix_min_begin_[i] = std::min(suffix_min_begin_[i + 1], txs_[i].begin_ts);
    }
  }

  // On success `order` holds indices into `txs` in serialization order.
  bool Run(std::vector<size_t>& order);

  bool budget_exhausted() const { return steps_ >= step_budget_; }

 private:

  // Undo bookkeeping for one applied (branched) transaction.
  struct Applied {
    size_t index = 0;
    std::vector<uintptr_t> grounded;
    std::vector<uintptr_t> added_locs;
    std::vector<std::pair<uintptr_t, uint64_t>> previous_values;
  };

  // One level of the search: the readers force-placed on entry (a suffix of
  // `order`), the cached first-pending commit ts, the candidate-scan resume
  // cursor, and the undo state of the branched choice (when one is active).
  struct Frame {
    size_t forced_count = 0;
    uint64_t fp_commit_ts = 0;
    size_t cursor = 0;
    Applied chosen;
    bool has_chosen = false;
  };

  void Place(size_t i) {
    used_[i] = true;
    if (i == min_unused_) {
      while (min_unused_ < txs_.size() && used_[min_unused_]) {
        ++min_unused_;
      }
    }
  }

  void Unplace(size_t i) {
    used_[i] = false;
    min_unused_ = std::min(min_unused_, i);
  }

  void Apply(size_t i, ReplayState& state,
             const std::unordered_map<uintptr_t, uint64_t>& pending, Applied& undo) {
    undo.index = i;
    Place(i);
    for (const auto& [loc, value] : pending) {
      ground_.emplace(loc, value);
      undo.grounded.push_back(loc);
    }
    for (const auto& [loc, value] : txs_[i].writes) {
      auto it = state.current.find(loc);
      if (it != state.current.end()) {
        undo.previous_values.emplace_back(loc, it->second);
        it->second = value;
      } else {
        undo.added_locs.push_back(loc);
        state.current.emplace(loc, value);
      }
    }
  }

  void Revert(const Applied& undo, ReplayState& state) {
    for (const auto& [loc, value] : undo.previous_values) {
      state.current[loc] = value;
    }
    for (uintptr_t loc : undo.added_locs) {
      state.current.erase(loc);
    }
    for (uintptr_t loc : undo.grounded) {
      ground_.erase(loc);
    }
    Unplace(undo.index);
  }

  // Interval pruning: the earliest-committing pending transaction `fp`
  // bounds the candidate set — any transaction that *began* after fp's
  // commit point must serialize after fp, so only fp itself and
  // transactions concurrent with it (begin_ts < fp commit) may come next.
  // Per-thread transactions are sequential, so this caps the branching
  // factor at the recorded thread count.
  bool Admissible(size_t i, uint64_t fp_commit_ts) const {
    return txs_[i].commit_ts == fp_commit_ts || txs_[i].begin_ts < fp_commit_ts;
  }

  // Force-places every pure reader that is admissible and matches the
  // current state *without grounding a new location*: it changes nothing,
  // and deferring it never enables an order that placing it now forbids.
  // This keeps the bulk of the read-only transactions out of the branching
  // entirely. (A reader whose match would ground a fresh location has a
  // side effect and stays a backtrackable candidate.) Returns the number of
  // readers placed (appended to `order`).
  size_t PlaceForcedReaders(std::vector<size_t>& order, ReplayState& state,
                            std::unordered_map<uintptr_t, uint64_t>& pending) {
    size_t placed = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      const uint64_t fp_commit_ts =
          min_unused_ < txs_.size() ? txs_[min_unused_].commit_ts : 0;
      for (size_t i = min_unused_; i < txs_.size(); ++i) {
        if (suffix_min_begin_[i] >= fp_commit_ts && i != min_unused_) {
          break;  // nothing at or beyond i can be admissible
        }
        if (used_[i] || !txs_[i].writes.empty() || !Admissible(i, fp_commit_ts)) {
          continue;
        }
        if (!TxMatches(txs_[i], state, pending) || !pending.empty()) {
          continue;
        }
        Place(i);
        order.push_back(i);
        ++placed;
        progress = true;
        break;  // fp may have changed; rescan
      }
    }
    return placed;
  }

  const std::vector<NormalTx>& txs_;
  std::unordered_map<uintptr_t, uint64_t> ground_;
  const int64_t step_budget_;
  std::vector<uint64_t> suffix_min_begin_;
  std::vector<bool> used_;
  size_t min_unused_ = 0;
  int64_t steps_ = 0;
};

bool OrderSearch::Run(std::vector<size_t>& order) {
  used_.assign(txs_.size(), false);
  min_unused_ = 0;
  ReplayState state;
  state.ground = &ground_;
  std::unordered_map<uintptr_t, uint64_t> pending;

  std::vector<Frame> stack;
  stack.emplace_back();
  stack.back().forced_count = PlaceForcedReaders(order, state, pending);
  stack.back().fp_commit_ts = min_unused_ < txs_.size() ? txs_[min_unused_].commit_ts : 0;
  stack.back().cursor = min_unused_;

  while (!stack.empty()) {
    if (order.size() == txs_.size()) {
      return true;
    }
    Frame& frame = stack.back();
    if (frame.has_chosen) {
      // Control returned here after a failed child: undo the choice and
      // resume scanning from the cursor.
      order.pop_back();
      Revert(frame.chosen, state);
      frame.chosen = Applied{};
      frame.has_chosen = false;
    }

    // Scan for the next admissible, matching candidate.
    size_t candidate = txs_.size();
    if (++steps_ < step_budget_) {
      for (size_t i = frame.cursor; i < txs_.size(); ++i) {
        if (used_[i]) {
          continue;
        }
        if (txs_[i].commit_ts != frame.fp_commit_ts &&
            suffix_min_begin_[i] >= frame.fp_commit_ts) {
          break;  // nothing at or beyond i can be admissible
        }
        if (!Admissible(i, frame.fp_commit_ts)) {
          continue;
        }
        if (TxMatches(txs_[i], state, pending)) {
          candidate = i;
          break;
        }
      }
    }

    if (candidate == txs_.size()) {
      // Dead end (or budget): unwind this frame's forced readers and pop.
      for (size_t k = 0; k < frame.forced_count; ++k) {
        Unplace(order.back());
        order.pop_back();
      }
      stack.pop_back();
      if (budget_exhausted()) {
        return false;
      }
      continue;
    }

    frame.cursor = candidate + 1;
    Apply(candidate, state, pending, frame.chosen);
    frame.has_chosen = true;
    order.push_back(candidate);

    stack.emplace_back();
    stack.back().forced_count = PlaceForcedReaders(order, state, pending);
    stack.back().fp_commit_ts = min_unused_ < txs_.size() ? txs_[min_unused_].commit_ts : 0;
    stack.back().cursor = min_unused_;
  }
  return false;
}

}  // namespace

OpacityResult CheckOpacity(const History& history) {
  OpacityResult result;

  // 1. Normalize, rejecting intra-transaction inconsistencies outright.
  std::vector<NormalTx> txs;
  for (size_t index = 0; index < history.committed.size(); ++index) {
    const HistoryTx& raw = history.committed[index];
    NormalTx tx;
    tx.history_index = index;
    tx.begin_ts = raw.begin_ts;
    tx.commit_ts = raw.commit_ts;
    std::unordered_map<uintptr_t, uint64_t> first_external;
    for (const HistoryAccess& access : raw.accesses) {
      if (access.is_write) {
        tx.writes[access.loc] = access.word;  // last write wins
        continue;
      }
      if (auto it = tx.writes.find(access.loc); it != tx.writes.end()) {
        if (it->second != access.word) {
          result.diagnosis = DescribeTx(tx) + " read back a value differing from its own write";
          return result;
        }
        continue;  // internal read
      }
      auto [it, inserted] = first_external.emplace(access.loc, access.word);
      if (inserted) {
        tx.external_reads.emplace_back(access.loc, access.word);
      } else if (it->second != access.word) {
        result.diagnosis =
            DescribeTx(tx) + " observed two different values for one location (torn read)";
        return result;
      }
    }
    txs.push_back(std::move(tx));
  }

  // 2. One unified search serializes updates and readers together: every
  // committed transaction (a read-only one included) must find a spot in a
  // single value-consistent total order that also respects the recorded
  // real-time [begin, commit] intervals. Timestamps order the candidate
  // exploration, so exact histories replay linearly.
  std::sort(txs.begin(), txs.end(),
            [](const NormalTx& a, const NormalTx& b) { return a.commit_ts < b.commit_ts; });
  OrderSearch search(txs, history.initial);
  std::vector<size_t> order;
  if (!search.Run(order)) {
    result.inconclusive = search.budget_exhausted();
    result.diagnosis = result.inconclusive
                           ? "search budget exhausted without finding a serializable order"
                           : "no serializable order exists for the committed transactions "
                             "(value replay fails in every interval-respecting order)";
    return result;
  }
  for (const NormalTx& tx : txs) {
    if (!tx.writes.empty()) {
      ++result.serialized_updates;
    }
  }

  result.opaque = true;
  return result;
}

}  // namespace sb7
