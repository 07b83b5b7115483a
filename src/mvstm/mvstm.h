// Multi-version STM ("mvstm"): timestamped version lists in the spirit of
// LSA / SwissTM, layered on the shared striped lock table and global clock.
//
// Two execution modes per transaction, chosen by the retry loop's read-only
// hint (Operation::read_only() via StmStrategy):
//
//   * Read-only: pin start_ts = ClockNow() at begin, serve every read from
//     the newest version with commit_ts <= start_ts (VersionChain). No read
//     set, no validation, no aborts — the long-traversal pathology that
//     collapses invisible-read STMs (§5 of the paper) disappears by
//     construction.
//   * Update: TL2-style invisible reads with per-read validation and a redo
//     log, committed under sorted per-stripe locks at a fresh clock tick;
//     each written field additionally publishes a {value, commit_ts} version
//     node for concurrent and future snapshot readers.
//
// A body that writes despite the read-only hint is demoted: the attempt
// aborts once and every later attempt of that execution runs in update mode.

#ifndef STMBENCH7_SRC_MVSTM_MVSTM_H_
#define STMBENCH7_SRC_MVSTM_MVSTM_H_

#include <cstdint>
#include <memory>

#include "src/stm/tl2.h"

namespace sb7 {

class GroupCommitSequencer;

class MvStm : public Stm {
 public:
  std::string_view name() const override { return "mvstm"; }

  // Routes every update commit through `sequencer` (group commit + redo
  // logging, src/mvstm/group_commit.h). Must be called before any
  // transaction runs; detaching is not supported — transaction objects cache
  // the pointer per thread. Null (the default) keeps the solo TL2-style
  // commit path, so an unlogged run pays nothing for the feature.
  void AttachSequencer(GroupCommitSequencer* sequencer) { sequencer_ = sequencer; }
  GroupCommitSequencer* sequencer() const { return sequencer_; }

  bool wants_replay_capture() const override { return sequencer_ != nullptr; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;

 private:
  GroupCommitSequencer* sequencer_ = nullptr;
};

// The TL2 engine (src/stm/tl2.h) plus the snapshot read mode, version
// publish at writeback, and the group-commit branch of the write-version
// step. In update mode rv_ is the TL2 read version; in snapshot mode it is
// the pinned snapshot timestamp.
class MvTx : public Tl2Tx {
 public:
  explicit MvTx(GroupCommitSequencer* sequencer = nullptr) : sequencer_(sequencer) {}

  void SetReadOnly(bool read_only) override;
  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;

  // True while the current attempt serves reads from the pinned snapshot.
  bool snapshot_mode() const { return read_only_; }
  uint64_t start_ts() const { return rv_; }

 protected:
  bool TakeWriteVersion(uint64_t* wv) override;
  void WriteBack(uint64_t wv) override;

 private:
  // The sequencer validates members on their own threads and needs the read
  // set, start timestamp and write log for that (group_commit.cc).
  friend class GroupCommitSequencer;

  GroupCommitSequencer* sequencer_;

  // Mode for the current RunAtomically execution.
  bool hint_read_only_ = false;
  bool demoted_ = false;     // body wrote under the read-only hint
  bool read_only_ = false;   // effective mode of the current attempt
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_MVSTM_MVSTM_H_
