// Operation model: the 45 STMBench7 operations (Appendix B.2).
//
// Every operation is pure benchmark logic over DataHolder — no concurrency
// control. Strategies wrap Run(): the coarse strategy brackets it with one
// read-write lock, the medium strategy acquires the operation's declared
// LockSet (Figure 5 of the paper), and the STM strategies run it as one flat
// transaction.
//
// Failure semantics (§3): Run() throws OperationFailed when the operation
// cannot proceed (missing random id, empty bag, exhausted pool). A failure is
// a committed outcome, distinct from STM-level aborts/retries, and is
// reported separately by the harness.

#ifndef STMBENCH7_SRC_OPS_OPERATION_H_
#define STMBENCH7_SRC_OPS_OPERATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/data_holder.h"

namespace sb7 {

struct OperationFailed {};

enum class OpCategory {
  kLongTraversal,
  kShortTraversal,
  kShortOperation,
  kStructureModification,
};

std::string_view OpCategoryName(OpCategory category);

// Locks of the medium-grained strategy (paper Figure 5): one per assembly
// level, one for all composite parts, all atomic parts, all documents, the
// manual, plus the structure-modification lock. The enum order is the global
// acquisition order (deadlock freedom by total order).
enum LockId : int {
  kLockStructure = 0,
  kLockLevel7,
  kLockLevel6,
  kLockLevel5,
  kLockLevel4,
  kLockLevel3,
  kLockLevel2,
  kLockLevel1,
  kLockCompositeParts,
  kLockAtomicParts,
  kLockDocuments,
  kLockManual,
  kLockCount,
};

constexpr uint16_t LockBit(LockId id) { return static_cast<uint16_t>(1u << id); }

// All assembly-level locks (complex levels 2..7 plus base level 1).
constexpr uint16_t kAllLevelBits = LockBit(kLockLevel7) | LockBit(kLockLevel6) |
                                   LockBit(kLockLevel5) | LockBit(kLockLevel4) |
                                   LockBit(kLockLevel3) | LockBit(kLockLevel2) |
                                   LockBit(kLockLevel1);
constexpr uint16_t kComplexLevelBits = kAllLevelBits & ~LockBit(kLockLevel1);

// Which locks an operation takes, and in which mode. A lock present in both
// masks is acquired in write mode.
struct LockSet {
  uint16_t read = 0;
  uint16_t write = 0;
};

class Operation {
 public:
  Operation(std::string name, OpCategory category, bool read_only, LockSet locks)
      : name_(std::move(name)), category_(category), read_only_(read_only), locks_(locks) {}
  virtual ~Operation() = default;
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  // Executes the operation; returns its Appendix-B result value. Throws
  // OperationFailed on benchmark-level failure.
  virtual int64_t Run(DataHolder& dh, Rng& rng) const = 0;

  const std::string& name() const { return name_; }
  OpCategory category() const { return category_; }
  bool read_only() const { return read_only_; }
  const LockSet& locks() const { return locks_; }

 private:
  const std::string name_;
  const OpCategory category_;
  const bool read_only_;
  const LockSet locks_;
};

// Owns all 45 operations in specification order: T1..T6, Q6, Q7, ST1..ST10,
// OP1..OP15, SM1..SM8.
class OperationRegistry {
 public:
  OperationRegistry();

  const std::vector<std::unique_ptr<Operation>>& all() const { return operations_; }
  // nullptr if no operation has that name.
  const Operation* Find(std::string_view name) const;
  // Name of a tracer op slot: slot i+1 is operation i; slot 0 (activity
  // outside any operation: setup, tests) and out-of-range slots are "(none)".
  std::string SlotName(int slot) const;

 private:
  std::vector<std::unique_ptr<Operation>> operations_;
};

// --- factories, grouped by specification section ---
void AppendLongTraversals(std::vector<std::unique_ptr<Operation>>& out);
void AppendShortTraversals(std::vector<std::unique_ptr<Operation>>& out);
void AppendShortOperations(std::vector<std::unique_ptr<Operation>>& out);
void AppendStructureModifications(std::vector<std::unique_ptr<Operation>>& out);

}  // namespace sb7

#endif  // STMBENCH7_SRC_OPS_OPERATION_H_
