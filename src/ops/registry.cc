#include "src/ops/operation.h"

#include "src/common/diag.h"

namespace sb7 {

std::string_view OpCategoryName(OpCategory category) {
  switch (category) {
    case OpCategory::kLongTraversal:
      return "long traversals";
    case OpCategory::kShortTraversal:
      return "short traversals";
    case OpCategory::kShortOperation:
      return "short operations";
    case OpCategory::kStructureModification:
      return "structure modifications";
  }
  return "unknown";
}

OperationRegistry::OperationRegistry() {
  AppendLongTraversals(operations_);
  AppendShortTraversals(operations_);
  AppendShortOperations(operations_);
  AppendStructureModifications(operations_);
  SB7_CHECK(operations_.size() == 45);
}

const Operation* OperationRegistry::Find(std::string_view name) const {
  for (const auto& op : operations_) {
    if (op->name() == name) {
      return op.get();
    }
  }
  return nullptr;
}

std::string OperationRegistry::SlotName(int slot) const {
  if (slot <= 0 || static_cast<size_t>(slot) > operations_.size()) {
    return "(none)";
  }
  return operations_[slot - 1]->name();
}

}  // namespace sb7
