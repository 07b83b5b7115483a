#include "src/core/data_holder.h"

#include <vector>

#include "src/common/text.h"
#include "src/containers/skiplist_index.h"
#include "src/containers/snapshot_index.h"
#include "src/containers/std_map_index.h"
#include "src/core/builder.h"
#include "src/ebr/ebr.h"

namespace sb7 {

IndexKind IndexKindForName(std::string_view name) {
  if (name == "snapshot") {
    return IndexKind::kSnapshot;
  }
  if (name == "skiplist") {
    return IndexKind::kSkipList;
  }
  return IndexKind::kStdMap;
}

std::string_view IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kStdMap:
      return "stdmap";
    case IndexKind::kSnapshot:
      return "snapshot";
    case IndexKind::kSkipList:
      return "skiplist";
  }
  return "stdmap";
}

template <typename K, typename V>
std::unique_ptr<Index<K, V>> DataHolder::MakeIndex() const {
  switch (setup_.index_kind) {
    case IndexKind::kStdMap:
      return std::make_unique<StdMapIndex<K, V>>();
    case IndexKind::kSnapshot:
      return std::make_unique<SnapshotIndex<K, V>>();
    case IndexKind::kSkipList:
      return std::make_unique<SkipListIndex<K, V>>();
  }
  return std::make_unique<StdMapIndex<K, V>>();
}

DataHolder::DataHolder(const Setup& setup) : setup_(setup) {
  const Parameters& params = setup_.params;
  atomic_id_index_ = MakeIndex<int64_t, AtomicPart*>();
  atomic_date_index_ = MakeIndex<int64_t, AtomicPart*>();
  composite_id_index_ = MakeIndex<int64_t, CompositePart*>();
  document_title_index_ = MakeIndex<std::string, Document*>();
  base_id_index_ = MakeIndex<int64_t, BaseAssembly*>();
  complex_id_index_ = MakeIndex<int64_t, ComplexAssembly*>();

  const int64_t slack = params.id_pool_slack_factor;
  composite_ids_ = std::make_unique<IdPool>(params.initial_composite_parts * slack);
  atomic_ids_ = std::make_unique<IdPool>(params.initial_atomic_parts() * slack);
  base_ids_ = std::make_unique<IdPool>(params.base_assembly_count() * slack);
  complex_ids_ = std::make_unique<IdPool>(params.complex_assembly_count() * slack);

  Rng rng(setup_.seed);
  BuildInitialStructure(rng);
  // The build quiesces nowhere; whoever runs operations next quiesces
  // itself online, so the builder must not hold back the epoch meanwhile.
  EbrDomain::Global().Offline();
}

void DataHolder::BuildInitialStructure(Rng& rng) {
  const Parameters& params = setup_.params;
  SB7_CHECK(CurrentTx() == nullptr);  // the initial build is single-threaded

  manual_ = new Manual(1, "Manual for module #1", BuildManualText(1, params.manual_size));
  module_ = new Module(1, manual_);
  manual_->set_module(module_);

  // Design library first, so base assemblies can draw from it.
  for (int i = 0; i < params.initial_composite_parts; ++i) {
    CreateCompositePart(*this, rng);
  }

  const int64_t root_id = complex_ids_->Allocate();
  auto* root = new ComplexAssembly(root_id, RandomDate(params, rng), params.assembly_levels,
                                   /*super=*/nullptr, module_);
  complex_id_index_->Insert(root_id, root);
  module_->set_design_root(root);

  // Recursive tree build; base assemblies are linked to random composite
  // parts of the library (duplicates allowed, as in OO7's shared library).
  auto build_children = [&](auto&& self, ComplexAssembly* parent) -> void {
    const int child_level = parent->level() - 1;
    for (int i = 0; i < params.assembly_fanout; ++i) {
      if (child_level == 1) {
        BaseAssembly* base = CreateBaseAssembly(*this, parent, rng);
        for (int c = 0; c < params.components_per_assembly; ++c) {
          const int64_t part_id =
              1 + static_cast<int64_t>(rng.NextBounded(params.initial_composite_parts));
          CompositePart* part = composite_id_index_->Lookup(part_id);
          SB7_CHECK(part != nullptr);
          base->components().Add(part);
          part->used_in().Add(base);
        }
      } else {
        const int64_t id = complex_ids_->Allocate();
        SB7_CHECK(id != 0);
        auto* child =
            new ComplexAssembly(id, RandomDate(params, rng), child_level, parent, module_);
        parent->sub_assemblies().Add(child);
        complex_id_index_->Insert(id, child);
        self(self, child);
      }
    }
  };
  build_children(build_children, root);
}

void DataHolder::FreeEverything() {
  SB7_CHECK(CurrentTx() == nullptr);
  EbrDomain::Global().DrainAll();

  std::vector<CompositePart*> parts;
  composite_id_index_->ForEach([&parts](const int64_t&, CompositePart* const& part) {
    parts.push_back(part);
    return true;
  });
  for (CompositePart* part : parts) {
    for (AtomicPart* atom : part->parts()) {
      for (Connection* conn : atom->outgoing()) {
        delete conn;
      }
      delete atom;
    }
    delete part->documentation();
    delete part;
  }

  auto free_tree = [](auto&& self, Assembly* assembly) -> void {
    if (!assembly->is_base()) {
      auto* complex = static_cast<ComplexAssembly*>(assembly);
      std::vector<Assembly*> children;
      complex->sub_assemblies().ForEach(
          [&children](Assembly* child) { children.push_back(child); });
      for (Assembly* child : children) {
        self(self, child);
      }
    }
    delete assembly;
  };
  if (module_ != nullptr && module_->design_root() != nullptr) {
    free_tree(free_tree, module_->design_root());
  }
  delete module_;
  delete manual_;
  module_ = nullptr;
  manual_ = nullptr;
  EbrDomain::Global().DrainAll();
  EbrDomain::Global().Offline();
}

DataHolder::~DataHolder() { FreeEverything(); }

}  // namespace sb7
