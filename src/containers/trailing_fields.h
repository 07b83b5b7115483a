// One-block objects: a run of fields stored right behind their owner.
//
// A skip-list node's level links and a TxVector chunk's slots are fields
// whose number is known only at allocation. Kept in the owner's own heap
// block, rather than in a std::deque (libstdc++ gives every deque a 64-byte
// map and a 512-byte block, even for one element), each object is one
// allocation and each field is reached with no extra dependent load.
//
// For an owner `struct Node : TmObject, TrailingFields<Node, F>`:
//   * `New(capacity, args...)` allocates the block and constructs the owner;
//   * the fields are then added in order with `EmplaceField`, so they
//     register with the owner's TmUnit after every member field;
//   * the owner's destructor calls `DestroyFields()`, which destroys the
//     fields built so far in reverse order, so a block an abort left partly
//     built is deleted safely;
//   * every `delete` of the owner (direct, abort hook, EBR deleter) reaches
//     the unsized `operator delete` below. A sized one would be handed
//     sizeof(Owner), which is not the size of the allocation.

#ifndef STMBENCH7_SRC_CONTAINERS_TRAILING_FIELDS_H_
#define STMBENCH7_SRC_CONTAINERS_TRAILING_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <utility>

#include "src/common/diag.h"

namespace sb7 {

template <typename Owner, typename F>
class TrailingFields {
 public:
  TrailingFields(const TrailingFields&) = delete;
  TrailingFields& operator=(const TrailingFields&) = delete;

  // Owners are built by New only: a plain `new` would allocate no room for
  // the fields.
  static void* operator new(size_t) = delete;
  static void operator delete(void* block) { ::operator delete(block); }

  // Byte offset of the first field from the start of the block.
  static constexpr size_t FieldOffset() {
    return (sizeof(Owner) + alignof(F) - 1) / alignof(F) * alignof(F);
  }

  int64_t field_count() const { return count_; }
  F& field(int64_t i) {
    SB7_DCHECK(i >= 0 && i < count_);
    return *std::launder(reinterpret_cast<F*>(SlotAddress(i)));
  }

  // Room for `capacity` fields, none built yet.
  template <typename... Args>
  static Owner* New(int64_t capacity, Args&&... args) {
    static_assert(alignof(Owner) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                      alignof(F) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "::operator new does not align the block for the owner or its fields");
    static_assert(FieldOffset() >= sizeof(Owner) && FieldOffset() % alignof(F) == 0,
                  "trailing fields must start aligned, past the owner");
    SB7_CHECK(capacity >= 0 && capacity <= std::numeric_limits<uint32_t>::max());
    void* block = ::operator new(FieldOffset() + static_cast<size_t>(capacity) * sizeof(F));
    Owner* owner;
    try {
      owner = ::new (block) Owner(std::forward<Args>(args)...);
    } catch (...) {
      ::operator delete(block);
      throw;
    }
    static_cast<TrailingFields*>(owner)->capacity_ = static_cast<uint32_t>(capacity);
    return owner;
  }

  template <typename... Args>
  void EmplaceField(Args&&... args) {
    SB7_DCHECK(count_ < capacity_);
    ::new (SlotAddress(count_)) F(std::forward<Args>(args)...);
    ++count_;
  }

 protected:
  TrailingFields() = default;
  ~TrailingFields() = default;

  void DestroyFields() {
    for (int64_t i = count_; i-- > 0;) {
      field(i).~F();
    }
    count_ = 0;
  }

 private:
  void* SlotAddress(int64_t i) {
    return reinterpret_cast<unsigned char*>(static_cast<Owner*>(this)) + FieldOffset() +
           static_cast<size_t>(i) * sizeof(F);
  }

  uint32_t count_ = 0;
  uint32_t capacity_ = 0;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_CONTAINERS_TRAILING_FIELDS_H_
