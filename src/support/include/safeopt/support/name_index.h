// NameIndex: a hashed name -> dense id index for tables that already own
// their names (named fault-tree nodes, parser declarations).
//
// Open addressing with linear probing, at most half full. A slot holds an
// id and a 32-bit hash of its name, never the name itself: lookups read the
// name back through the caller's `name_of(id)`. So the index copies no
// string, and it stays valid when its owner is copied or moved, as long as
// ids keep naming the same entries. It is only ever probed, never
// iterated, so it decides no order anywhere.
#ifndef SAFEOPT_SUPPORT_NAME_INDEX_H
#define SAFEOPT_SUPPORT_NAME_INDEX_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace safeopt {

class NameIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// The id filed under `name`, or kNone.
  template <typename NameOf>
  [[nodiscard]] std::uint32_t find(std::string_view name,
                                   const NameOf& name_of) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t hash = hash_of(name);
    for (std::size_t i = hash & mask(); slots_[i].id != kNone;
         i = (i + 1) & mask()) {
      if (slots_[i].hash == hash && name_of(slots_[i].id) == name) {
        return slots_[i].id;
      }
    }
    return kNone;
  }

  /// Sizes the table for `count` names, so filing that many never grows it.
  void reserve(std::size_t count) {
    std::size_t slots = slots_.empty() ? 16 : slots_.size();
    while (2 * count > slots) slots *= 2;
    if (slots != slots_.size()) rehash(slots);
  }

  /// Files `id` under `name` unless the name is already filed; returns the
  /// id filed under `name` afterwards (`id` itself when it was added). One
  /// probe sequence serves both the lookup and the insert.
  /// Precondition: id != kNone.
  template <typename NameOf>
  std::uint32_t insert(std::string_view name, std::uint32_t id,
                       const NameOf& name_of) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint32_t hash = hash_of(name);
    std::size_t i = hash & mask();
    for (; slots_[i].id != kNone; i = (i + 1) & mask()) {
      if (slots_[i].hash == hash && name_of(slots_[i].id) == name) {
        return slots_[i].id;
      }
    }
    slots_[i] = {hash, id};
    ++size_;
    return id;
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kNone;
  };

  static std::uint32_t hash_of(std::string_view name) noexcept {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  void grow() { rehash(slots_.empty() ? 16 : 2 * slots_.size()); }

  void rehash(std::size_t size) {
    std::vector<Slot> slots(size);
    const std::size_t new_mask = slots.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.id == kNone) continue;
      std::size_t i = slot.hash & new_mask;
      while (slots[i].id != kNone) i = (i + 1) & new_mask;
      slots[i] = slot;
    }
    slots_ = std::move(slots);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace safeopt

#endif  // SAFEOPT_SUPPORT_NAME_INDEX_H
