#pragma once

/// \file ordinal_index.hpp
/// Name → ordinal hash index over a name table its owner keeps.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace waveletic::util {

/// Open-addressing hash index from a name to its ordinal in a table the
/// caller owns (nets, instances, timing vertices).  It stores ordinals
/// only and reads names back through the `name_of(ordinal)` accessor
/// every call takes, so it holds no pointers and no second copy of a
/// name: copying the owner copies a valid index.  Linear probing at a
/// load factor of at most 1/2; find and insert are O(1) expected.
class OrdinalIndex {
 public:
  /// Ordinal of `name`, or -1 when absent.
  template <typename NameOf>
  [[nodiscard]] int32_t find(std::string_view name,
                             const NameOf& name_of) const noexcept {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash(name) & mask;; s = (s + 1) & mask) {
      const int32_t ord = slots_[s];
      if (ord < 0) return -1;
      if (std::string_view(name_of(ord)) == name) return ord;
    }
  }

  /// Adds `ordinal`; its name (read through `name_of`) must be absent.
  template <typename NameOf>
  void insert(int32_t ordinal, const NameOf& name_of) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<int32_t> old(slots_.empty() ? 16 : 2 * slots_.size(), -1);
      old.swap(slots_);
      for (const int32_t ord : old) {
        if (ord >= 0) place(ord, name_of);
      }
    }
    place(ordinal, name_of);
    ++size_;
  }

 private:
  [[nodiscard]] static size_t hash(std::string_view name) noexcept {
    return std::hash<std::string_view>{}(name);
  }

  template <typename NameOf>
  void place(int32_t ordinal, const NameOf& name_of) noexcept {
    const size_t mask = slots_.size() - 1;
    size_t s = hash(name_of(ordinal)) & mask;
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = ordinal;
  }

  std::vector<int32_t> slots_;  ///< ordinal per slot, -1 when empty
  size_t size_ = 0;
};

}  // namespace waveletic::util
