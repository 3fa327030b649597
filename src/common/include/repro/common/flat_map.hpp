// Open-addressed hash map for the sparse page-cache index and the
// coherence model's line directory.
//
// A dense PageCache index is O(pages) per processor regardless of how
// many pages are resident -- fine at the paper's 16 nodes, ruinous for
// 512 processors. The sparse index keeps only live keys, at the cost of
// one hash probe per lookup. Requirements that shaped this map:
//
//  * determinism: iteration order is never exposed (callers that digest
//    must collect keys and sort), and the map itself allocates nothing
//    until first insert;
//  * erase-heavy workloads (directory entries die when their sharer set
//    empties), so deletion uses backward-shift instead of tombstones --
//    probe chains never grow stale;
//  * u64 keys (virtual pages / frames), small trivially-copyable values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"

namespace repro {

template <typename Value>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] const Value* find(std::uint64_t key) const {
    if (size_ == 0) {
      return nullptr;
    }
    for (std::size_t i = bucket_of(key);; i = next(i)) {
      if (!used_[i]) {
        return nullptr;
      }
      if (slots_[i].key == key) {
        return &slots_[i].value;
      }
    }
  }

  [[nodiscard]] Value* find(std::uint64_t key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Inserts `key` with a default value when absent; returns the value.
  Value& operator[](std::uint64_t key) {
    reserve_one();
    for (std::size_t i = bucket_of(key);; i = next(i)) {
      if (!used_[i]) {
        used_[i] = 1;
        slots_[i].key = key;
        slots_[i].value = Value{};
        ++size_;
        return slots_[i].value;
      }
      if (slots_[i].key == key) {
        return slots_[i].value;
      }
    }
  }

  /// Removes `key`; returns true when it was present. Backward-shift
  /// deletion keeps every surviving key reachable without tombstones.
  bool erase(std::uint64_t key) {
    if (size_ == 0) {
      return false;
    }
    std::size_t i = bucket_of(key);
    while (true) {
      if (!used_[i]) {
        return false;
      }
      if (slots_[i].key == key) {
        break;
      }
      i = next(i);
    }
    std::size_t hole = i;
    for (std::size_t j = next(hole);; j = next(j)) {
      if (!used_[j]) {
        break;
      }
      // Move j into the hole iff the hole lies on j's probe path
      // (cyclic distance test).
      const std::size_t home = bucket_of(slots_[j].key);
      const std::size_t mask = slots_.size() - 1;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    used_[hole] = 0;
    --size_;
    return true;
  }

  void clear() {
    used_.assign(used_.size(), 0);
    size_ = 0;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Value value{};
  };

  [[nodiscard]] std::size_t bucket_of(std::uint64_t key) const {
    return static_cast<std::size_t>(avalanche64(key)) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void reserve_one() {
    // Max load factor 0.7; power-of-two capacity keeps the probe and
    // distance arithmetic mask-based.
    if (slots_.empty()) {
      rehash(16);
    } else if ((size_ + 1) * 10 > slots_.size() * 7) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.assign(capacity, Slot{});
    used_.assign(capacity, 0);
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) {
        continue;
      }
      for (std::size_t j = bucket_of(old_slots[i].key);; j = next(j)) {
        if (!used_[j]) {
          used_[j] = 1;
          slots_[j] = old_slots[i];
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace repro
