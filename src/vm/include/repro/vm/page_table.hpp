// Virtual-to-physical page table plus per-page metadata needed by the
// migration machinery: which processors hold a live TLB mapping (so a
// migration can charge the right shootdown cost) and how often the page
// has migrated.
//
// One dense array over the compact virtual page space (see
// vm::AddressSpace), indexed by page id at every machine size: a
// 24-byte entry per page, plus, on machines with more than 64
// processors, a flat per-page array of the mapper words beyond word 0
// (the layout memsys::Directory uses for its sharer words). Replica
// lists live in a side table keyed by page; the entry's `replicated`
// flag lets the translation path skip it for unreplicated pages.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"

namespace repro::vm {

class PageTable {
 public:
  struct Entry {
    FrameId frame;
    /// Bitmask of processors 0..63 that have faulted the page into
    /// their TLB since the last shootdown (higher processors live in
    /// the table's flat mapper-word array).
    std::uint64_t mapper_mask = 0;
    std::uint32_t migrations = 0;
    /// Written since the last clear_dirty() (drives the replication
    /// policy: only clean pages may replicate).
    bool dirty = false;
    /// Unmapped pages occupy empty slots of the dense array.
    bool mapped = false;
    /// The page has read-only replicas (replicas(page) is non-empty).
    bool replicated = false;
  };

  /// `num_procs` sizes the per-page mapper words: one word per 64
  /// processors, the first of which is Entry::mapper_mask.
  explicit PageTable(std::size_t num_procs);

  /// Maps a page; the page must be unmapped.
  void map(VPage page, FrameId frame);

  /// Unmaps; returns the old frame. The page must be mapped.
  FrameId unmap(VPage page);

  /// Remaps to a new frame (migration), clearing the mapper set and
  /// incrementing the migration count. Returns the old frame.
  FrameId remap(VPage page, FrameId frame);

  /// The one lookup routine and the translation hot path: the entry of
  /// a mapped page, or nullptr. One bounds check and one indexed load
  /// (virtual pages are dense). Callers that both read and update a
  /// mapping fetch it once here.
  [[nodiscard]] const Entry* find(VPage page) const {
    if (page.value() >= table_.size() || !table_[page.value()].mapped) {
      return nullptr;
    }
    return &table_[page.value()];
  }
  [[nodiscard]] Entry* find(VPage page) {
    return const_cast<Entry*>(std::as_const(*this).find(page));
  }

  [[nodiscard]] bool is_mapped(VPage page) const {
    return find(page) != nullptr;
  }
  [[nodiscard]] std::optional<FrameId> lookup(VPage page) const {
    const Entry* e = find(page);
    if (e == nullptr) {
      return std::nullopt;
    }
    return e->frame;
  }

  /// Entry accessor; the page must be mapped.
  [[nodiscard]] const Entry& entry(VPage page) const;

  /// Records that `proc` established a TLB mapping for `page`, whose
  /// entry `e` the caller already fetched with find().
  void add_mapper(VPage page, Entry& e, ProcId proc) {
    if (proc.value() < 64) {
      e.mapper_mask |= 1ULL << proc.value();
      return;
    }
    REPRO_REQUIRE(proc.value() < num_procs_);
    mapper_high_[page.value() * high_words_ + proc.value() / 64 - 1] |=
        1ULL << (proc.value() % 64);
  }
  /// add_mapper() for a page the caller has not fetched.
  void note_mapper(VPage page, ProcId proc);

  /// Marks the page written / clears the mark.
  void mark_dirty(VPage page);
  void clear_dirty(VPage page);
  [[nodiscard]] bool is_dirty(VPage page) const;

  /// Replica management (page must be mapped).
  void add_replica(VPage page, FrameId frame);
  /// Removes and returns all replica frames (write collapse).
  [[nodiscard]] std::vector<FrameId> take_replicas(VPage page);
  /// Replica frames of the page, in the order they were added (empty
  /// for unmapped or unreplicated pages).
  [[nodiscard]] std::span<const FrameId> replicas(VPage page) const {
    if (page.value() >= replicas_.size()) {
      return {};
    }
    return replicas_[page.value()];
  }

  /// Number of processors with a live mapping.
  [[nodiscard]] unsigned mapper_count(VPage page) const;

  [[nodiscard]] std::size_t mapped_pages() const { return mapped_count_; }

  /// Digest (in page order) of the placement-relevant state of every
  /// mapping: frame, mapper set, dirty bit and the replica list (in
  /// order -- resolve() scans replicas front to back, so replica order
  /// breaks hop-distance ties). The monotone `migrations` counter is a
  /// statistic and is excluded.
  [[nodiscard]] std::uint64_t digest() const;

  /// Materialized snapshot of the mapped entries, in page order (for
  /// whole-address-space scans in tests/tools; not a hot path).
  [[nodiscard]] std::vector<std::pair<VPage, Entry>> entries() const;

 private:
  std::size_t num_procs_;
  /// Mapper words per page beyond Entry::mapper_mask (0 at <= 64 procs).
  std::size_t high_words_;

  /// Indexed by page id.
  std::vector<Entry> table_;
  /// Page p's mapper words for processors >= 64 live at
  /// [p * high_words_, (p + 1) * high_words_); word w covers processors
  /// 64*(w+1)..64*(w+2)-1. Bits are only set, and cleared all at once.
  std::vector<std::uint64_t> mapper_high_;
  /// Replica frames by page id; grown only when a page replicates.
  std::vector<std::vector<FrameId>> replicas_;

  std::size_t mapped_count_ = 0;

  Entry& mutable_entry(VPage page);
  /// Clears every mapper word of `page` beyond word 0.
  void clear_high_mappers(VPage page);
};

static_assert(sizeof(PageTable::Entry) == 24);

}  // namespace repro::vm
