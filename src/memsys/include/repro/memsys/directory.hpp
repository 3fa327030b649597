// Page-grain coherence directory.
//
// Tracks, for every virtual page with at least one cached copy, the set
// of processors caching it and whether one of them holds it exclusively
// (has written it). The memory system consults the directory on every
// access to decide which remote copies a write must invalidate; this is
// what makes page-level false sharing (the paper's FT observation)
// emerge from access patterns instead of being hard-coded.
//
// Sharer sets are multi-word bitmaps (ceil(num_procs / 64) words per
// entry), so machines beyond 64 processors are representable. Entries
// live in a dense array over the compact virtual page space: the slot
// of a page is its page id, one indexed load per access.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"

namespace repro::memsys {

class Directory {
 public:
  explicit Directory(std::size_t num_procs);

  struct AccessOutcome {
    /// Processors 0..63 whose cached copy must be invalidated (excludes
    /// the accessor).
    std::uint64_t invalidate_mask = 0;
    /// Invalidation words for processors >= 64 (word w covers
    /// processors 64*(w+1)..). Empty on <= 64-proc machines. Points
    /// into directory-owned scratch: valid until the next on_write.
    std::span<const std::uint64_t> invalidate_high;
    [[nodiscard]] unsigned invalidations() const;
  };

  /// Registers a read by `proc`; never invalidates, but a previous
  /// exclusive holder is downgraded to sharer.
  AccessOutcome on_read(ProcId proc, VPage page);

  /// Registers a write by `proc`; all other sharers must invalidate.
  AccessOutcome on_write(ProcId proc, VPage page);

  /// Removes `proc` from the sharer set (its cache evicted the page).
  void on_evict(ProcId proc, VPage page);

  /// Sharers among processors 0..63 (bitmask by processor id); the
  /// word-0 view is exact on <= 64-proc machines.
  [[nodiscard]] std::uint64_t sharers(VPage page) const;

  /// True if `proc` holds the page exclusively (last writer, no other
  /// sharers since).
  [[nodiscard]] bool is_exclusive(ProcId proc, VPage page) const;

  [[nodiscard]] std::size_t tracked_pages() const { return tracked_; }

  /// Digest of every live entry (page, sharer set, exclusive owner),
  /// in page order.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  /// Sharer words of page p live in `words_` at p * words_per_entry_;
  /// a page whose words are all zero is dead (has_owner implies the
  /// owner is a sharer, so an empty set also means no owner).
  struct Meta {
    /// Valid only when `has_owner`; identifies the exclusive writer.
    std::uint32_t owner = 0;
    bool has_owner = false;
  };

  [[nodiscard]] std::uint64_t* words(std::size_t page) {
    return &words_[page * words_per_entry_];
  }
  [[nodiscard]] const std::uint64_t* words(std::size_t page) const {
    return &words_[page * words_per_entry_];
  }
  [[nodiscard]] bool live(std::size_t page) const;

  /// Index of `page`, growing the arrays to cover it.
  std::size_t ensure(VPage page);

  std::size_t num_procs_;
  std::size_t words_per_entry_;

  /// Indexed by page id.
  std::vector<Meta> meta_;
  std::vector<std::uint64_t> words_;
  /// Scratch backing AccessOutcome::invalidate_high (reused per write).
  std::vector<std::uint64_t> scratch_high_;

  std::size_t tracked_ = 0;
};

}  // namespace repro::memsys
