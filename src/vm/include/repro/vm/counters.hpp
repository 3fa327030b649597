// Per-frame per-node hardware reference counters.
//
// The Origin2000 attaches a set of 11-bit counters to every physical
// memory frame, one per node, counting accesses (L2 misses) from each
// node. The counters saturate -- an important realism point: a kernel
// engine that never resets them stops seeing differentials once pages
// are hot, while UPMlib resets them at iteration boundaries and so keeps
// full-precision per-iteration traces.
//
// Storage follows the frames a run touches, not the machine: counters
// live in fixed 16 KiB chunks of whole frame rows, allocated on the
// first increment of any frame in the chunk and never freed, so a row
// once written never moves. A frame whose chunk was never allocated
// reads as a shared zero row. The digest mixes the logical size
// (frames x nodes) and then every nonzero counter at its frame-major
// flat index, exactly as a dense frames x nodes array would, walking
// only allocated chunks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/strong_id.hpp"

namespace repro::vm {

class RefCounters {
 public:
  RefCounters(std::size_t num_frames, std::size_t num_nodes,
              unsigned counter_bits);

  /// Adds `n` accesses from `node` to `frame`, saturating.
  void increment(FrameId frame, NodeId node, std::uint32_t n) {
    REPRO_REQUIRE(frame.value() < num_frames_);
    REPRO_REQUIRE(node.value() < num_nodes_);
    const auto f = static_cast<std::size_t>(frame.value());
    std::uint32_t* chunk = chunks_[f >> chunk_shift_].get();
    if (chunk == nullptr) [[unlikely]] {
      chunk = allocate_chunk(f >> chunk_shift_);
    }
    std::uint32_t& v = chunk[(f & chunk_mask_) * num_nodes_ + node.value()];
    v = (max_ - v < n) ? max_ : v + n;
  }

  /// Counter values for one frame, indexed by node.
  [[nodiscard]] std::span<const std::uint32_t> read(FrameId frame) const;

  [[nodiscard]] std::uint32_t read(FrameId frame, NodeId node) const;

  /// Zeroes one frame's counters (OS service used by UPMlib and by the
  /// kernel daemon after a migration).
  void reset(FrameId frame);

  /// Zeroes everything.
  void reset_all();

  [[nodiscard]] std::uint32_t max_value() const { return max_; }
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_frames() const { return num_frames_; }

  /// Node with the largest count for a frame (lowest id wins ties).
  [[nodiscard]] NodeId argmax_node(FrameId frame) const;

  /// Behavioural digest of every nonzero counter (frame-major order).
  /// Counters feed the kernel migration daemon's comparator, so runs
  /// with a daemon installed must include them in the machine digest;
  /// without one they are pure statistics.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::size_t num_frames_;
  std::size_t num_nodes_;
  std::uint32_t max_;
  unsigned chunk_shift_;    // log2(frames per chunk)
  std::size_t chunk_mask_;  // frames per chunk - 1
  // chunks_[c] holds frames [c << chunk_shift_, (c + 1) << chunk_shift_)
  // frame-major, or is null while none of them was ever incremented.
  std::vector<std::unique_ptr<std::uint32_t[]>> chunks_;
  std::vector<std::uint32_t> zero_row_;

  /// Number of counters in chunk `c` (the last one may be short).
  [[nodiscard]] std::size_t chunk_size(std::size_t c) const;
  std::uint32_t* allocate_chunk(std::size_t c);
  /// Row for `frame`, or nullptr when its chunk was never allocated.
  [[nodiscard]] std::uint32_t* find_row(FrameId frame) const;
};

}  // namespace repro::vm
