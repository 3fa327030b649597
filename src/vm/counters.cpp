#include "repro/vm/counters.hpp"

#include <algorithm>
#include <bit>

#include "repro/common/hash.hpp"

namespace repro::vm {

namespace {
constexpr std::size_t kChunkCounters = (16 * 1024) / sizeof(std::uint32_t);

// Whole frame rows per chunk, rounded down to a power of two so that a
// frame's chunk and row are a shift and a mask.
unsigned chunk_shift_for(std::size_t num_nodes) {
  const std::size_t rows = kChunkCounters / std::max<std::size_t>(1, num_nodes);
  return static_cast<unsigned>(std::bit_width(std::max<std::size_t>(1, rows))) -
         1;
}
}  // namespace

RefCounters::RefCounters(std::size_t num_frames, std::size_t num_nodes,
                         unsigned counter_bits)
    : num_frames_(num_frames),
      num_nodes_(num_nodes),
      max_((1u << counter_bits) - 1u),
      chunk_shift_(chunk_shift_for(num_nodes)),
      chunk_mask_((std::size_t{1} << chunk_shift_) - 1),
      chunks_((num_frames + chunk_mask_) >> chunk_shift_),
      zero_row_(num_nodes, 0) {
  REPRO_REQUIRE(num_frames >= 1);
  REPRO_REQUIRE(num_nodes >= 1);
  REPRO_REQUIRE(counter_bits >= 1 && counter_bits <= 31);
}

std::size_t RefCounters::chunk_size(std::size_t c) const {
  const std::size_t first = c << chunk_shift_;
  return std::min(chunk_mask_ + 1, num_frames_ - first) * num_nodes_;
}

std::uint32_t* RefCounters::allocate_chunk(std::size_t c) {
  chunks_[c] = std::make_unique<std::uint32_t[]>(chunk_size(c));
  return chunks_[c].get();
}

std::uint32_t* RefCounters::find_row(FrameId frame) const {
  REPRO_REQUIRE(frame.value() < num_frames_);
  const auto f = static_cast<std::size_t>(frame.value());
  std::uint32_t* chunk = chunks_[f >> chunk_shift_].get();
  return chunk == nullptr ? nullptr : chunk + (f & chunk_mask_) * num_nodes_;
}

std::span<const std::uint32_t> RefCounters::read(FrameId frame) const {
  const std::uint32_t* row = find_row(frame);
  return {row == nullptr ? zero_row_.data() : row, num_nodes_};
}

std::uint32_t RefCounters::read(FrameId frame, NodeId node) const {
  REPRO_REQUIRE(node.value() < num_nodes_);
  const std::uint32_t* row = find_row(frame);
  return row == nullptr ? 0 : row[node.value()];
}

void RefCounters::reset(FrameId frame) {
  if (std::uint32_t* row = find_row(frame)) {
    std::fill(row, row + num_nodes_, 0u);
  }
}

void RefCounters::reset_all() {
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (chunks_[c] != nullptr) {
      std::fill(chunks_[c].get(), chunks_[c].get() + chunk_size(c), 0u);
    }
  }
}

NodeId RefCounters::argmax_node(FrameId frame) const {
  const auto counts = read(frame);
  const auto it = std::max_element(counts.begin(), counts.end());
  return NodeId(static_cast<std::uint32_t>(it - counts.begin()));
}

std::uint64_t RefCounters::digest() const {
  StateHash hash;
  hash.mix(num_frames_ * num_nodes_);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const std::uint32_t* chunk = chunks_[c].get();
    if (chunk == nullptr) {
      continue;
    }
    const std::size_t base = (c << chunk_shift_) * num_nodes_;
    const std::size_t size = chunk_size(c);
    for (std::size_t i = 0; i < size; ++i) {
      if (chunk[i] != 0) {
        hash.mix(base + i);
        hash.mix(chunk[i]);
      }
    }
  }
  return hash.value();
}

}  // namespace repro::vm
