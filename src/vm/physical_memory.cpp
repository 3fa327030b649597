#include "repro/vm/physical_memory.hpp"

#include <limits>

#include "repro/common/assert.hpp"

namespace repro::vm {

PhysicalMemory::PhysicalMemory(std::size_t num_nodes,
                               std::size_t frames_per_node,
                               const topo::Topology& topology)
    : num_nodes_(num_nodes),
      frames_per_node_(frames_per_node),
      topology_(&topology),
      fresh_(num_nodes, 0),
      freed_(num_nodes),
      allocated_(num_nodes * frames_per_node, false) {
  REPRO_REQUIRE(num_nodes >= 1 && frames_per_node >= 1);
  REPRO_REQUIRE(topology.num_nodes() == num_nodes);
}

std::optional<FrameId> PhysicalMemory::allocate_strict(NodeId node) {
  REPRO_REQUIRE(node.value() < num_nodes_);
  auto& freed = freed_[node.value()];
  std::size_t& fresh = fresh_[node.value()];
  FrameId frame;
  if (!freed.empty()) {
    frame = freed.back();
    freed.pop_back();
  } else if (fresh < frames_per_node_) {
    frame = FrameId(node.value() * frames_per_node_ + fresh++);
  } else {
    return std::nullopt;
  }
  allocated_[static_cast<std::size_t>(frame.value())] = true;
  return frame;
}

std::optional<FrameId> PhysicalMemory::allocate(
    NodeId preferred, std::optional<NodeId> exclude) {
  if (!exclude || *exclude != preferred) {
    if (auto frame = allocate_strict(preferred)) {
      return frame;
    }
  }
  // Best-effort redirection: closest node (fewest hops) with space.
  unsigned best_hops = std::numeric_limits<unsigned>::max();
  std::optional<NodeId> best;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    if (free_frames(NodeId(n)) == 0 || (exclude && exclude->value() == n)) {
      continue;
    }
    const unsigned h = topology_->hops(preferred, NodeId(n));
    if (h < best_hops) {
      best_hops = h;
      best = NodeId(n);
    }
  }
  if (!best) {
    return std::nullopt;
  }
  return allocate_strict(*best);
}

void PhysicalMemory::free(FrameId frame) {
  const auto idx = static_cast<std::size_t>(frame.value());
  REPRO_REQUIRE(idx < allocated_.size());
  REPRO_REQUIRE_MSG(allocated_[idx], "double free of physical frame");
  allocated_[idx] = false;
  freed_[node_of(frame).value()].push_back(frame);
}

NodeId PhysicalMemory::node_of(FrameId frame) const {
  const auto idx = static_cast<std::size_t>(frame.value());
  REPRO_REQUIRE(idx < allocated_.size());
  return NodeId(static_cast<std::uint32_t>(idx / frames_per_node_));
}

std::size_t PhysicalMemory::free_frames(NodeId node) const {
  REPRO_REQUIRE(node.value() < num_nodes_);
  return frames_per_node_ - fresh_[node.value()] +
         freed_[node.value()].size();
}

std::size_t PhysicalMemory::total_free() const {
  std::size_t total = 0;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    total += free_frames(NodeId(n));
  }
  return total;
}

}  // namespace repro::vm
