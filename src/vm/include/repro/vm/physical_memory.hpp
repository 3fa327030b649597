// Physical frame pools, one per node, with capacity limits.
//
// IRIX page migration is subject to resource-management constraints: a
// user-requested migration can be rejected when the target node is out
// of memory, in which case the kernel forwards the page to the
// physically closest node with space (best effort). That behaviour lives
// here so both the kernel daemon and UPMlib inherit it.
//
// Allocation order (part of every golden digest): a node hands out its
// most recently freed frame first, and otherwise its lowest never-used
// frame. Storage follows use, not the node's size: a per-node offset of
// the next never-used frame plus a stack of freed frames.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "repro/common/strong_id.hpp"
#include "repro/topology/topology.hpp"

namespace repro::vm {

class PhysicalMemory {
 public:
  PhysicalMemory(std::size_t num_nodes, std::size_t frames_per_node,
                 const topo::Topology& topology);

  /// Allocates a frame on `node` if possible, otherwise on the nearest
  /// node (by hop count, lowest id tie-break) with a free frame.
  /// `exclude`, when set, is never chosen as a redirection target (the
  /// kernel excludes a migration's source node: moving the page "to"
  /// where it already is would be pointless).
  /// Returns nullopt only when no eligible node has a free frame.
  [[nodiscard]] std::optional<FrameId> allocate(
      NodeId preferred, std::optional<NodeId> exclude = std::nullopt);

  /// Allocates strictly on `node`; nullopt when that node is full.
  [[nodiscard]] std::optional<FrameId> allocate_strict(NodeId node);

  void free(FrameId frame);

  [[nodiscard]] NodeId node_of(FrameId frame) const;
  [[nodiscard]] std::size_t free_frames(NodeId node) const;
  [[nodiscard]] std::size_t total_free() const;
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t frames_per_node() const {
    return frames_per_node_;
  }

 private:
  std::size_t num_nodes_;
  std::size_t frames_per_node_;
  const topo::Topology* topology_;
  std::vector<std::size_t> fresh_;             // by node: next never-used
  std::vector<std::vector<FrameId>> freed_;    // by node (LIFO)
  std::vector<bool> allocated_;                // by frame
};

}  // namespace repro::vm
