// VM tests: reference counters (11-bit saturation, checked against a
// dense reference model), physical frame pools with best-effort
// redirection and their allocation order, page table + mapper tracking,
// placement policies and the address space.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"
#include "repro/common/rng.hpp"
#include "repro/topology/topology.hpp"
#include "repro/vm/address_space.hpp"
#include "repro/vm/counters.hpp"
#include "repro/vm/page_table.hpp"
#include "repro/vm/physical_memory.hpp"
#include "repro/vm/placement.hpp"

namespace repro::vm {
namespace {

TEST(RefCounters, IncrementAndRead) {
  RefCounters counters(8, 4, 11);
  counters.increment(FrameId(3), NodeId(1), 10);
  counters.increment(FrameId(3), NodeId(1), 5);
  EXPECT_EQ(counters.read(FrameId(3), NodeId(1)), 15u);
  EXPECT_EQ(counters.read(FrameId(3), NodeId(0)), 0u);
  EXPECT_EQ(counters.read(FrameId(3)).size(), 4u);
}

TEST(RefCounters, ElevenBitSaturation) {
  // The Origin2000 counters are 11 bits wide; they must clamp at 2047
  // and never wrap (wrapping would invert migration decisions).
  RefCounters counters(2, 2, 11);
  EXPECT_EQ(counters.max_value(), 2047u);
  counters.increment(FrameId(0), NodeId(0), 2000);
  counters.increment(FrameId(0), NodeId(0), 2000);
  EXPECT_EQ(counters.read(FrameId(0), NodeId(0)), 2047u);
  counters.increment(FrameId(0), NodeId(0), 1);
  EXPECT_EQ(counters.read(FrameId(0), NodeId(0)), 2047u);
}

TEST(RefCounters, ArgmaxAndReset) {
  RefCounters counters(4, 4, 11);
  counters.increment(FrameId(1), NodeId(2), 100);
  counters.increment(FrameId(1), NodeId(3), 50);
  EXPECT_EQ(counters.argmax_node(FrameId(1)), NodeId(2));
  counters.reset(FrameId(1));
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(counters.read(FrameId(1), NodeId(n)), 0u);
  }
  // Ties resolve to the lowest node id.
  EXPECT_EQ(counters.argmax_node(FrameId(0)), NodeId(0));
}

TEST(RefCounters, BoundsChecked) {
  RefCounters counters(2, 2, 11);
  EXPECT_THROW(counters.increment(FrameId(2), NodeId(0), 1),
               ContractViolation);
  EXPECT_THROW(counters.read(FrameId(0), NodeId(2)), ContractViolation);
}

// RefCounters against a plain frames x nodes array kept here: random
// increments (many saturating), single-frame and global resets, reads
// of never-touched frames and argmax, with the digest compared to the
// dense array's (logical size, then every nonzero counter at its
// frame-major flat index). Frames at the 16 KiB chunk boundaries are
// drawn often, and frame counts that are not a multiple of the chunk
// size leave a short last chunk.
void check_counters_against_model(std::size_t frames, std::size_t nodes,
                                  unsigned bits, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << frames << " frames x " << nodes
                                    << " nodes, " << bits << " bits");
  RefCounters counters(frames, nodes, bits);
  std::vector<std::uint32_t> model(frames * nodes, 0);
  const std::uint32_t max = (1u << bits) - 1u;
  const auto model_digest = [&] {
    StateHash hash;
    hash.mix(model.size());
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i] != 0) {
        hash.mix(i);
        hash.mix(model[i]);
      }
    }
    return hash.value();
  };

  // Frames per chunk as the counters size it: 4 Ki counters of whole
  // rows, rounded down to a power of two.
  const std::size_t per_chunk =
      std::bit_floor(std::max<std::size_t>(1, 4096 / nodes));
  std::vector<std::uint64_t> edges = {0, frames - 1};
  for (std::size_t f = per_chunk; f < frames; f += per_chunk) {
    edges.push_back(f - 1);
    edges.push_back(f);
  }

  Rng rng(seed);
  EXPECT_EQ(counters.digest(), model_digest());
  for (int step = 0; step < 6000; ++step) {
    const FrameId frame(rng.next_below(2) == 0
                            ? edges[rng.next_below(edges.size())]
                            : rng.next_below(frames));
    const NodeId node(static_cast<std::uint32_t>(rng.next_below(nodes)));
    std::uint32_t* row = model.data() + frame.value() * nodes;
    const std::uint64_t op = rng.next_below(100);
    if (op < 70) {
      const auto n = static_cast<std::uint32_t>(
          rng.next_below(4) == 0 ? rng.next_below(2 * max + 2)
                                 : rng.next_below(8));
      counters.increment(frame, node, n);
      std::uint32_t& v = row[node.value()];
      v = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(std::uint64_t{v} + n, max));
    } else if (op < 78) {
      counters.reset(frame);
      std::fill(row, row + nodes, 0u);
    } else if (op == 78) {
      counters.reset_all();
      std::fill(model.begin(), model.end(), 0u);
    } else {
      // Reads, mostly of frames nothing ever touched.
      const auto got = counters.read(frame);
      ASSERT_EQ(got.size(), nodes);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), row)) << "step " << step;
      ASSERT_EQ(counters.read(frame, node), row[node.value()]);
      const auto argmax = std::max_element(row, row + nodes) - row;
      ASSERT_EQ(counters.argmax_node(frame),
                NodeId(static_cast<std::uint32_t>(argmax)));
    }
    if (step % 500 == 0) {
      ASSERT_EQ(counters.digest(), model_digest()) << "step " << step;
    }
  }
  EXPECT_EQ(counters.digest(), model_digest());
  for (std::uint64_t f = 0; f < frames; ++f) {
    const auto got = counters.read(FrameId(f));
    ASSERT_TRUE(std::equal(got.begin(), got.end(), model.data() + f * nodes))
        << "frame " << f;
  }
}

TEST(RefCounters, MatchesFrameByNodeReferenceModel) {
  // The paper's 16-node machine: 256 frames per chunk.
  check_counters_against_model(1024, 16, 11, 1);
  check_counters_against_model(1000, 16, 11, 2);
  // The 512-node sweep machine: 8 frames per chunk.
  check_counters_against_model(60, 512, 11, 3);
  check_counters_against_model(64, 512, 11, 4);
  // Narrow counters saturate constantly; a node count that does not
  // divide the chunk; a single frame; more nodes than a chunk holds.
  check_counters_against_model(700, 12, 4, 5);
  check_counters_against_model(1, 3, 11, 6);
  check_counters_against_model(3, 5000, 11, 7);
}

TEST(PhysicalMemory, StrictAllocationWithinNode) {
  const topo::FatHypercube topology(4);
  PhysicalMemory phys(4, 2, topology);
  EXPECT_EQ(phys.total_free(), 8u);
  const auto f = phys.allocate_strict(NodeId(1));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(phys.node_of(*f), NodeId(1));
  EXPECT_EQ(phys.free_frames(NodeId(1)), 1u);
}

TEST(PhysicalMemory, StrictFailsWhenFull) {
  const topo::FatHypercube topology(4);
  PhysicalMemory phys(4, 1, topology);
  ASSERT_TRUE(phys.allocate_strict(NodeId(0)).has_value());
  EXPECT_FALSE(phys.allocate_strict(NodeId(0)).has_value());
}

TEST(PhysicalMemory, BestEffortRedirectsToNearestNode) {
  // IRIX's resource constraint: a full target node redirects the
  // allocation to the physically closest node with space.
  const topo::FatHypercube topology(4);
  PhysicalMemory phys(4, 1, topology);
  ASSERT_TRUE(phys.allocate_strict(NodeId(0)).has_value());
  const auto f = phys.allocate(NodeId(0));
  ASSERT_TRUE(f.has_value());
  // Node 1 shares node 0's router: one hop, the closest alternative.
  EXPECT_EQ(phys.node_of(*f), NodeId(1));
}

TEST(PhysicalMemory, ExhaustionReturnsNullopt) {
  const topo::FatHypercube topology(2);
  PhysicalMemory phys(2, 1, topology);
  ASSERT_TRUE(phys.allocate(NodeId(0)).has_value());
  ASSERT_TRUE(phys.allocate(NodeId(0)).has_value());
  EXPECT_FALSE(phys.allocate(NodeId(0)).has_value());
}

TEST(PhysicalMemory, FreeAndReuse) {
  const topo::FatHypercube topology(2);
  PhysicalMemory phys(2, 1, topology);
  const auto f = phys.allocate_strict(NodeId(0));
  phys.free(*f);
  EXPECT_EQ(phys.free_frames(NodeId(0)), 1u);
  EXPECT_THROW(phys.free(*f), ContractViolation);  // double free
  const auto again = phys.allocate_strict(NodeId(0));
  EXPECT_EQ(*again, *f);
}

// The allocation order the golden digests depend on, as the pools were
// first written: every frame pre-pushed onto a per-node LIFO list in
// reverse, so the lowest frame pops first and a freed frame is reused
// first.
class PrefilledPool {
 public:
  PrefilledPool(std::size_t nodes, std::size_t per_node,
                const topo::Topology& topology)
      : per_node_(per_node), topology_(&topology), lists_(nodes) {
    for (std::size_t n = 0; n < nodes; ++n) {
      for (std::size_t f = per_node; f-- > 0;) {
        lists_[n].push_back(FrameId(n * per_node + f));
      }
    }
  }

  std::optional<FrameId> allocate_strict(NodeId node) {
    auto& list = lists_[node.value()];
    if (list.empty()) {
      return std::nullopt;
    }
    const FrameId frame = list.back();
    list.pop_back();
    return frame;
  }

  std::optional<FrameId> allocate(NodeId preferred,
                                  std::optional<NodeId> exclude) {
    if (!exclude || *exclude != preferred) {
      if (auto frame = allocate_strict(preferred)) {
        return frame;
      }
    }
    unsigned best_hops = std::numeric_limits<unsigned>::max();
    std::optional<NodeId> best;
    for (std::uint32_t n = 0; n < lists_.size(); ++n) {
      if (lists_[n].empty() || (exclude && exclude->value() == n)) {
        continue;
      }
      const unsigned h = topology_->hops(preferred, NodeId(n));
      if (h < best_hops) {
        best_hops = h;
        best = NodeId(n);
      }
    }
    return best ? allocate_strict(*best) : std::nullopt;
  }

  void free(FrameId frame) {
    lists_[frame.value() / per_node_].push_back(frame);
  }

  std::size_t free_frames(NodeId node) const {
    return lists_[node.value()].size();
  }

 private:
  std::size_t per_node_;
  const topo::Topology* topology_;
  std::vector<std::vector<FrameId>> lists_;
};

TEST(PhysicalMemory, AllocationSequenceMatchesPrefilledPool) {
  for (const std::size_t nodes : {4u, 8u, 16u}) {
    for (const std::size_t per_node : {1u, 3u, 6u}) {
      SCOPED_TRACE(::testing::Message()
                   << nodes << " nodes x " << per_node << " frames");
      const topo::FatHypercube topology(nodes);
      PhysicalMemory phys(nodes, per_node, topology);
      PrefilledPool reference(nodes, per_node, topology);
      std::vector<FrameId> live;
      Rng rng(nodes * 100 + per_node);
      bool exhausted = false;
      for (int step = 0; step < 3000; ++step) {
        const NodeId node(static_cast<std::uint32_t>(rng.next_below(nodes)));
        const std::uint64_t op = rng.next_below(100);
        std::optional<FrameId> got;
        std::optional<FrameId> want;
        if (op < 30 && !live.empty()) {
          const std::size_t i = rng.next_below(live.size());
          phys.free(live[i]);
          reference.free(live[i]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (op < 55) {
          got = phys.allocate(node);
          want = reference.allocate(node, std::nullopt);
        } else if (op < 80) {
          const NodeId exclude(
              static_cast<std::uint32_t>(rng.next_below(nodes)));
          got = phys.allocate(node, exclude);
          want = reference.allocate(node, exclude);
        } else {
          got = phys.allocate_strict(node);
          want = reference.allocate_strict(node);
        }
        ASSERT_EQ(got, want) << "step " << step;
        if (got) {
          live.push_back(*got);
        }
        std::size_t total = 0;
        for (std::uint32_t n = 0; n < nodes; ++n) {
          ASSERT_EQ(phys.free_frames(NodeId(n)),
                    reference.free_frames(NodeId(n)))
              << "step " << step << " node " << n;
          total += reference.free_frames(NodeId(n));
        }
        ASSERT_EQ(phys.total_free(), total) << "step " << step;
        exhausted = exhausted || total == 0;
      }
      EXPECT_TRUE(exhausted) << "the sequence never filled the machine";
    }
  }
}

TEST(PageTable, MapRemapUnmap) {
  PageTable table(16);
  table.map(VPage(5), FrameId(9));
  EXPECT_TRUE(table.is_mapped(VPage(5)));
  EXPECT_EQ(table.lookup(VPage(5)), FrameId(9));
  EXPECT_THROW(table.map(VPage(5), FrameId(1)), ContractViolation);

  const FrameId old = table.remap(VPage(5), FrameId(2));
  EXPECT_EQ(old, FrameId(9));
  EXPECT_EQ(table.entry(VPage(5)).migrations, 1u);

  EXPECT_EQ(table.unmap(VPage(5)), FrameId(2));
  EXPECT_FALSE(table.is_mapped(VPage(5)));
  EXPECT_THROW(table.unmap(VPage(5)), ContractViolation);
}

TEST(PageTable, MapperTrackingAndShootdownReset) {
  PageTable table(16);
  table.map(VPage(1), FrameId(1));
  table.note_mapper(VPage(1), ProcId(0));
  table.note_mapper(VPage(1), ProcId(3));
  table.note_mapper(VPage(1), ProcId(3));  // idempotent
  EXPECT_EQ(table.mapper_count(VPage(1)), 2u);
  // Migration (remap) clears the mappings: that is the TLB shootdown.
  table.remap(VPage(1), FrameId(2));
  EXPECT_EQ(table.mapper_count(VPage(1)), 0u);
}

TEST(Placement, FirstTouchUsesTouchersNode) {
  FirstTouchPlacement ft(4, 2);  // 2 procs per node
  EXPECT_EQ(ft.place(VPage(0), ProcId(0)), NodeId(0));
  EXPECT_EQ(ft.place(VPage(1), ProcId(1)), NodeId(0));
  EXPECT_EQ(ft.place(VPage(2), ProcId(7)), NodeId(3));
  EXPECT_EQ(ft.name(), "ft");
}

TEST(Placement, RoundRobinIsPageCyclic) {
  RoundRobinPlacement rr(4);
  for (std::uint64_t p = 0; p < 16; ++p) {
    EXPECT_EQ(rr.place(VPage(p), ProcId(0)).value(), p % 4);
  }
}

class RandomPlacementBalance : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomPlacementBalance, BalancedAndDeterministic) {
  // The paper: "a simple random generator is sufficient to produce a
  // fairly balanced distribution of pages" for resident sets of a few
  // thousand pages.
  const std::uint64_t seed = GetParam();
  RandomPlacement rand(16, seed);
  std::map<std::uint32_t, int> counts;
  constexpr int kPages = 4096;
  for (int p = 0; p < kPages; ++p) {
    counts[rand.place(VPage(static_cast<std::uint64_t>(p)), ProcId(0))
               .value()]++;
  }
  EXPECT_EQ(counts.size(), 16u);
  for (const auto& [node, count] : counts) {
    EXPECT_NEAR(count, kPages / 16, kPages / 16 * 0.35);
  }
  // reset() restores the exact sequence.
  RandomPlacement rand2(16, seed);
  rand.reset();
  for (int p = 0; p < 64; ++p) {
    EXPECT_EQ(rand.place(VPage(0), ProcId(0)),
              rand2.place(VPage(0), ProcId(0)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlacementBalance,
                         ::testing::Values(1, 42, 12345, 99999));

TEST(Placement, WorstCasePinsEverythingToOneNode) {
  FixedNodePlacement wc(NodeId(0));
  for (std::uint64_t p = 0; p < 100; ++p) {
    EXPECT_EQ(wc.place(VPage(p), ProcId(static_cast<std::uint32_t>(p % 16))),
              NodeId(0));
  }
}

TEST(Placement, FactoryMatchesPaperNames) {
  for (const char* name : {"ft", "rr", "rand", "wc"}) {
    EXPECT_EQ(make_placement(name, 16, 1, 0)->name(), name);
  }
  EXPECT_THROW(make_placement("optimal", 16, 1, 0), ContractViolation);
}

TEST(AddressSpace, AllocatesWithGuardPages) {
  AddressSpace space(16 * kKiB);
  const PageRange a = space.allocate_pages("a", 10);
  const PageRange b = space.allocate_pages("b", 5);
  // A guard page precedes every allocation (page 0 is the null guard).
  EXPECT_EQ(a.first.value(), 1u);
  EXPECT_EQ(b.first.value(), a.end().value() + 1);
  EXPECT_EQ(space.total_pages(), 1 + 10 + 1 + 5u);
}

TEST(AddressSpace, ByteAllocationRoundsUp) {
  AddressSpace space(16 * kKiB);
  const PageRange r = space.allocate("x", 16 * kKiB + 1);
  EXPECT_EQ(r.count, 2u);
}

TEST(AddressSpace, LookupAndDuplicates) {
  AddressSpace space(4096);
  space.allocate_pages("arr", 3);
  EXPECT_TRUE(space.has("arr"));
  EXPECT_EQ(space.range("arr").count, 3u);
  EXPECT_THROW(space.allocate_pages("arr", 1), ContractViolation);
  EXPECT_THROW(space.range("missing"), ContractViolation);
}

TEST(PageRange, ContainsAndIndex) {
  const PageRange r{VPage(10), 5};
  EXPECT_TRUE(r.contains(VPage(10)));
  EXPECT_TRUE(r.contains(VPage(14)));
  EXPECT_FALSE(r.contains(VPage(15)));
  EXPECT_EQ(r.page(2), VPage(12));
  EXPECT_THROW(r.page(5), ContractViolation);
}

}  // namespace
}  // namespace repro::vm
