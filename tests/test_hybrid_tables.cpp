// Page-structure tests: the sparse/dense page-cache index pair (see
// memsys::TableBackend), the FlatMap behind its sparse side, and digest
// pins of the page table and the directory on a 512-processor machine,
// whose mapper and sharer words reach past word 0. The whole 30-cell
// golden grid is replayed under both page-cache backends and must
// agree on every trace digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "golden_matrix.hpp"
#include "repro/common/flat_map.hpp"
#include "repro/common/hash.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/memsys/directory.hpp"
#include "repro/memsys/page_cache.hpp"
#include "repro/vm/page_table.hpp"

namespace repro {
namespace {

/// Deterministic pseudo-random stream (splitmix-style) for op fuzzing.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    return avalanche64(state);
  }
};

TEST(FlatMap, InsertFindEraseAndIterationOverManyKeys) {
  FlatMap<std::uint64_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);

  // Enough keys to force several growth rehashes (starts at 16 slots).
  constexpr std::uint64_t kKeys = 4096;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    map[k * 3] = k;
  }
  EXPECT_EQ(map.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t* v = map.find(k * 3);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
    EXPECT_EQ(map.find(k * 3 + 1), nullptr);
  }

  // Erase every other key; backward-shift deletion must keep the rest
  // reachable.
  for (std::uint64_t k = 0; k < kKeys; k += 2) {
    EXPECT_TRUE(map.erase(k * 3));
    EXPECT_FALSE(map.erase(k * 3));
  }
  EXPECT_EQ(map.size(), kKeys / 2);
  std::set<std::uint64_t> visited;
  map.for_each([&](std::uint64_t key, const std::uint64_t& value) {
    EXPECT_EQ(key, value * 3);
    visited.insert(key);
  });
  EXPECT_EQ(visited.size(), kKeys / 2);
  for (std::uint64_t k = 1; k < kKeys; k += 2) {
    ASSERT_NE(map.find(k * 3), nullptr) << k;
  }

  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(3), nullptr);
}

TEST(FlatMap, CollidingKeysSurviveBackwardShiftErase) {
  // Keys chosen to land in a small table; erasing the home slot of a
  // displaced key must shift it back rather than orphan it.
  FlatMap<int> map;
  for (std::uint64_t k = 0; k < 64; ++k) {
    map[k << 32] = static_cast<int>(k);
  }
  for (std::uint64_t k = 0; k < 64; k += 3) {
    ASSERT_TRUE(map.erase(k << 32));
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    const int* v = map.find(k << 32);
    if (k % 3 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr) << k;
      EXPECT_EQ(*v, static_cast<int>(k));
    }
  }
}

// Pins the page-table digest of a 512-processor machine through
// mapper words past word 0, replica lists, remaps and unmaps (and a
// re-map of an unmapped page). The constants were recorded before the
// entry layout changed; any change to what the digest mixes, or in
// which order, moves them.
TEST(PageTableDigest, PinnedAt512ProcsThroughWideMappersReplicasRemapUnmap) {
  vm::PageTable table(512);
  Rng rng{12345};
  std::vector<std::uint64_t> mapped;
  std::vector<std::uint64_t> digests;
  for (std::uint32_t step = 0; step < 4000; ++step) {
    const std::uint64_t roll = rng.next();
    if (mapped.size() < 64 || (roll % 5) < 3) {
      const std::uint64_t page = roll % 4096;
      if (!table.is_mapped(VPage(page))) {
        table.map(VPage(page), FrameId(roll % 997));
        mapped.push_back(page);
      } else {
        table.note_mapper(VPage(page),
                          ProcId(static_cast<std::uint32_t>(roll % 512)));
        if ((roll % 7) == 0) {
          table.mark_dirty(VPage(page));
        }
      }
    } else {
      const VPage page(mapped[roll % mapped.size()]);
      if (table.is_mapped(page)) {
        if ((roll % 3) == 0) {
          // Migrations require the replica set collapsed first.
          static_cast<void>(table.take_replicas(page));
          static_cast<void>(table.remap(page, FrameId(roll % 991)));
        } else if ((roll % 3) == 1) {
          const FrameId frame(roll % 983);
          const auto replicas = table.replicas(page);
          if (frame != *table.lookup(page) &&
              std::find(replicas.begin(), replicas.end(), frame) ==
                  replicas.end()) {
            table.add_replica(page, frame);
          }
        } else {
          static_cast<void>(table.take_replicas(page));
          static_cast<void>(table.unmap(page));
        }
      }
    }
    if ((step % 500) == 499) {
      digests.push_back(table.digest());
    }
  }
  std::size_t mappers = 0;
  std::size_t replicas = 0;
  for (const auto& [page, entry] : table.entries()) {
    mappers += table.mapper_count(page);
    replicas += table.replicas(page).size();
  }
  const std::vector<std::uint64_t> expected = {
      0x9779e8a14f528917ull, 0xd419c853bf0cb8a2ull, 0x255aaa3866fc9629ull,
      0x65bf7091ccb5ac6eull, 0x903c39c146050ac4ull, 0xdfeebebd46c6c859ull,
      0xabc6d8cb55f79e94ull, 0xd1470114c147c974ull};
  EXPECT_EQ(digests, expected);
  EXPECT_EQ(table.mapped_pages(), 1484u);
  EXPECT_EQ(mappers, 302u);
  EXPECT_EQ(replicas, 329u);
}

// Pins the directory digest of a 512-processor machine (eight sharer
// words per page) under random reads, writes and evictions.
TEST(DirectoryDigest, PinnedAt512ProcsUnderRandomCoherenceTraffic) {
  constexpr std::size_t kProcs = 512;
  memsys::Directory directory(kProcs);
  Rng rng{777};
  std::uint64_t invalidations = 0;
  std::vector<std::uint64_t> digests;
  for (std::uint32_t step = 0; step < 5000; ++step) {
    const std::uint64_t roll = rng.next();
    const ProcId proc(static_cast<std::uint32_t>(roll % kProcs));
    const VPage page((roll >> 12) % 512);
    const std::uint64_t op = (roll >> 32) % 4;
    if (op == 0) {
      invalidations += directory.on_write(proc, page).invalidations();
    } else if (op == 3) {
      directory.on_evict(proc, page);
    } else {
      invalidations += directory.on_read(proc, page).invalidations();
    }
    if ((step % 1000) == 999) {
      digests.push_back(directory.digest());
    }
  }
  const std::vector<std::uint64_t> expected = {
      0x8a49fb6e8771b9bfull, 0x6a283ef3f91861b8ull, 0x9debd0f63b12a5daull,
      0xbd315dc2cca25ba9ull, 0xb00106a187c0083aull};
  EXPECT_EQ(digests, expected);
  EXPECT_EQ(directory.tracked_pages(), 511u);
  EXPECT_EQ(invalidations, 2333u);
}

TEST(HybridPageTable, WideMapperSetsCountPastSixtyFourProcs) {
  vm::PageTable table(200);
  table.map(VPage(9), FrameId(1));
  for (std::uint32_t proc = 0; proc < 200; proc += 2) {
    table.note_mapper(VPage(9), ProcId(proc));
  }
  EXPECT_EQ(table.mapper_count(VPage(9)), 100u);
  // A remap (migration) must clear the whole wide set.
  static_cast<void>(table.remap(VPage(9), FrameId(2)));
  EXPECT_EQ(table.mapper_count(VPage(9)), 0u);
}

TEST(HybridDirectory, WriteInvalidatesSharersBeyondWordZero) {
  constexpr std::size_t kProcs = 130;
  memsys::Directory directory(kProcs);
  for (std::uint32_t proc = 0; proc < kProcs; proc += 13) {
    static_cast<void>(directory.on_read(ProcId(proc), VPage(3)));
  }
  // Readers at procs 0, 13, ..., 117 (ten of them); the writer (65)
  // is one of them, so nine other copies must be invalidated.
  const auto outcome = directory.on_write(ProcId(65), VPage(3));
  EXPECT_EQ(outcome.invalidations(), 9u);
  EXPECT_FALSE(outcome.invalidate_high.empty());
  EXPECT_TRUE(directory.is_exclusive(ProcId(65), VPage(3)));
}

TEST(HybridPageCache, BackendsAgreeOnLruBehaviourAndDigest) {
  memsys::PageCache dense(64, /*sparse=*/false);
  memsys::PageCache sparse(64, /*sparse=*/true);

  Rng rng{4242};
  for (std::uint32_t step = 0; step < 5000; ++step) {
    const std::uint64_t roll = rng.next();
    const VPage page(roll % 300);
    if ((roll >> 16) % 8 == 0) {
      EXPECT_EQ(dense.invalidate(page), sparse.invalidate(page));
    } else {
      const auto a = dense.touch(page);
      const auto b = sparse.touch(page);
      ASSERT_EQ(a.hit, b.hit) << "step " << step;
      ASSERT_EQ(a.evicted.has_value(), b.evicted.has_value());
      if (a.evicted.has_value()) {
        ASSERT_EQ(*a.evicted, *b.evicted);
      }
    }
    ASSERT_EQ(dense.size(), sparse.size());
    if (dense.size() > 0) {
      ASSERT_EQ(dense.lru_page(), sparse.lru_page());
    }
  }
  StateHash dense_hash;
  StateHash sparse_hash;
  dense.digest(dense_hash);
  sparse.digest(sparse_hash);
  EXPECT_EQ(dense_hash.value(), sparse_hash.value());

  dense.clear();
  sparse.clear();
  EXPECT_EQ(dense.size(), 0u);
  EXPECT_EQ(sparse.size(), 0u);
  EXPECT_FALSE(sparse.contains(VPage(1)));
}

// The full 30-cell golden grid (every benchmark x {ft, rr, wc} x
// {base, upmlib}) produces byte-identical trace digests with the dense
// and the sparse page-cache indexes.
TEST(HybridTables, GoldenGridTraceDigestsAreBackendIndependent) {
  std::vector<harness::RunConfig> dense_configs =
      golden::golden_matrix(golden::kPlacementLabels);
  std::vector<harness::RunConfig> sparse_configs = dense_configs;
  for (harness::RunConfig& config : dense_configs) {
    config.machine.table_backend = memsys::TableBackend::kDense;
  }
  for (harness::RunConfig& config : sparse_configs) {
    config.machine.table_backend = memsys::TableBackend::kSparse;
  }
  const std::vector<harness::RunResult> dense =
      harness::run_experiments(dense_configs, 4);
  const std::vector<harness::RunResult> sparse =
      harness::run_experiments(sparse_configs, 4);
  ASSERT_EQ(dense.size(), sparse.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense[i].trace_digest.size(), 16u);
    EXPECT_EQ(dense[i].trace_digest, sparse[i].trace_digest)
        << dense[i].benchmark << " " << dense[i].label
        << ": sparse backend diverged from dense";
  }
}

}  // namespace
}  // namespace repro
