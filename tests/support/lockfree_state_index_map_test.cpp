// Unit and stress suite for the lock-free state store (DESIGN.md §3.7):
// id-encoding parity with ShardedStateIndexMap, sequential-oracle agreement,
// the owner-exclusive insert and spill-race targets the TSan CI job runs
// under -fsanitize=thread, the seal/compress/spill lifecycle, and the
// per-shard capacity cap.
#include "support/lockfree_state_index_map.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "support/rng.hpp"
#include "support/sharded_state_index_map.hpp"

namespace tt {
namespace {

using Map2 = LockFreeStateIndexMap<2>;

Map2::State make_state(std::uint64_t a, std::uint64_t b) { return {a, b}; }

TEST(LockFreeStateIndexMap, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(LockFreeStateIndexMap<1>(1).shard_count(), 1u);
  EXPECT_EQ(LockFreeStateIndexMap<1>(3).shard_count(), 4u);
  EXPECT_EQ(LockFreeStateIndexMap<1>(16).shard_count(), 16u);
}

TEST(LockFreeStateIndexMap, SingleShardAssignsDenseIdsLikeStateIndexMap) {
  Map2 lockfree;  // 1 shard: the lasso DFS's configuration
  ShardedStateIndexMap<2> flat(1);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto s = make_state(i % 7000, (i % 7000) * 31);
    const auto [id, fresh] = lockfree.insert(s);
    const auto [ref_id, ref_fresh] = flat.insert(s);
    ASSERT_EQ(id, ref_id) << "i=" << i;
    ASSERT_EQ(fresh, ref_fresh) << "i=" << i;
  }
  EXPECT_EQ(lockfree.size(), flat.size());
}

// Bit-identity at the store level: with the same shard count, both stores
// route by the same hash window and allocate locals in the same order, so
// every id — and hence every engine trace built on them — matches.
TEST(LockFreeStateIndexMap, IdsMatchShardedStoreExactly) {
  Map2 lockfree(16);
  ShardedStateIndexMap<2> sharded(16);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto s = make_state(i % 6000, i % 6000);
    ASSERT_EQ(lockfree.insert(s).first, sharded.insert(s).first) << "i=" << i;
  }
  EXPECT_EQ(lockfree.size(), sharded.size());
  for (std::uint64_t i = 0; i < 6000; i += 13) {
    const auto s = make_state(i, i);
    EXPECT_EQ(lockfree.find(s), sharded.find(s));
  }
}

TEST(LockFreeStateIndexMap, IdEncodesShardAndLocal) {
  Map2 map(16);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto s = make_state(i, i * 31);
    const auto [id, fresh] = map.insert(s);
    ASSERT_TRUE(fresh);
    EXPECT_EQ(map.shard_of_id(id), map.shard_of(s));
    EXPECT_LT(map.local_of_id(id), map.shard_size(map.shard_of_id(id)));
    EXPECT_EQ(map.at(id), s);
    EXPECT_EQ(map.find(s), id);
  }
  EXPECT_EQ(map.size(), 1000u);
}

TEST(LockFreeStateIndexMap, MatchesReferenceAcrossSerialGrowth) {
  Map2 map(8, 64);  // tiny initial capacity forces inline growth cycles
  std::unordered_set<std::uint64_t> reference;
  Rng rng(1234);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t key = rng.next() % 50000;
    const auto s = make_state(key, key ^ 0xabcdef);
    const bool fresh_ref = reference.insert(key).second;
    const auto [id, fresh] = map.insert(s);
    ASSERT_EQ(fresh, fresh_ref);
    ASSERT_EQ(map.at(id), s);
  }
  EXPECT_EQ(map.size(), reference.size());
  for (std::uint64_t key : reference) {
    EXPECT_NE(map.find(make_state(key, key ^ 0xabcdef)), Map2::kEmpty);
  }
}

TEST(LockFreeStateIndexMap, DeterministicIdsAcrossRuns) {
  std::vector<std::uint32_t> ids[2];
  for (auto& run : ids) {
    Map2 map(16);
    for (std::uint64_t i = 0; i < 3000; ++i) {
      run.push_back(map.insert(make_state(i, ~i)).first);
    }
  }
  EXPECT_EQ(ids[0], ids[1]);
}

// The drain-phase contract, and a TSan target: k threads each own the shards
// s with s % k == w and insert, in stream order, only the stream entries of
// their shards. A tiny initial capacity makes every shard grow its table
// mid-phase; owners of different shards share no memory. Ids must equal a
// serial insert of the same stream at every k.
TEST(LockFreeStateIndexMap, OwnerExclusiveInsertsMatchSerialIds) {
  constexpr unsigned kShards = 16;
  std::vector<Map2::State> stream;
  Rng rng(99);
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t key = rng.next() % 20000;
    stream.push_back(make_state(key, key * 1315423911ull));
  }
  Map2 serial(kShards, 16);
  std::vector<std::uint32_t> want;
  for (const auto& s : stream) want.push_back(serial.insert(s).first);

  for (const unsigned k : {1u, 2u, 4u}) {
    Map2 map(kShards, 16);
    const std::size_t slots_before = map.memory_breakdown().slots;
    std::vector<std::uint32_t> got(stream.size());
    auto own = [&](unsigned w) {
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (map.shard_of(stream[i]) % k == w) got[i] = map.insert(stream[i]).first;
      }
    };
    std::vector<std::thread> workers;
    for (unsigned w = 1; w < k; ++w) workers.emplace_back(own, w);
    own(0);
    for (auto& t : workers) t.join();

    EXPECT_EQ(got, want) << "threads=" << k;
    EXPECT_EQ(map.size(), serial.size()) << "threads=" << k;
    EXPECT_GT(map.memory_breakdown().slots, slots_before) << "no shard grew mid-phase";
    for (std::size_t i = 0; i < stream.size(); i += 7) {
      ASSERT_EQ(map.at(want[i]), stream[i]) << "threads=" << k << " i=" << i;
      ASSERT_EQ(map.find(stream[i]), want[i]) << "threads=" << k << " i=" << i;
    }
  }
}

// Seal/compress roundtrip: the first maintain records the quiescent count,
// the second seals every full page below it. All reads must keep working on
// the delta-compressed tier, and find() must keep probing correctly.
TEST(LockFreeStateIndexMap, SealedPagesRoundTripThroughDecoding) {
  constexpr std::uint64_t kStates = 5000;  // ~4.9 pages in one shard
  Map2 map;                                // 1 shard: dense ids 0..n-1
  std::vector<std::uint32_t> ids;
  for (std::uint64_t i = 0; i < kStates; ++i) {
    ids.push_back(map.insert(make_state(i, i * 2654435761ull)).first);
  }
  map.quiescent_maintain();
  EXPECT_EQ(map.store_stats().pages_compressed, 0u);  // nothing predates the previous
                                                      // quiescent point
  map.quiescent_maintain();
  EXPECT_EQ(map.store_stats().pages_compressed, 4u);  // 4 full pages of 1024; the
                                                      // tail stays raw

  const std::size_t resident = map.memory_bytes();
  for (std::uint64_t i = 0; i < kStates; ++i) {
    const auto s = make_state(i, i * 2654435761ull);
    ASSERT_EQ(map.at(ids[i]), s) << "i=" << i;
    ASSERT_EQ(map.find(s), ids[i]) << "i=" << i;
  }
  // Inserting after sealing keeps working (fresh pages are raw).
  const auto [id, fresh] = map.insert(make_state(999999, 1));
  EXPECT_TRUE(fresh);
  EXPECT_EQ(map.at(id), make_state(999999, 1));
  EXPECT_GE(resident, map.store_stats().spill_bytes);  // nothing spilled yet
}

#if TT_LFSIM_HAS_SPILL
// Out-of-core exactness: a byte budget far below the resident set forces
// sealed pages onto disk; every state must still read back exactly, every
// absent state must still miss, and the spill counters must say so.
// TTSTART_SPILL_DIR is honored by the backing file (exercised here via
// TMPDIR fallback — no assertion on the path).
TEST(LockFreeStateIndexMap, SpilledPagesReadBackExactly) {
  constexpr std::uint64_t kStates = 9000;
  Map2 map;
  map.set_mem_budget(1);  // evict every sealed page
  std::vector<std::uint32_t> ids;
  for (std::uint64_t i = 0; i < kStates; ++i) {
    ids.push_back(map.insert(make_state(i * 7, i ^ 0xdeadbeef)).first);
  }
  map.quiescent_maintain();
  map.quiescent_maintain();
  const auto st = map.store_stats();
  EXPECT_EQ(st.pages_compressed, 8u);
  EXPECT_EQ(st.pages_spilled, 8u);
  EXPECT_GT(st.spill_bytes, 0u);

  for (std::uint64_t i = 0; i < kStates; ++i) {
    const auto s = make_state(i * 7, i ^ 0xdeadbeef);
    ASSERT_EQ(map.at(ids[i]), s) << "i=" << i;
    ASSERT_EQ(map.find(s), ids[i]) << "i=" << i;
    // A first word that is no multiple of 7 was never inserted.
    ASSERT_EQ(map.find(make_state(i * 7 + 1, i ^ 0xdeadbeef)), Map2::kEmpty) << "i=" << i;
  }
  EXPECT_EQ(map.size(), kStates);
}

// Spill across several maintain cycles: pages sealed later append to the
// same backing file and earlier offsets stay valid after every remap.
TEST(LockFreeStateIndexMap, IncrementalSpillKeepsEarlierPagesValid) {
  Map2 map;
  map.set_mem_budget(1);
  std::vector<std::uint32_t> ids;
  std::uint64_t next = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3000; ++i, ++next) {
      ids.push_back(map.insert(make_state(next, next * 31)).first);
    }
    map.quiescent_maintain();
  }
  map.quiescent_maintain();
  EXPECT_GT(map.store_stats().pages_spilled, 0u);
  for (std::uint64_t i = 0; i < next; ++i) {
    ASSERT_EQ(map.at(ids[i]), make_state(i, i * 31)) << "i=" << i;
  }
}
#endif  // TT_LFSIM_HAS_SPILL

#if TT_LFSIM_HAS_SPILL
// Only evicted pages are written: with a budget that is set but not
// exceeded, sealed pages stay resident and nothing reaches the spill file.
// Tightening the budget later evicts them; every state keeps reading back.
TEST(LockFreeStateIndexMap, WriteBehindEnqueuesWithoutEvictingUnderGenerousBudget) {
  constexpr std::uint64_t kStates = 5000;
  Map2 map;
  map.set_mem_budget(64u << 20);  // generous: never exceeded by this test
  std::vector<std::uint32_t> ids;
  for (std::uint64_t i = 0; i < kStates; ++i) {
    ids.push_back(map.insert(make_state(i * 3, i ^ 0xf00d)).first);
  }
  map.quiescent_maintain();
  map.quiescent_maintain();
  auto st = map.store_stats();
  EXPECT_EQ(st.pages_compressed, 4u);
  EXPECT_EQ(st.spill_bytes, 0u);       // under budget: nothing is written
  EXPECT_EQ(st.spill_sync_waits, 0u);
  EXPECT_EQ(st.pages_spilled, 0u);
  for (std::uint64_t i = 0; i < kStates; ++i) {
    ASSERT_EQ(map.at(ids[i]), make_state(i * 3, i ^ 0xf00d)) << "i=" << i;
  }

  map.set_mem_budget(1);  // now exceeded: write and evict every sealed page
  map.quiescent_maintain();
  st = map.store_stats();
  EXPECT_EQ(st.pages_spilled, 4u);
  EXPECT_GT(st.spill_bytes, 0u);
  EXPECT_EQ(st.spill_sync_waits, 1u);  // one maintain step wrote pages
  for (std::uint64_t i = 0; i < kStates; ++i) {
    const auto s = make_state(i * 3, i ^ 0xf00d);
    ASSERT_EQ(map.at(ids[i]), s) << "i=" << i;
    ASSERT_EQ(map.find(s), ids[i]) << "i=" << i;
  }
}

// A spill write failure (injected device-full) must surface as
// StateCapacityError from the quiescent maintain, not silently drop pages.
TEST(LockFreeStateIndexMap, WriterFailureSurfacesAsStateCapacityErrorAtMaintain) {
  ::setenv("TTSTART_SPILL_FAIL_AFTER", "1", 1);
  Map2 map;
  map.set_mem_budget(1);
  for (std::uint64_t i = 0; i < 5000; ++i) map.insert(make_state(i, i * 17));
  map.quiescent_maintain();  // records the quiescent count, no spill yet
  EXPECT_THROW(map.quiescent_maintain(), StateCapacityError);
  ::unsetenv("TTSTART_SPILL_FAIL_AFTER");
}

// The TSan target for the spill tier: evict pages, then hammer the store
// with concurrent find()/at() readers (the expand phase) that decode the
// evicted pages through the shared read-only mapping and the resident ones
// from RAM.
TEST(LockFreeStateIndexMap, ConcurrentFindsRaceInFlightAsyncSpillWrites) {
  constexpr std::uint64_t kOld = 8192;
  constexpr int kReaders = 4;
  Map2 map(4);
  map.set_mem_budget(1);
  std::vector<std::uint32_t> old_ids;
  for (std::uint64_t i = 0; i < kOld; ++i) {
    old_ids.push_back(map.insert(make_state(i, i * 2654435761ull)).first);
  }
  map.quiescent_maintain();
  map.quiescent_maintain();  // seals, writes and evicts
  ASSERT_GT(map.store_stats().pages_spilled, 0u);

  std::vector<std::thread> workers;
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&map, &old_ids, t] {
      Rng rng(31 * t + 7);
      for (int i = 0; i < 30000; ++i) {
        const std::uint64_t key = rng.next() % kOld;
        const auto s = make_state(key, key * 2654435761ull);
        if (map.at(old_ids[key]) != s) {
          ADD_FAILURE() << "state " << key << " read back wrong";
          return;
        }
        if (map.find(s) != old_ids[key]) {
          ADD_FAILURE() << "state " << key << " not found";
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}
#endif  // TT_LFSIM_HAS_SPILL

// Accounting regression: memory_bytes() must be exactly the sum of the
// three breakdown components — probe tables, raw pages and sealed pages (the
// budget enforcement compares memory_bytes() against the budget, so a
// component silently dropping out of the sum would under-enforce it).
TEST(LockFreeStateIndexMap, MemoryBytesIsExactlyTheBreakdownSum) {
  Map2 map(4);
  for (std::uint64_t i = 0; i < 6000; ++i) map.insert(make_state(i, i * 31));
  map.quiescent_maintain();
  map.quiescent_maintain();
  const auto b = map.memory_breakdown();
  EXPECT_EQ(map.memory_bytes(),
            b.slots + b.raw_pages + b.sealed_pages);
  EXPECT_EQ(map.memory_bytes(), b.total());
  EXPECT_GT(b.slots, 0u);
  EXPECT_GT(b.raw_pages, 0u);
  EXPECT_GT(b.sealed_pages, 0u);
#if TT_LFSIM_HAS_SPILL
  // Evicted bodies leave the sum; what stays resident is still counted.
  Map2 budgeted;
  budgeted.set_mem_budget(1);
  for (std::uint64_t i = 0; i < 3000; ++i) budgeted.insert(make_state(i, i));
  budgeted.quiescent_maintain();
  budgeted.quiescent_maintain();
  ASSERT_GT(budgeted.store_stats().pages_spilled, 0u);
  const auto bb = budgeted.memory_breakdown();
  EXPECT_GT(bb.sealed_pages, 0u);  // evicted pages keep their anchor tables
  EXPECT_EQ(budgeted.memory_bytes(), bb.total());
#endif
}

TEST(LockFreeStateIndexMap, MaxStatesPerShardCapThrowsStateCapacityError) {
  Map2 map(1, 1 << 12, /*max_states_per_shard=*/4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(map.insert(make_state(i, i)).second);
  }
  // Duplicates stay fine at the cap; the next fresh state throws and leaves
  // the table consistent.
  EXPECT_FALSE(map.insert(make_state(0, 0)).second);
  EXPECT_THROW(map.insert(make_state(99, 99)), StateCapacityError);
  EXPECT_NE(map.find(make_state(0, 0)), Map2::kEmpty);
  EXPECT_EQ(map.find(make_state(99, 99)), Map2::kEmpty);
  EXPECT_EQ(map.size(), 4u);
}

TEST(LockFreeStateIndexMap, MemoryAccountingCoversSlotsAndArena) {
  Map2 map(16);
  const std::size_t before = map.memory_bytes();
  for (std::uint64_t i = 0; i < 10000; ++i) map.insert(make_state(i, i));
  EXPECT_GT(map.memory_bytes(), before);
  EXPECT_GE(map.memory_bytes(), 10000 * sizeof(Map2::State));
}

// One growth path: the maintain step never pre-sizes the probe tables,
// whatever headroom its caller passes. A later 59,000-state wave then grows
// every shard inline and assigns the ids a serial reference store assigns.
TEST(LockFreeStateIndexMap, MaintainLeavesGrowthToInsert) {
  Map2 map(4, 64);
  ShardedStateIndexMap<2> reference(4);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto s = make_state(i, i);
    ASSERT_EQ(map.insert(s).first, reference.insert(s).first);
  }
  const std::size_t slots = map.memory_breakdown().slots;
  map.quiescent_maintain(100000);
  EXPECT_EQ(map.memory_breakdown().slots, slots);
  for (std::uint64_t i = 1000; i < 60000; ++i) {
    const auto s = make_state(i, i * 3);
    const auto [id, fresh] = map.insert(s);
    ASSERT_TRUE(fresh) << "i=" << i;
    ASSERT_EQ(id, reference.insert(s).first) << "i=" << i;
  }
  EXPECT_EQ(map.size(), 50u + 59000u);
  EXPECT_GT(map.memory_breakdown().slots, slots);
  for (std::uint64_t i = 1000; i < 60000; i += 101) {
    const auto s = make_state(i, i * 3);
    ASSERT_EQ(map.find(s), reference.find(s)) << "i=" << i;
  }
}

}  // namespace
}  // namespace tt
