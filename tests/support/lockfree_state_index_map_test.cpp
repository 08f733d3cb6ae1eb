// Unit and stress suite for the lock-free state store (DESIGN.md §3.7):
// id-encoding parity with ShardedStateIndexMap, sequential-oracle agreement,
// the concurrent insert/find torture targets the TSan CI job runs under
// -fsanitize=thread, the seal/compress/spill lifecycle, and the capacity
// backstops (probe-full, max_states).
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
    const auto [id, fresh] = lockfree.insert_serial(s);
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
    ASSERT_EQ(lockfree.insert_serial(s).first, sharded.insert_serial(s).first) << "i=" << i;
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
    const auto [id, fresh] = map.insert_serial(s);
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
    const auto [id, fresh] = map.insert_serial(s);
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
      run.push_back(map.insert_serial(make_state(i, ~i)).first);
    }
  }
  EXPECT_EQ(ids[0], ids[1]);
}

// The TSan target: 8 threads hammer the CAS insert path with heavily
// overlapping state sets, so the same slot (and the same fingerprint) is
// contended from many threads at once. The concurrent path never grows the
// probe table, so the map is pre-sized like an engine drain phase would be.
TEST(LockFreeStateIndexMap, ConcurrentInsertStress) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kUniverse = 20000;  // every thread inserts all of it
  Map2 map(16);
  map.reserve(kUniverse);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&map, t] {
      Rng rng(7 * t + 1);
      for (int i = 0; i < 60000; ++i) {
        const std::uint64_t key = rng.next() % kUniverse;
        const auto s = make_state(key, key * 1315423911ull);
        const auto [id, fresh] = map.insert(s);
        // The returned id must be stable and point at the inserted state,
        // whichever thread won the CAS race to claim the slot.
        if (map.at(id) != s) {
          ADD_FAILURE() << "id " << id << " does not round-trip";
          return;
        }
        (void)fresh;
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(map.size(), kUniverse);
  std::unordered_set<std::uint32_t> ids;
  for (std::uint64_t key = 0; key < kUniverse; ++key) {
    const auto s = make_state(key, key * 1315423911ull);
    const std::uint32_t id = map.find(s);
    ASSERT_NE(id, Map2::kEmpty);
    EXPECT_EQ(map.at(id), s);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
  }
}

// Mixed readers and writers: half the threads insert, half run find() over
// the same universe while inserts are in flight (the expand-phase pattern,
// except expand runs on a frozen store — this is strictly harsher). A found
// id must always round-trip through at(); a miss is legal only while the
// state genuinely hasn't been published yet, which the post-join oracle
// sweep cannot distinguish, so readers only validate positive results.
TEST(LockFreeStateIndexMap, ConcurrentInsertFindTorture) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr std::uint64_t kUniverse = 15000;
  Map2 map(16);
  map.reserve(kUniverse);

  std::vector<std::thread> workers;
  workers.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&map, t] {
      Rng rng(13 * t + 5);
      for (int i = 0; i < 40000; ++i) {
        const std::uint64_t key = rng.next() % kUniverse;
        map.insert(make_state(key, key ^ 0x5a5a5a5a));
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&map, t] {
      Rng rng(17 * t + 3);
      for (int i = 0; i < 40000; ++i) {
        const std::uint64_t key = rng.next() % (2 * kUniverse);  // half are absent
        const auto s = make_state(key, key ^ 0x5a5a5a5a);
        const std::uint32_t id = map.find(s);
        if (id != Map2::kEmpty && map.at(id) != s) {
          ADD_FAILURE() << "find returned id " << id << " that does not round-trip";
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Sequential oracle: replay the writers' exact streams; every key they
  // inserted must now be found, nothing else interned.
  std::unordered_set<std::uint64_t> oracle;
  for (int t = 0; t < kWriters; ++t) {
    Rng rng(13 * t + 5);
    for (int i = 0; i < 40000; ++i) oracle.insert(rng.next() % kUniverse);
  }
  EXPECT_EQ(map.size(), oracle.size());
  for (const std::uint64_t key : oracle) {
    const auto s = make_state(key, key ^ 0x5a5a5a5a);
    const std::uint32_t id = map.find(s);
    ASSERT_NE(id, Map2::kEmpty) << "key " << key;
    EXPECT_EQ(map.at(id), s);
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
    ids.push_back(map.insert_serial(make_state(i, i * 2654435761ull)).first);
  }
  auto m1 = map.quiescent_maintain();
  EXPECT_EQ(m1.pages_sealed, 0u);  // nothing predates the previous quiescent point
  auto m2 = map.quiescent_maintain();
  EXPECT_EQ(m2.pages_sealed, 4u);  // 4 full pages of 1024; the tail stays raw
  EXPECT_EQ(map.store_stats().pages_compressed, 4u);

  const std::size_t resident = map.memory_bytes();
  for (std::uint64_t i = 0; i < kStates; ++i) {
    const auto s = make_state(i, i * 2654435761ull);
    ASSERT_EQ(map.at(ids[i]), s) << "i=" << i;
    ASSERT_EQ(map.find(s), ids[i]) << "i=" << i;
  }
  // Inserting after sealing keeps working (fresh pages are raw).
  const auto [id, fresh] = map.insert_serial(make_state(999999, 1));
  EXPECT_TRUE(fresh);
  EXPECT_EQ(map.at(id), make_state(999999, 1));
  EXPECT_GE(resident, map.store_stats().spill_bytes);  // nothing spilled yet
}

#if TT_LFSIM_HAS_SPILL
// Out-of-core exactness: a byte budget far below the resident set forces
// sealed pages onto disk; every state must still read back exactly and the
// spill counters must say so. TTSTART_SPILL_DIR is honored by the backing
// file (exercised here via TMPDIR fallback — no assertion on the path).
TEST(LockFreeStateIndexMap, SpilledPagesReadBackExactly) {
  constexpr std::uint64_t kStates = 9000;
  Map2 map;
  map.set_mem_budget(1);  // evict every sealed page
  std::vector<std::uint32_t> ids;
  for (std::uint64_t i = 0; i < kStates; ++i) {
    ids.push_back(map.insert_serial(make_state(i * 7, i ^ 0xdeadbeef)).first);
  }
  (void)map.quiescent_maintain();
  const auto m = map.quiescent_maintain();
  EXPECT_EQ(m.pages_sealed, 8u);
  EXPECT_EQ(m.pages_spilled, 8u);
  EXPECT_GT(m.bytes_spilled, 0u);
  const auto st = map.store_stats();
  EXPECT_EQ(st.pages_spilled, 8u);
  EXPECT_EQ(st.spill_bytes, m.bytes_spilled);

  for (std::uint64_t i = 0; i < kStates; ++i) {
    const auto s = make_state(i * 7, i ^ 0xdeadbeef);
    ASSERT_EQ(map.at(ids[i]), s) << "i=" << i;
    ASSERT_EQ(map.find(s), ids[i]) << "i=" << i;
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
      ids.push_back(map.insert_serial(make_state(next, next * 31)).first);
    }
    (void)map.quiescent_maintain();
  }
  (void)map.quiescent_maintain();
  EXPECT_GT(map.store_stats().pages_spilled, 0u);
  for (std::uint64_t i = 0; i < next; ++i) {
    ASSERT_EQ(map.at(ids[i]), make_state(i, i * 31)) << "i=" << i;
  }
}
#endif  // TT_LFSIM_HAS_SPILL

#if TT_LFSIM_HAS_SPILL
// Write-behind semantics: with a budget that is set but not exceeded, sealed
// pages are handed to the I/O thread asynchronously and their bodies stay
// resident (no eviction, no synchronous barrier). Tightening the budget
// later evicts the already-durable pages; every state keeps reading back.
TEST(LockFreeStateIndexMap, WriteBehindEnqueuesWithoutEvictingUnderGenerousBudget) {
  constexpr std::uint64_t kStates = 5000;
  Map2 map;
  map.set_mem_budget(64u << 20);  // generous: never exceeded by this test
  std::vector<std::uint32_t> ids;
  for (std::uint64_t i = 0; i < kStates; ++i) {
    ids.push_back(map.insert_serial(make_state(i * 3, i ^ 0xf00d)).first);
  }
  (void)map.quiescent_maintain();
  const auto m = map.quiescent_maintain();
  EXPECT_EQ(m.pages_sealed, 4u);
  EXPECT_EQ(m.pages_enqueued, 4u);
  auto st = map.store_stats();
  EXPECT_EQ(st.spill_async_pages, 4u);
  EXPECT_EQ(st.spill_sync_waits, 0u);  // under budget: nothing ever blocks
  EXPECT_EQ(st.pages_spilled, 0u);     // bodies stay resident until needed
  for (std::uint64_t i = 0; i < kStates; ++i) {
    ASSERT_EQ(map.at(ids[i]), make_state(i * 3, i ^ 0xf00d)) << "i=" << i;
  }

  map.set_mem_budget(1);  // now critically exceeded: evict durable pages
  (void)map.quiescent_maintain();
  st = map.store_stats();
  EXPECT_EQ(st.pages_spilled, 4u);
  for (std::uint64_t i = 0; i < kStates; ++i) {
    const auto s = make_state(i * 3, i ^ 0xf00d);
    ASSERT_EQ(map.at(ids[i]), s) << "i=" << i;
    ASSERT_EQ(map.find(s), ids[i]) << "i=" << i;
  }
}

// An I/O-thread write failure (injected device-full) must surface as
// StateCapacityError from the next quiescent maintain, not hang the barrier
// or silently drop pages.
TEST(LockFreeStateIndexMap, WriterFailureSurfacesAsStateCapacityErrorAtMaintain) {
  ::setenv("TTSTART_SPILL_FAIL_AFTER", "1", 1);
  Map2 map;
  map.set_mem_budget(1);
  for (std::uint64_t i = 0; i < 5000; ++i) map.insert_serial(make_state(i, i * 17));
  (void)map.quiescent_maintain();  // records the quiescent count, no spill yet
  EXPECT_THROW((void)map.quiescent_maintain(), StateCapacityError);
  ::unsetenv("TTSTART_SPILL_FAIL_AFTER");
}

// The TSan target for the write-behind pipeline: seal + enqueue pages, then
// immediately hammer the store with concurrent find()/at() readers and
// insert() writers while the I/O thread is (potentially) still writing the
// sealed bodies it was handed. Bodies stay resident until a quiescent
// harvest, so readers never observe a tier change mid-flight.
TEST(LockFreeStateIndexMap, ConcurrentFindsRaceInFlightAsyncSpillWrites) {
  constexpr std::uint64_t kOld = 8192;
  constexpr std::uint64_t kNewUniverse = 8000;
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  Map2 map(4);
  map.set_mem_budget(64u << 20);
  map.reserve(kOld + kNewUniverse);
  std::vector<std::uint32_t> old_ids;
  for (std::uint64_t i = 0; i < kOld; ++i) {
    old_ids.push_back(map.insert_serial(make_state(i, i * 2654435761ull)).first);
  }
  (void)map.quiescent_maintain();
  const auto m = map.quiescent_maintain();  // seals + enqueues, returns async
  ASSERT_GT(m.pages_enqueued, 0u);

  std::vector<std::thread> workers;
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&map, &old_ids, t] {
      Rng rng(31 * t + 7);
      for (int i = 0; i < 30000; ++i) {
        const std::uint64_t key = rng.next() % kOld;
        const auto s = make_state(key, key * 2654435761ull);
        if (map.at(old_ids[key]) != s) {
          ADD_FAILURE() << "sealed state " << key << " read back wrong";
          return;
        }
        if (map.find(s) != old_ids[key]) {
          ADD_FAILURE() << "sealed state " << key << " not found";
          return;
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&map, t] {
      Rng rng(41 * t + 11);
      for (int i = 0; i < 30000; ++i) {
        const std::uint64_t key = 1000000 + rng.next() % kNewUniverse;
        map.insert(make_state(key, key ^ 0xabcdef));
      }
    });
  }
  for (auto& w : workers) w.join();

  (void)map.quiescent_maintain();  // harvest the completions
  for (std::uint64_t i = 0; i < kOld; ++i) {
    ASSERT_EQ(map.at(old_ids[i]), make_state(i, i * 2654435761ull)) << "i=" << i;
  }
}
#endif  // TT_LFSIM_HAS_SPILL

// Accounting regression: memory_bytes() must be exactly the sum of the
// breakdown components (the budget enforcement compares memory_bytes()
// against the budget, so a component silently dropping out of the sum would
// under-enforce it).
TEST(LockFreeStateIndexMap, MemoryBytesIsExactlyTheBreakdownSum) {
  Map2 map(4);
  for (std::uint64_t i = 0; i < 6000; ++i) map.insert_serial(make_state(i, i * 31));
  (void)map.quiescent_maintain();
  (void)map.quiescent_maintain();
  const auto b = map.memory_breakdown();
  EXPECT_EQ(map.memory_bytes(),
            b.slots + b.raw_pages + b.sealed_pages + b.bloom + b.spill_writer);
  EXPECT_EQ(map.memory_bytes(), b.total());
  EXPECT_GT(b.slots, 0u);
  EXPECT_GT(b.raw_pages, 0u);
  EXPECT_GT(b.sealed_pages, 0u);
#if TT_LFSIM_HAS_SPILL
  // With a budget, the write-behind machinery itself must be counted.
  Map2 budgeted;
  budgeted.set_mem_budget(1);
  for (std::uint64_t i = 0; i < 3000; ++i) budgeted.insert_serial(make_state(i, i));
  (void)budgeted.quiescent_maintain();
  (void)budgeted.quiescent_maintain();
  const auto bb = budgeted.memory_breakdown();
  EXPECT_GT(bb.spill_writer, 0u);
  EXPECT_EQ(budgeted.memory_bytes(), bb.total());
#endif
}

TEST(LockFreeStateIndexMap, MaxStatesCapThrowsOnBothInsertPaths) {
  Map2 serial;
  serial.set_max_states(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(serial.insert_serial(make_state(i, i)).second);
  }
  // Duplicates stay fine at the cap; the next fresh state throws.
  EXPECT_FALSE(serial.insert_serial(make_state(0, 0)).second);
  EXPECT_THROW(serial.insert_serial(make_state(99, 99)), StateCapacityError);

  Map2 concurrent(4);
  concurrent.reserve(64);
  concurrent.set_max_states(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(concurrent.insert(make_state(i, i)).second);
  }
  EXPECT_FALSE(concurrent.insert(make_state(0, 0)).second);
  EXPECT_THROW(concurrent.insert(make_state(99, 99)), StateCapacityError);
  // The rolled-back claim leaves the table consistent: existing states are
  // still found, the over-cap state is not.
  EXPECT_NE(concurrent.find(make_state(0, 0)), Map2::kEmpty);
  EXPECT_EQ(concurrent.find(make_state(99, 99)), Map2::kEmpty);
  EXPECT_EQ(concurrent.size(), 4u);
}

TEST(LockFreeStateIndexMap, ConcurrentInsertThrowsWhenProbeTableFills) {
  Map2 map(1, 16);  // one shard, tiny table, never grown (no maintain call)
  bool threw = false;
  try {
    // Far more fresh states than the initial table can hold: the concurrent
    // path must fail loudly once every slot is occupied.
    for (std::uint64_t i = 0; i < 100000; ++i) map.insert(make_state(i, i));
  } catch (const StateCapacityError&) {
    threw = true;
  }
  EXPECT_TRUE(threw) << "a full probe table must throw, not spin";
}

TEST(LockFreeStateIndexMap, BloomFrontShortCircuitsAbsentProbes) {
  Map2 map;
  for (std::uint64_t i = 0; i < 4000; ++i) map.insert_serial(make_state(i, i));
  (void)map.quiescent_maintain();  // builds/rebuilds the Bloom front
  const std::size_t before = map.store_stats().bloom_negatives;
  std::size_t misses = 0;
  for (std::uint64_t i = 100000; i < 104000; ++i) {
    if (map.find(make_state(i, i)) == Map2::kEmpty) ++misses;
  }
  EXPECT_EQ(misses, 4000u);
  // Most absent probes never reach the slot table (2 Bloom bits/key, sized
  // toward 16 bits per state => low single-digit % false positives).
  EXPECT_GT(map.store_stats().bloom_negatives - before, 3500u);
  // And presence is unaffected.
  for (std::uint64_t i = 0; i < 4000; i += 97) {
    EXPECT_NE(map.find(make_state(i, i)), Map2::kEmpty);
  }
}

TEST(LockFreeStateIndexMap, MemoryAccountingCoversSlotsArenaAndBloom) {
  Map2 map(16);
  const std::size_t before = map.memory_bytes();
  for (std::uint64_t i = 0; i < 10000; ++i) map.insert_serial(make_state(i, i));
  EXPECT_GT(map.memory_bytes(), before);
  EXPECT_GE(map.memory_bytes(), 10000 * sizeof(Map2::State));
}

TEST(LockFreeStateIndexMap, MaintainGrowsForExpectedHeadroom) {
  Map2 map(4, 64);
  for (std::uint64_t i = 0; i < 50; ++i) map.insert_serial(make_state(i, i));
  const auto m = map.quiescent_maintain(/*expected_new_states=*/100000);
  EXPECT_GT(m.shards_grown, 0u);
  // A full level of concurrent inserts now fits without growth or throw.
  for (std::uint64_t i = 1000; i < 60000; ++i) {
    map.insert(make_state(i, i * 3));
  }
  EXPECT_EQ(map.size(), 50u + 59000u);
}

}  // namespace
}  // namespace tt
