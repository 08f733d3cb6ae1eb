#include "support/sharded_state_index_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <vector>

#include "support/rng.hpp"

namespace tt {
namespace {

using Map2 = ShardedStateIndexMap<2>;

Map2::State make_state(std::uint64_t a, std::uint64_t b) { return {a, b}; }

TEST(ShardedStateIndexMap, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedStateIndexMap<1>(1).shard_count(), 1u);
  EXPECT_EQ(ShardedStateIndexMap<1>(3).shard_count(), 4u);
  EXPECT_EQ(ShardedStateIndexMap<1>(16).shard_count(), 16u);
}

TEST(ShardedStateIndexMap, IdEncodesShardAndLocal) {
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

TEST(ShardedStateIndexMap, MatchesReferenceAcrossGrowth) {
  Map2 map(8, 64);  // tiny initial capacity forces per-shard growth cycles
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

TEST(ShardedStateIndexMap, DeterministicIdsAcrossRuns) {
  std::vector<std::uint32_t> ids[2];
  for (auto& run : ids) {
    Map2 map(16);
    for (std::uint64_t i = 0; i < 3000; ++i) {
      run.push_back(map.insert(make_state(i, ~i)).first);
    }
  }
  EXPECT_EQ(ids[0], ids[1]);
}

TEST(ShardedStateIndexMap, ReservePreventsMidRunRehashEffects) {
  Map2 map(8);
  map.reserve(100000);
  const std::size_t before = map.memory_bytes();
  for (std::uint64_t i = 0; i < 100000; ++i) map.insert(make_state(i, i + 1));
  EXPECT_EQ(map.size(), 100000u);
  // Arena growth may still reallocate, but the probe tables were pre-sized.
  EXPECT_GE(map.memory_bytes(), before);
  for (std::uint64_t i = 0; i < 100000; i += 997) {
    EXPECT_NE(map.find(make_state(i, i + 1)), Map2::kEmpty);
  }
}

// The TSan target, in the frontier engines' drain shape: 8 threads each own 2
// of the 16 shards, walk one shared key sequence and intern only the keys
// their shards own, so every shard has exactly one writer while the others
// are written concurrently. The tiny initial capacity makes shards grow
// inline mid-run. Per the header's contract reads wait for quiescence, so
// each thread stores the ids it gets at its keys' positions and every check
// runs after join, against a serial map fed the same sequence.
TEST(ShardedStateIndexMap, OwnerPartitionedConcurrentInsert) {
  constexpr unsigned kThreads = 8;
  constexpr unsigned kShards = 16;
  constexpr std::uint64_t kUniverse = 20000;
  std::vector<Map2::State> keys;
  Rng rng(7);
  for (int i = 0; i < 120000; ++i) {
    const std::uint64_t key = rng.next() % kUniverse;
    keys.push_back(make_state(key, key * 1315423911ull));
  }

  Map2 serial(kShards, 64);
  std::vector<std::uint32_t> want;
  for (const auto& s : keys) want.push_back(serial.insert(s).first);

  Map2 map(kShards, 64);
  std::vector<std::uint32_t> got(keys.size(), Map2::kEmpty);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (map.shard_of(keys[i]) % kThreads != t) continue;  // shards t and t + 8
        got[i] = map.insert(keys[i]).first;
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(got, want);
  ASSERT_EQ(map.size(), serial.size());
  for (unsigned sh = 0; sh < kShards; ++sh) {
    EXPECT_EQ(map.shard_size(sh), serial.shard_size(sh)) << "shard " << sh;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(map.find(keys[i]), want[i]);
    ASSERT_EQ(map.at(want[i]), keys[i]);
  }
}

// Regression for the shard-window overlap bug: shard routing used to read
// bits 40..47 of the hash (`h >> 40`), which collide with the probe-slot
// index once a shard's table passes 2^24 slots — correlated routing and
// probing degrade the load balance exactly on the biggest runs. The window
// now sits in the top kShardWindowBits of the hash, derived from kMaxShards,
// so it can never overlap the probe bits however large a table grows.
TEST(ShardedStateIndexMap, ShardRoutingUsesOnlyTopHashBits) {
  ShardedStateIndexMap<1> map(256);  // full window: every top-bit pattern maps
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t h = rng.next();
    const unsigned expect = static_cast<unsigned>(h >> kShardHashShift) & 255u;
    ASSERT_EQ(map.shard_of(h), expect);
    // Perturbing the old window (bits 40..47) and every probe-relevant low
    // bit must not move the state to another shard.
    ASSERT_EQ(map.shard_of(h ^ (0xffull << 40)), expect)
        << "routing read the pre-fix bit window";
    ASSERT_EQ(map.shard_of(h ^ 0xffffffffull), expect);
  }
}

TEST(ShardedStateIndexMap, ShardRoutingIsBalancedPastOldWindowBoundary) {
  // Hashes engineered so the OLD window (bits 40..47) is constant: under the
  // pre-fix routing all of them land in shard 0; under top-bit routing they
  // spread. Honest about scale — we cannot afford a >2^24-slot table in a
  // unit test, so this asserts the window choice, which is what the overlap
  // depended on.
  ShardedStateIndexMap<1> map(16);
  std::array<std::size_t, 16> histogram{};
  Rng rng(7);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t h = rng.next() & ~(0xffull << 40);  // old window zeroed
    ++histogram[map.shard_of(h)];
  }
  for (unsigned s = 0; s < 16; ++s) {
    EXPECT_GT(histogram[s], 0u) << "shard " << s << " starved: routing ignored top bits";
  }
}

TEST(ShardedStateIndexMap, PerShardCapThrowsStateCapacityError) {
  // One shard makes max_states_per_shard an exact total cap.
  ShardedStateIndexMap<2> map(1, 64, /*max_states_per_shard=*/4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(map.insert(make_state(i, i)).second);
  }
  EXPECT_FALSE(map.insert(make_state(0, 0)).second);  // duplicates stay fine
  EXPECT_THROW(map.insert(make_state(99, 99)), StateCapacityError);
  EXPECT_THROW(map.insert(make_state(77, 77)), StateCapacityError);
  // The failed inserts must not have corrupted the table.
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.find(make_state(2, 2)), 2u);
  EXPECT_EQ(map.find(make_state(99, 99)), Map2::kEmpty);
}

TEST(ShardedStateIndexMap, MemoryAccountingCoversAllShards) {
  Map2 map(16);
  const std::size_t before = map.memory_bytes();
  for (std::uint64_t i = 0; i < 10000; ++i) map.insert(make_state(i, i));
  EXPECT_GT(map.memory_bytes(), before);
  EXPECT_GE(map.memory_bytes(), 10000 * sizeof(Map2::State));
}

}  // namespace
}  // namespace tt
