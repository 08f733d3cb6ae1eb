// The one-shard ShardedStateIndexMap: the store of the lasso DFS and the
// AG AF root walk, which rely on dense ids in insertion order (a fresh
// state's id is the number of states interned before it).
#include "support/sharded_state_index_map.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "support/rng.hpp"

namespace tt {
namespace {

using Map2 = ShardedStateIndexMap<2>;

Map2::State make_state(std::uint64_t a, std::uint64_t b) { return {a, b}; }

TEST(StateIndexMap, InsertAssignsDenseIndicesInOrder) {
  Map2 map(1);
  auto [i0, fresh0] = map.insert_serial(make_state(1, 2));
  auto [i1, fresh1] = map.insert_serial(make_state(3, 4));
  auto [i2, fresh2] = map.insert_serial(make_state(1, 2));
  EXPECT_TRUE(fresh0);
  EXPECT_TRUE(fresh1);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(i2, 0u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(1), make_state(3, 4));
}

TEST(StateIndexMap, FindAbsentReturnsEmpty) {
  Map2 map(1);
  EXPECT_EQ(map.find(make_state(9, 9)), Map2::kEmpty);
  map.insert_serial(make_state(9, 9));
  EXPECT_EQ(map.find(make_state(9, 9)), 0u);
  EXPECT_EQ(map.find(make_state(9, 8)), Map2::kEmpty);
}

TEST(StateIndexMap, GrowthPreservesContentsAgainstReference) {
  Map2 map(1, 64);  // force several growth cycles
  std::unordered_set<std::uint64_t> reference;
  Rng rng(99);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t key = rng.next() % 50000;  // plenty of duplicates
    const auto s = make_state(key, key ^ 0xabcdef);
    const bool fresh_ref = reference.insert(key).second;
    const auto [idx, fresh] = map.insert_serial(s);
    ASSERT_EQ(fresh, fresh_ref);
    ASSERT_EQ(map.at(idx), s);
    if (fresh) {
      ASSERT_EQ(idx, reference.size() - 1);
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  for (std::uint64_t key : reference) {
    EXPECT_NE(map.find(make_state(key, key ^ 0xabcdef)), Map2::kEmpty);
  }
}

TEST(StateIndexMap, ReservePresizesForBoundedRuns) {
  Map2 map(1, 64);
  map.reserve(50000);
  const std::size_t reserved = map.memory_bytes();
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const auto [idx, fresh] = map.insert_serial(make_state(i, i * 3));
    ASSERT_TRUE(fresh);
    ASSERT_EQ(idx, i);
  }
  // The probe table was pre-sized: no rehash means the footprint only grew
  // by (possible) arena reallocation, and all lookups still resolve.
  EXPECT_GE(map.memory_bytes(), reserved);
  EXPECT_EQ(map.find(make_state(49999, 49999 * 3)), 49999u);
}

TEST(StateIndexMap, InsertBeyondCapThrowsStateCapacityError) {
  // The dense-id overflow path at 2^32-1 states is unreachable in a unit
  // test; the configurable cap exercises the same checked branch.
  Map2 map(1, 64, /*max_states_per_shard=*/4);
  for (std::uint64_t i = 0; i < 4; ++i) map.insert_serial(make_state(i, i));
  EXPECT_EQ(map.size(), 4u);
  // Duplicates of interned states are still fine at the cap.
  EXPECT_FALSE(map.insert_serial(make_state(0, 0)).second);
  EXPECT_THROW(map.insert_serial(make_state(99, 99)), StateCapacityError);
  // The failed insert must not have corrupted the table.
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.find(make_state(2, 2)), 2u);
  EXPECT_EQ(map.find(make_state(99, 99)), Map2::kEmpty);
}

TEST(StateIndexMap, ReserveRespectsCap) {
  // Reserving past the cap must neither lift the cap nor disturb the dense
  // ids of the states below it.
  Map2 map(1, 64, /*max_states_per_shard=*/100);
  map.reserve(1 << 20);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto [idx, fresh] = map.insert_serial(make_state(i, i));
    ASSERT_TRUE(fresh);
    ASSERT_EQ(idx, i);
  }
  EXPECT_THROW(map.insert_serial(make_state(1000, 1000)), StateCapacityError);
}

TEST(StateIndexMap, MemoryAccounting) {
  Map2 map(1);
  const std::size_t before = map.memory_bytes();
  for (std::uint64_t i = 0; i < 10000; ++i) map.insert_serial(make_state(i, i));
  EXPECT_GT(map.memory_bytes(), before);
  EXPECT_GE(map.memory_bytes(), 10000 * sizeof(Map2::State));
}

}  // namespace
}  // namespace tt
