// ShardedStateIndexMap: the central data structure of the explicit-state
// engines. It interns fixed-width packed states (arrays of W u64 words) and
// gives each distinct state a 32-bit id.
//
// The state store is hash-partitioned into S shards (S a power of two, fixed
// at construction). Each shard is an independent open-addressed probe table
// plus state arena on a cache line of its own, with no lock: concurrency
// comes from giving every shard to one writer at a time, never from
// serializing writers inside a shard. A global dense id encodes the
// (shard, local) pair as
//
//     id = (local << log2(S)) | shard
//
// which keeps ids 32-bit, makes at()/parent-link addressing O(1), and gives a
// deterministic total order on ids that the frontier BFS uses to pick the
// minimal (depth, id) violation. With one shard the ids are dense, in
// insertion order: the lasso DFS indexes its side arrays by them.
//
// Capacity: 0xffffffff is reserved as the empty marker, so a shard holds at
// most 2^(32 - log2 S) - 1 states. Exceeding that (or a lower cap passed at
// construction) throws StateCapacityError rather than corrupting the table;
// the engines check a finite SearchLimits::max_states separately, between
// BFS levels or DFS expansions.
//
// Thread-safety contract (owner-exclusive shards):
//   * insert()        — inserts to *different* shards may run concurrently;
//                       each shard admits one writer at a time. The frontier
//                       engines' drain phase gives every shard to exactly one
//                       thread.
//   * find()/at()     — plain reads; safe concurrently with each other and
//                       with inserts to *other* shards. A read concurrent
//                       with an insert to the same shard is a data race — the
//                       level-synchronous engines read only between write
//                       phases.
//   * size()/memory_bytes() — quiescent phases only (they read every shard).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/hash.hpp"

namespace tt {

/// Thrown when a state store would exceed its dense-id space or an
/// explicitly configured cap.
class StateCapacityError : public std::length_error {
 public:
  using std::length_error::length_error;
};

template <std::size_t W>
class ShardedStateIndexMap {
 public:
  using State = std::array<std::uint64_t, W>;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr unsigned kMaxShards = 256;

  /// `max_states_per_shard` lowers the per-shard dense-id cap below the
  /// encoding limit; insert() throws StateCapacityError beyond it. With one
  /// shard this is an exact total cap — the testable overflow path.
  explicit ShardedStateIndexMap(unsigned shard_count = 1,
                                std::size_t initial_capacity = 1 << 12,
                                std::uint64_t max_states_per_shard = ~0ull) {
    TT_REQUIRE(shard_count >= 1 && shard_count <= kMaxShards, "bad shard count");
    unsigned shards = 1;
    shard_bits_ = 0;
    while (shards < shard_count) {
      shards <<= 1;
      ++shard_bits_;
    }
    shard_mask_ = shards - 1;
    // Ids never reach 0xffffffff: cap each shard one short of its local space.
    local_limit_ = (shard_bits_ == 32) ? 0 : ((1ull << (32 - shard_bits_)) - 1);
    if (max_states_per_shard < local_limit_) local_limit_ = max_states_per_shard;
    shards_ = std::make_unique<Shard[]>(shards);
    const std::size_t per_shard = initial_capacity / shards + 64;
    for (unsigned s = 0; s <= shard_mask_; ++s) shards_[s].init(per_shard);
  }

  [[nodiscard]] unsigned shard_count() const noexcept { return shard_mask_ + 1; }

  /// Which shard `s` hashes to. Uses high hash bits, disjoint from the
  /// low bits that pick the probe slot inside the shard.
  [[nodiscard]] unsigned shard_of(const State& s) const noexcept {
    return shard_of(hash_words(s));
  }

  /// Hash-once shard routing; `h` must equal `hash_words(s)`. The window is
  /// derived from kMaxShards and sits at the very top of the hash so it can
  /// never overlap the probe-slot bits, however large a shard table grows.
  [[nodiscard]] unsigned shard_of(std::uint64_t h) const noexcept {
    static_assert((1u << kShardWindowBits) == kMaxShards,
                  "shard window must cover kMaxShards exactly");
    static_assert(kShardHashShift + kShardWindowBits == 64,
                  "shard window must occupy the top hash bits");
    return static_cast<unsigned>(h >> kShardHashShift) & shard_mask_;
  }

  [[nodiscard]] unsigned shard_of_id(std::uint32_t id) const noexcept {
    return id & shard_mask_;
  }
  [[nodiscard]] std::uint32_t local_of_id(std::uint32_t id) const noexcept {
    return id >> shard_bits_;
  }
  /// Inverse of (shard_of_id, local_of_id): reassembles a global id. Used by
  /// engines that build dense side arrays (shard-base prefix sums) over a
  /// frozen map and need to map dense positions back to global ids.
  [[nodiscard]] std::uint32_t id_of(unsigned shard, std::uint32_t local) const noexcept {
    return (local << shard_bits_) | shard;
  }

  /// Interns `s`. Returns {id, fresh}. The caller must be the only writer
  /// of `s`'s shard for the duration of the call.
  std::pair<std::uint32_t, bool> insert(const State& s) { return insert(s, hash_words(s)); }

  /// Hash-once intern; `h` must equal `hash_words(s)`.
  std::pair<std::uint32_t, bool> insert(const State& s, std::uint64_t h) {
    const unsigned idx = shard_of(h);
    Shard& sh = shards_[idx];
    if ((sh.arena.size() + 1) * 10 >= sh.table.size() * 7) rehash(sh, sh.table.size() * 2);
    std::size_t slot = h & sh.mask;
    while (true) {
      const std::uint32_t local = sh.table[slot];
      if (local == kEmpty) {
        if (sh.arena.size() >= local_limit_) {
          throw StateCapacityError("ShardedStateIndexMap: shard dense-id space exhausted");
        }
        const auto fresh_local = static_cast<std::uint32_t>(sh.arena.size());
        sh.arena.push_back(s);
        sh.table[slot] = fresh_local;
        return {(fresh_local << shard_bits_) | idx, true};
      }
      if (sh.arena[local] == s) return {(local << shard_bits_) | idx, false};
      slot = (slot + 1) & sh.mask;
    }
  }

  /// Same as insert(); kept because benchmark/replay.hpp names it.
  std::pair<std::uint32_t, bool> insert_serial(const State& s, std::uint64_t h) {
    return insert(s, h);
  }

  /// Lookup; requires no concurrent insert to this shard.
  [[nodiscard]] std::uint32_t find(const State& s) const { return find(s, hash_words(s)); }

  /// Hash-once lookup; `h` must equal `hash_words(s)`.
  [[nodiscard]] std::uint32_t find(const State& s, std::uint64_t h) const {
    const unsigned idx = shard_of(h);
    const Shard& sh = shards_[idx];
    std::size_t slot = h & sh.mask;
    while (true) {
      const std::uint32_t local = sh.table[slot];
      if (local == kEmpty) return kEmpty;
      if (sh.arena[local] == s) return (local << shard_bits_) | idx;
      slot = (slot + 1) & sh.mask;
    }
  }

  [[nodiscard]] const State& at(std::uint32_t id) const {
    return shards_[id & shard_mask_].arena[id >> shard_bits_];
  }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (unsigned s = 0; s <= shard_mask_; ++s) total += shards_[s].arena.size();
    return total;
  }

  [[nodiscard]] std::size_t shard_size(unsigned shard) const noexcept {
    return shards_[shard].arena.size();
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t total = 0;
    for (unsigned s = 0; s <= shard_mask_; ++s) {
      total += shards_[s].arena.capacity() * sizeof(State) +
               shards_[s].table.capacity() * sizeof(std::uint32_t);
    }
    return total;
  }

  /// Pre-sizes every shard for `total_states` states overall (assumes the
  /// hash spreads evenly; a 25% per-shard margin absorbs skew). Not
  /// thread-safe; call before exploration starts.
  void reserve(std::size_t total_states) {
    const std::size_t per_shard = total_states / shard_count() + total_states / (4 * shard_count()) + 64;
    for (unsigned s = 0; s <= shard_mask_; ++s) {
      Shard& sh = shards_[s];
      sh.arena.reserve(per_shard < local_limit_ ? per_shard : local_limit_);
      std::size_t cap = sh.table.size();
      while ((per_shard + 1) * 10 >= cap * 7) cap <<= 1;
      if (cap != sh.table.size()) rehash(sh, cap);
    }
  }

 private:
  // One cache line (at least) per shard, so owners of neighbouring shards
  // never write the same line.
  struct alignas(64) Shard {
    std::vector<State> arena;
    std::vector<std::uint32_t> table;  // local ids, open addressing
    std::size_t mask = 0;

    void init(std::size_t initial_capacity) {
      std::size_t cap = 64;
      while (cap < initial_capacity) cap <<= 1;
      table.assign(cap, kEmpty);
      mask = cap - 1;
    }
  };

  static void rehash(Shard& sh, std::size_t new_cap) {
    std::vector<std::uint32_t> bigger(new_cap, kEmpty);
    const std::size_t mask = bigger.size() - 1;
    for (std::uint32_t local = 0; local < sh.arena.size(); ++local) {
      std::size_t slot = hash_words(sh.arena[local]) & mask;
      while (bigger[slot] != kEmpty) slot = (slot + 1) & mask;
      bigger[slot] = local;
    }
    sh.table = std::move(bigger);
    sh.mask = mask;
  }

  std::unique_ptr<Shard[]> shards_;
  unsigned shard_bits_ = 0;
  unsigned shard_mask_ = 0;
  std::uint64_t local_limit_ = 0;
};

}  // namespace tt
