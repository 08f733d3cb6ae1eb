// RecentSeenCache: a direct-mapped duplicate-suppression cache in front of a
// state-interning table.
//
// Exhaustive fault simulation explores ~115 transitions per distinct state
// (paper Fig. 4/6 at fault degree 6), so almost every candidate successor is
// a duplicate of a state interned moments ago. A fixed-size array of
// (hash, id) pairs — indexed by low hash bits, one probe, no chaining —
// short-circuits those duplicates before they reach the interning table,
// whose probe walk touches memory far outside L2 on big runs.
//
// The cache is advisory and never authoritative: `lookup` returns a *hint*
// id whose state the caller must compare against the candidate (two states
// may collide on both the slot index and the full 64-bit hash). A stale or
// colliding entry therefore costs one wasted comparison, never a wrong
// answer, and a hit is trustworthy only because the caller verified it.
// Entries must only ever map a hash to an id already interned in the backing
// table — suppressing a cached duplicate is then observationally identical
// to a full table hit, which is what keeps the parallel engine's
// deterministic id assignment intact (see mc/frontier_search.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace tt {

class RecentSeenCache {
 public:
  static constexpr std::uint32_t kMiss = 0xffffffffu;
  /// 8192 entries x 16 bytes = 128 KiB per instance: sized to sit in L2
  /// alongside the working set of one exploration thread.
  static constexpr std::size_t kDefaultEntries = std::size_t{1} << 13;

  explicit RecentSeenCache(std::size_t entries = kDefaultEntries) {
    std::size_t cap = 1;
    while (cap < entries) cap <<= 1;
    slots_.assign(cap, Entry{0, kMiss});
    mask_ = cap - 1;
  }

  /// Returns the id remembered for `h`, or kMiss. A non-miss result is a
  /// hint: the caller must verify state equality before treating it as a hit.
  [[nodiscard]] std::uint32_t lookup(std::uint64_t h) const noexcept {
    const Entry& e = slots_[h & mask_];
    return (e.id != kMiss && e.hash == h) ? e.id : kMiss;
  }

  /// Remembers `h -> id`, evicting whatever occupied the slot. `id` must
  /// already be interned in the backing table.
  void remember(std::uint64_t h, std::uint32_t id) noexcept {
    slots_[h & mask_] = Entry{h, id};
  }

  void clear() noexcept {
    for (Entry& e : slots_) e = Entry{0, kMiss};
  }

  [[nodiscard]] std::size_t entries() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    std::uint64_t hash;
    std::uint32_t id;
  };

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
};

}  // namespace tt
