// Shared explicit-state exploration scaffolding: the visit bookkeeping
// (intern, parent link, queue position) and counterexample reconstruction
// used by the sequential invariant engine, the liveness engine's
// reachable-set materialization, and the parallel frontier engine. One
// implementation instead of three keeps trace semantics (initial state ..
// violating state, parent-minimal) identical across engines.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/engine.hpp"
#include "mc/run_stats.hpp"
#include "obs/trace.hpp"
#include "support/hash.hpp"
#include "support/recent_cache.hpp"
#include "support/state_index_map.hpp"

namespace tt::mc::detail {

/// Applies the StoreOptions dials a store supports; a no-op for stores
/// without the corresponding hooks (StateIndexMap, ShardedStateIndexMap).
/// Must run before the first insert: the spill directory is a pre-insert
/// dial.
template <class Map>
void apply_store_options(Map& seen, const StoreOptions& store) {
  if constexpr (requires { seen.set_mem_budget(std::size_t{}); }) {
    seen.set_mem_budget(store.mem_budget_bytes);
  }
  if constexpr (requires { seen.set_spill_dir(std::string{}); }) {
    if (!store.spill_dir.empty()) seen.set_spill_dir(store.spill_dir);
  }
}

/// Runs the store's between-levels maintenance (probe-table growth, closed-
/// set sealing, write-behind spill) inside an obs span when the store has
/// one. Must be called from the coordinating thread at a quiescent point;
/// `expected_new` is a headroom hint for the next level's fresh states.
/// Emits the `store.spill_async` / `store.sync_wait` counter tracks so a
/// trace shows when the pipeline went asynchronous vs. when it stalled.
template <class Map>
void maintain_store(Map& seen, std::size_t expected_new) {
  if constexpr (requires { seen.quiescent_maintain(std::size_t{}); }) {
    obs::Span span("store.maintain");
    const auto ms = seen.quiescent_maintain(expected_new);
    if (ms.pages_sealed != 0) {
      span.set_arg("pages_sealed", static_cast<std::int64_t>(ms.pages_sealed));
    }
    if (ms.pages_spilled != 0) {
      span.set_arg("pages_spilled", static_cast<std::int64_t>(ms.pages_spilled));
      span.set_arg("bytes_spilled", static_cast<std::int64_t>(ms.bytes_spilled));
    }
    if constexpr (requires { ms.pages_enqueued; }) {
      if (ms.pages_enqueued != 0) {
        span.set_arg("spill_async_pages", static_cast<std::int64_t>(ms.pages_enqueued));
        obs::emit_counter("store.spill_async", static_cast<double>(ms.pages_enqueued));
      }
      if (ms.sync_waits != 0) {
        span.set_arg("spill_sync_waits", static_cast<std::int64_t>(ms.sync_waits));
        obs::emit_counter("store.sync_wait", static_cast<double>(ms.sync_waits));
      }
    }
  }
}

/// Copies the store's cumulative counters into RunStats when it keeps any
/// (the lock-free store's cas_retries / compression / spill / Bloom columns
/// and the out-of-core pipeline's async/sync-wait counters).
template <class Map>
void copy_store_stats(const Map& seen, RunStats& stats) {
  if constexpr (requires { seen.store_stats(); }) {
    const auto st = seen.store_stats();
    stats.cas_retries = st.cas_retries;
    stats.pages_compressed = st.pages_compressed;
    stats.spill_bytes = st.spill_bytes;
    stats.bloom_negatives = st.bloom_negatives;
    if constexpr (requires { st.spill_async_pages; }) {
      stats.spill_sync_waits = st.spill_sync_waits;
      stats.spill_async_pages = st.spill_async_pages;
    }
  }
}

/// Sequential BFS working set: interned states, optional parent links and
/// the dense-id queue. `visit` is the single entry point engines feed states
/// through (initial and successor alike).
///
/// `Map` is any store with the StateIndexMap interface that assigns *dense*
/// ids in insertion order — StateIndexMap itself, or a single-shard
/// LockFreeStateIndexMap (whose serial-insert path is picked automatically).
/// Parent links and the queue are indexed by those dense ids.
template <std::size_t W, class Map = StateIndexMap<W>>
struct BfsCore {
  using State = std::array<std::uint64_t, W>;
  static constexpr std::uint32_t kNoParent = Map::kEmpty;

  explicit BfsCore(bool track_parents = true, const SearchLimits& limits = {})
      : parents(track_parents) {
    // A bounded run pre-sizes the store so the cap is hit before the
    // allocator is (and no rehash happens mid-search).
    if (limits.states_bounded()) {
      seen.reserve(limits.max_states + limits.max_states / 8 + 1);
    }
  }

  /// Interns `s` with BFS parent `from`; enqueues when fresh.
  /// Returns {dense id, fresh}.
  std::pair<std::uint32_t, bool> visit(const State& s, std::uint32_t from) {
    return visit(s, from, hash_words(s));
  }

  /// Hash-once visit: `h` must equal `hash_words(s)`. Probes the
  /// recently-seen cache first — a verified hit short-circuits the interning
  /// table entirely (the dominant case at high fault degrees, where ~115
  /// transitions per state are duplicates).
  std::pair<std::uint32_t, bool> visit(const State& s, std::uint32_t from, std::uint64_t h) {
    const std::uint32_t hint = cache.lookup(h);
    if (hint != RecentSeenCache::kMiss && seen.at(hint) == s) {
      ++cache_hits;
      ++dup_visits;
      return {hint, false};
    }
    auto [idx, fresh] = [&] {
      // BfsCore is strictly single-threaded: take the serial insert path
      // (inline growth, relaxed atomics) when the store distinguishes one.
      if constexpr (requires { seen.insert_serial(s, h); }) {
        return seen.insert_serial(s, h);
      } else {
        return seen.insert(s, h);
      }
    }();
    cache.remember(h, idx);
    if (fresh) {
      if (parents) parent.push_back(from);
      queue.push_back(idx);
    } else {
      ++dup_visits;
    }
    return {idx, fresh};
  }

  /// Reconstructs initial..`bad` by walking parent links.
  [[nodiscard]] std::vector<State> trace_to(std::uint32_t bad) const {
    std::vector<State> rev;
    for (std::uint32_t at = bad; at != kNoParent; at = parent[at]) rev.push_back(seen.at(at));
    return {rev.rbegin(), rev.rend()};
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return seen.memory_bytes() + parent.capacity() * sizeof(std::uint32_t) +
           queue.capacity() * sizeof(std::uint32_t) + cache.memory_bytes();
  }

  Map seen;
  RecentSeenCache cache;
  std::vector<std::uint32_t> parent;  // dense id -> predecessor id (if `parents`)
  std::vector<std::uint32_t> queue;   // dense ids in BFS order
  std::size_t cache_hits = 0;  ///< duplicates killed by the recently-seen cache
  std::size_t dup_visits = 0;  ///< visits of already-interned states
  bool parents = true;
};

/// Parent-walking trace reconstruction over engine-specific id spaces (the
/// parallel engine's ids are (shard, local) pairs, so it supplies its own
/// accessors). `state_of(id)` yields the packed state, `parent_of(id)` the
/// predecessor id or `none`.
template <class State, class StateOf, class ParentOf>
[[nodiscard]] std::vector<State> reconstruct_trace(std::uint32_t bad, std::uint32_t none,
                                                   StateOf&& state_of, ParentOf&& parent_of) {
  std::vector<State> rev;
  for (std::uint32_t at = bad; at != none; at = parent_of(at)) rev.push_back(state_of(at));
  return {rev.rbegin(), rev.rend()};
}

}  // namespace tt::mc::detail
