// Store plumbing shared by the explicit-state engines (the frontier core and
// the lasso DFS): applying the StoreOptions dials, the between-levels
// maintenance step and copying a store's counters into RunStats. Each is a
// no-op for a store without the corresponding hooks.
#pragma once

#include <cstdint>
#include <string>

#include "mc/engine.hpp"
#include "mc/run_stats.hpp"
#include "obs/trace.hpp"

namespace tt::mc::detail {

/// Applies the StoreOptions dials a store supports; a no-op for stores
/// without the corresponding hooks (ShardedStateIndexMap).
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

}  // namespace tt::mc::detail
