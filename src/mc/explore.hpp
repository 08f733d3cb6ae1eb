// RunStats plumbing: sampling a run's counters into the Chrome trace, and the
// store hooks of the frontier core: copying a store's counters into
// RunStats, applying the StoreOptions dials and the between-levels
// maintenance step. Each store hook is a no-op for a store without the
// corresponding member.
#pragma once

#include <string>

#include "mc/engine.hpp"
#include "mc/run_stats.hpp"
#include "obs/trace.hpp"

namespace tt::mc {

/// Samples each counter of the carried sections into the Chrome trace, as a
/// counter track named after its RunStats member. No-op while tracing is off.
inline void trace_counters(const RunStats& st) {
  if (!obs::enabled()) return;
  for_each_counter(st, [](Section, const char* name, auto value) {
    obs::emit_counter(name, static_cast<double>(value));
  });
}

/// Copies the store's cumulative counters into RunStats and marks the store
/// section when the store keeps any (the lock-free store's compression and
/// spill columns); a no-op for the locked store.
template <class Map>
void copy_store_stats(const Map& seen, RunStats& stats) {
  if constexpr (requires { seen.store_stats(); }) {
    const auto st = seen.store_stats();
    stats.pages_compressed = st.pages_compressed;
    stats.spill_bytes = st.spill_bytes;
    stats.spill_sync_waits = st.spill_sync_waits;
    stats.mark(Section::kStore);
  }
}

namespace detail {

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

/// Runs the store's between-levels maintenance (closed-set sealing, spill
/// past the budget) inside an obs span when the store has one. Must be
/// called from the coordinating thread at a quiescent point.
/// While tracing, samples the store section's counters after each step, so
/// a trace shows which levels spilled (the spill_bytes / spill_sync_waits
/// tracks).
template <class Map>
void maintain_store(Map& seen) {
  if constexpr (requires { seen.quiescent_maintain(); }) {
    {
      obs::Span span("store.maintain");
      seen.quiescent_maintain();
    }
    if (obs::enabled()) {
      RunStats st;
      copy_store_stats(seen, st);
      trace_counters(st);
    }
  }
}

}  // namespace detail

}  // namespace tt::mc
