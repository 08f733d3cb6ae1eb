// Invariant checking by breadth-first reachability (sequential engine).
//
// This is the explicit-state analogue of SAL's symbolic `sal-smc` invariant
// runs (paper Fig. 4 and Fig. 6(a,c,d)). BFS gives shortest counterexamples,
// which also makes the same routine the *bounded* model checker of the paper
// (§5.2): pass SearchLimits::max_depth to explore only to a given depth, the
// explicit-state counterpart of SAT-based BMC depth bounds.
//
// Parent links are kept per interned state so a violating trace can be
// reconstructed; memory cost is 4 bytes/state on top of the packed state.
// The visit/trace scaffolding lives in explore.hpp, shared with the liveness
// engine and the parallel frontier engine (parallel_reachability.hpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mc/engine.hpp"
#include "mc/explore.hpp"
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/lockfree_state_index_map.hpp"
#include "support/state_index_map.hpp"
#include "support/timer.hpp"

namespace tt::mc {

enum class Verdict {
  kHolds,     ///< property holds on every explored behaviour (exhaustive if no limit hit)
  kViolated,  ///< counterexample found (trace attached)
  kLimit,     ///< a search limit stopped exploration before completion
};

[[nodiscard]] constexpr const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kViolated: return "VIOLATED";
    case Verdict::kLimit: return "limit-reached";
  }
  return "?";
}

template <class TS>
struct InvariantResult {
  Verdict verdict = Verdict::kHolds;
  RunStats stats;
  /// Initial state .. violating state; empty unless verdict == kViolated.
  std::vector<typename TS::State> trace;
};

namespace detail {

/// check_invariant over an explicit store type; see the public wrappers
/// below. `Map` must assign dense ids (StateIndexMap or a single-shard
/// LockFreeStateIndexMap) because BfsCore's bookkeeping is id-indexed.
template <class Map, TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_impl(const TS& ts, Pred&& holds,
                                                       const SearchLimits& limits,
                                                       const StoreOptions& store) {
  using State = typename TS::State;
  Timer timer;
  obs::Span run_span("bfs.sequential");
  InvariantResult<TS> result;
  detail::BfsCore<TS::kWords, Map> bfs(/*track_parents=*/true, limits);
  detail::apply_store_options(bfs.seen, store);

  bool violated = false;
  std::uint32_t bad_idx = 0;
  auto visit = [&](const State& s, std::uint32_t from) {
    if (violated) return;
    // Hash-once contract: this is the only hash_words call a candidate sees;
    // cache probe, table find and insert all reuse it.
    ++result.stats.hash_ops;
    auto [idx, fresh] = bfs.visit(s, from, hash_words(s));
    if (fresh && !holds(s)) {
      violated = true;
      bad_idx = idx;
    }
  };

  ts.initial_states(
      [&](const State& s) { visit(s, detail::BfsCore<TS::kWords, Map>::kNoParent); });
  result.stats.frontier_sizes.push_back(bfs.queue.size());

  std::size_t head = 0;
  std::size_t level_end = bfs.queue.size();  // end of current BFS level
  int depth = 0;
  obs::ManualSpan level_span;
  level_span.begin("bfs.level", depth, "depth");
  while (head < bfs.queue.size() && !violated) {
    if (head == level_end) {
      ++depth;
      const std::size_t frontier_states = bfs.queue.size() - level_end;
      result.stats.frontier_sizes.push_back(frontier_states);
      level_end = bfs.queue.size();
      level_span.end();
      // Quiescent point: seal the closed set behind the new frontier, spill
      // past the memory budget, grow the probe table with headroom.
      detail::maintain_store(bfs.seen, frontier_states * 16);
      level_span.begin("bfs.level", depth, "depth");
      obs::progress_tick({.phase = "bfs",
                          .states = bfs.seen.size(),
                          .transitions = result.stats.transitions,
                          .frontier = bfs.queue.size() - head,
                          .depth = depth,
                          .seconds = timer.seconds()});
      if (depth > limits.max_depth) break;
    }
    if (bfs.seen.size() > limits.max_states) break;
    const State s = bfs.seen.at(bfs.queue[head]);
    const auto from = bfs.queue[head];
    ++head;
    ts.successors(s, [&](const State& t) {
      ++result.stats.transitions;
      visit(t, from);
    });
  }

  level_span.end();
  run_span.set_arg("states", static_cast<std::int64_t>(bfs.seen.size()));
  result.stats.states = bfs.seen.size();
  result.stats.depth = depth;
  result.stats.memory_bytes = bfs.memory_bytes();
  result.stats.cache_hits = bfs.cache_hits;
  result.stats.dup_transitions = bfs.dup_visits;
  detail::copy_store_stats(bfs.seen, result.stats);
  result.stats.seconds = timer.seconds();
  if (violated) {
    result.verdict = Verdict::kViolated;
    result.trace = bfs.trace_to(bad_idx);
  } else if (head < bfs.queue.size()) {
    result.verdict = Verdict::kLimit;
  } else {
    result.verdict = Verdict::kHolds;
  }
  result.stats.exhausted = result.verdict != Verdict::kLimit;
  return result;
}

}  // namespace detail

/// Checks G(holds) over the reachable states of `ts`.
///
/// `holds` is a predicate on packed states. Returns on first violation with a
/// minimal-length trace, or after the frontier empties (kHolds), or when a
/// limit triggers (kLimit).
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant(const TS& ts, Pred&& holds,
                                                  const SearchLimits& limits = {}) {
  return detail::check_invariant_impl<StateIndexMap<TS::kWords>>(ts, std::forward<Pred>(holds),
                                                                 limits, StoreOptions{});
}

/// Store-dispatching sequential invariant check. Both stores intern states
/// in the identical (BFS) order and the violation is picked by that order,
/// so verdicts, counts and traces are bit-identical across stores; the
/// lock-free store additionally seals/compresses the closed set between
/// levels and spills past StoreOptions::mem_budget_bytes.
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_store(const TS& ts, Pred&& holds,
                                                        const SearchLimits& limits,
                                                        const StoreOptions& store) {
  if (store.kind == StoreKind::kLockFree) {
    // One shard: BfsCore needs dense ids for its parent/queue bookkeeping.
    return detail::check_invariant_impl<LockFreeStateIndexMap<TS::kWords>>(
        ts, std::forward<Pred>(holds), limits, store);
  }
  return detail::check_invariant_impl<StateIndexMap<TS::kWords>>(ts, std::forward<Pred>(holds),
                                                                 limits, store);
}

/// Exhaustively counts reachable states (the paper's `sal-smc --count`
/// analogue used for Fig. 5's reachable-state column). Check
/// RunStats::exhausted before reporting the count: a limit-stopped run
/// undercounts (the verdict-level signal Fig. 5 consumers must not drop).
template <TransitionSystem TS>
[[nodiscard]] RunStats count_reachable(const TS& ts, const SearchLimits& limits = {}) {
  auto r = check_invariant(ts, [](const typename TS::State&) { return true; }, limits);
  return r.stats;
}

}  // namespace tt::mc
