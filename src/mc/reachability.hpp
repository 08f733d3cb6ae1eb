// Invariant checking by breadth-first reachability, on the frontier core.
//
// This is the explicit-state analogue of SAL's symbolic `sal-smc` invariant
// runs (paper Fig. 4 and Fig. 6(a,c,d)). BFS gives shortest counterexamples,
// which also makes the same routine the *bounded* model checker of the paper
// (§5.2): pass SearchLimits::max_depth to explore only to a given depth, the
// explicit-state counterpart of SAT-based BMC depth bounds.
//
// The level loop, the sharded store, the worker pool and the determinism
// guarantee live in frontier_search.hpp; this engine adds the property
// check: a fresh state violating the invariant flags a witness, the search
// stops after that level and the minimal violating id is reconstructed into
// a BFS-minimal trace, identical for every thread count. The `seq` engine is
// this engine at one thread.
//
// Requirements on the model: TS::successors and the property predicate must
// be safe to call concurrently on a const system (all bundled models are
// immutable after construction).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mc/engine.hpp"
#include "mc/frontier_search.hpp"
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"

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

/// FrontierSearch hooks for G(holds): every fresh state violating `holds`
/// (initial states included) is a witness.
template <class State, class Pred>
struct InvariantHooks : FrontierHooks {
  static constexpr FrontierNames kNames{"bfs.expand", "bfs.drain", "bfs.level", "bfs"};
  Pred& holds;
  bool interned(Local&, unsigned /*shard*/, std::uint32_t /*id*/, bool is_new, const State& s,
                std::uint32_t /*parent*/, const Tag&) const {
    return is_new && !holds(s);
  }
};

template <class Map, TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_impl(const TS& ts, Pred& holds,
                                                       const EngineOptions& opts) {
  using Hooks = InvariantHooks<typename TS::State, Pred>;
  obs::Span run_span("bfs.frontier");
  InvariantResult<TS> result;
  Hooks hooks{{}, holds};
  FrontierSearch<Map, TS, Hooks> search(ts, hooks, opts, result.stats);
  search.run();
  run_span.set_arg("states", static_cast<std::int64_t>(search.seen().size()));
  search.finish_stats();
  if (search.witness() != Map::kEmpty) {
    result.verdict = Verdict::kViolated;
    result.trace = search.trace_to(search.witness());
    // The search stops in the level that expanded the witness's parent; the
    // run's depth is the witness's own level.
    result.stats.depth = static_cast<int>(result.trace.size()) - 1;
  } else {
    result.verdict = search.limit_hit() ? Verdict::kLimit : Verdict::kHolds;
  }
  result.stats.exhausted = result.verdict != Verdict::kLimit;
  return result;
}

}  // namespace detail

/// G(holds) over the reachable states of `ts` on `opts.threads` threads.
/// On violation the trace is shortest (BFS) and identical for every thread
/// count — and for either store (EngineOptions::store picks the
/// owner-sharded or the lock-free table; both assign the same ids in the
/// same order). Search limits are enforced at level granularity, and a
/// violation stops the search once its level is complete.
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_parallel(const TS& ts, Pred&& holds,
                                                           const EngineOptions& opts = {}) {
  return detail::with_frontier_store<TS::kWords>(opts.store, [&]<class Map>() {
    return detail::check_invariant_impl<Map>(ts, holds, opts);
  });
}

/// Reachable-state count on `opts.threads` threads. Check
/// RunStats::exhausted before trusting the count.
template <TransitionSystem TS>
[[nodiscard]] RunStats count_reachable_parallel(const TS& ts, const EngineOptions& opts = {}) {
  auto r = check_invariant_parallel(ts, [](const typename TS::State&) { return true; }, opts);
  return r.stats;
}

/// Checks G(holds) over the reachable states of `ts` on one thread.
///
/// `holds` is a predicate on packed states. Returns a minimal-length trace
/// once the level holding the first violation is complete, or after the
/// frontier empties (kHolds), or when a limit triggers (kLimit).
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant(const TS& ts, Pred&& holds,
                                                  const SearchLimits& limits = {}) {
  EngineOptions opts(limits);
  opts.threads = 1;
  return check_invariant_parallel(ts, std::forward<Pred>(holds), opts);
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

/// Engine-dispatching invariant check: kAuto and kParallel run the frontier
/// engine on `opts.threads` threads, kSequential on one. kSymbolic is
/// dispatched by callers that include mc/symbolic_reachability.hpp
/// (core::verify does); here it is rejected so a missing dispatch shows up
/// as an assertion, not a silent engine swap.
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_with(EngineKind kind, const TS& ts,
                                                       Pred&& holds,
                                                       const EngineOptions& opts = {}) {
  TT_ASSERT(kind != EngineKind::kSymbolic);
  EngineOptions run_opts = opts;
  if (kind == EngineKind::kSequential) run_opts.threads = 1;
  return check_invariant_parallel(ts, std::forward<Pred>(holds), run_opts);
}

}  // namespace tt::mc
