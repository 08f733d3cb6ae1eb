// Level-synchronous parallel BFS over a TransitionSystem — the parallel
// frontier engine behind the invariant lemmas. The level loop, the sharded
// store, the worker pool and the determinism guarantee live in
// frontier_search.hpp; this engine adds the property check: a fresh state
// violating the invariant flags a witness, the search stops after that level
// and the minimal violating id is reconstructed into a BFS-minimal trace,
// identical for every thread count.
//
// Requirements on the model: TS::successors and the property predicate must
// be safe to call concurrently on a const system (all bundled models are
// immutable after construction).
#pragma once

#include <cstdint>
#include <utility>

#include "mc/engine.hpp"
#include "mc/frontier_search.hpp"
#include "mc/reachability.hpp"
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"

namespace tt::mc {

namespace detail {

/// FrontierSearch hooks for G(holds): every fresh state violating `holds`
/// (initial states included) is a witness.
template <class State, class Pred>
struct InvariantHooks : FrontierHooks {
  static constexpr FrontierNames kNames{"bfs.expand", "bfs.drain", "bfs.level", "par-bfs"};
  Pred& holds;
  bool interned(Local&, unsigned /*shard*/, std::uint32_t /*id*/, bool is_new, const State& s,
                std::uint32_t /*parent*/, const Tag&) const {
    return is_new && !holds(s);
  }
};

template <class Map, TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_parallel_impl(const TS& ts, Pred& holds,
                                                                const EngineOptions& opts) {
  using Hooks = InvariantHooks<typename TS::State, Pred>;
  obs::Span run_span("bfs.parallel");
  InvariantResult<TS> result;
  Hooks hooks{{}, holds};
  FrontierSearch<Map, TS, Hooks> search(ts, hooks, opts, result.stats);
  search.run();
  run_span.set_arg("states", static_cast<std::int64_t>(search.seen().size()));
  search.finish_stats();
  if (search.witness() != Map::kEmpty) {
    result.verdict = Verdict::kViolated;
    result.trace = search.trace_to(search.witness());
  } else {
    result.verdict = search.limit_hit() ? Verdict::kLimit : Verdict::kHolds;
  }
  result.stats.exhausted = result.verdict != Verdict::kLimit;
  return result;
}

}  // namespace detail

/// Parallel G(holds) check; the frontier-parallel counterpart of
/// check_invariant. Verdicts agree with the sequential engine; on violation
/// the trace is shortest (BFS) and identical for every thread count — and
/// for either store (EngineOptions::store picks the owner-sharded or the
/// lock-free table; both assign the same ids in the same order). Search
/// limits are enforced at level granularity (the sequential engine checks
/// mid-level), so limit-stopped runs may intern slightly more states.
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_parallel(const TS& ts, Pred&& holds,
                                                           const EngineOptions& opts = {}) {
  return detail::with_frontier_store<TS::kWords>(opts.store, [&]<class Map>() {
    return detail::check_invariant_parallel_impl<Map>(ts, holds, opts);
  });
}

/// Parallel reachable-state count; see count_reachable. Check
/// RunStats::exhausted before trusting the count.
template <TransitionSystem TS>
[[nodiscard]] RunStats count_reachable_parallel(const TS& ts, const EngineOptions& opts = {}) {
  auto r = check_invariant_parallel(ts, [](const typename TS::State&) { return true; }, opts);
  return r.stats;
}

/// Engine-dispatching invariant check: kAuto resolves to the parallel
/// frontier engine (invariants are its home turf); kSequential forces the
/// single-threaded BFS. kSymbolic is dispatched by callers that include
/// mc/symbolic_reachability.hpp (core::verify does); here it is rejected so
/// a missing dispatch shows up as an assertion, not a silent engine swap.
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_with(EngineKind kind, const TS& ts,
                                                       Pred&& holds,
                                                       const EngineOptions& opts = {}) {
  TT_ASSERT(kind != EngineKind::kSymbolic);
  auto r = kind == EngineKind::kSequential
               ? check_invariant_store(ts, std::forward<Pred>(holds), opts.limits, opts.store)
               : check_invariant_parallel(ts, std::forward<Pred>(holds), opts);
  if (opts.finalize_stats) opts.finalize_stats(r.stats);
  return r;
}

}  // namespace tt::mc
