// Invariant checking with a BDD-compressed reached set (the `sym` engine).
//
// The explicit engines intern every packed state into a hash table; here the
// reached set is a single BDD over the model's state bits (bit i of the
// packed words is BDD variable i, the support::BitWriter layout). Membership
// is a complement-edge walk (Manager::eval_bits), insertion disjoins the
// state's minterm, and the exact reachable count falls out of BDD model
// counting rather than a table size — which is how the golden-count tests
// cross-check the symbolic engine against the explicit ones bit-for-bit.
//
// Successors are still enumerated explicitly through the TransitionSystem
// callbacks (the tta::Cluster two-phase semantics has no small relational
// encoding; see DESIGN.md §3.3), so this engine trades the interning table
// for shared BDD structure while keeping trace reconstruction: the BFS
// queue doubles as the parent forest. The fully relational image pipeline
// (partitioned and_exists) lives in bdd::SymbolicEngine for kernel::System
// models.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "mc/reachability.hpp"
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace tt::mc {

/// Checks G(holds) over the reachable states of `ts`, keeping the reached
/// set as a BDD. Requires `ts.state_bits()` (every packed model has it).
/// Single-threaded; max_states is checked before each expansion and
/// max_depth per level (the frontier engine checks both per level).
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_symbolic(
    const TS& ts, Pred&& holds, const SearchLimits& limits = {}) {
  using State = typename TS::State;
  Timer timer;
  obs::Span run_span("bfs.symbolic");
  InvariantResult<TS> result;
  result.stats.mark(Section::kBdd);

  const int bits = ts.state_bits();
  bdd::Manager mgr(bits);
  bdd::NodeId reached = bdd::kFalse;
  mgr.ref(reached);

  constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::vector<State> queue;
  std::vector<std::uint32_t> parent;

  bool violated = false;
  std::uint32_t bad_idx = 0;
  auto visit = [&](const State& s, std::uint32_t from) {
    if (violated) return;
    if (mgr.eval_bits(reached, s.data())) {
      ++result.stats.dup_transitions;
      return;
    }
    const bdd::NodeId with_s = mgr.lor(reached, mgr.minterm_bits(s.data(), bits));
    mgr.ref(with_s);
    mgr.deref(reached);
    reached = with_s;
    queue.push_back(s);
    parent.push_back(from);
    if (!holds(s)) {
      violated = true;
      bad_idx = static_cast<std::uint32_t>(queue.size() - 1);
    }
  };

  ts.initial_states([&](const State& s) { visit(s, kNoParent); });
  result.stats.frontier_sizes.push_back(queue.size());

  std::size_t head = 0;
  std::size_t level_end = queue.size();
  int depth = 0;
  obs::ManualSpan level_span;
  level_span.begin("sym.level", depth, "depth");
  while (head < queue.size() && !violated) {
    if (head == level_end) {
      ++depth;
      result.stats.frontier_sizes.push_back(queue.size() - level_end);
      level_end = queue.size();
      level_span.end();
      level_span.begin("sym.level", depth, "depth");
      obs::progress_tick({.phase = "sym",
                          .states = queue.size(),
                          .transitions = result.stats.transitions,
                          .frontier = queue.size() - head,
                          .depth = depth,
                          .seconds = timer.seconds(),
                          .live_bdd_nodes = mgr.node_count()});
      if (depth > limits.max_depth) break;
    }
    if (queue.size() > limits.max_states) break;
    const State s = queue[head];
    const auto from = static_cast<std::uint32_t>(head);
    ++head;
    ts.successors(s, [&](const State& t) {
      ++result.stats.transitions;
      visit(t, from);
    });
  }

  level_span.end();
  run_span.set_arg("states", static_cast<std::int64_t>(queue.size()));
  // The BDD is the membership authority: report its exact model count as
  // the state count (it must agree with the queue, which saw each state
  // exactly once).
  const BigUint exact = mgr.sat_count_exact(reached);
  TT_ASSERT(exact.fits_u64() && exact.to_u64() == queue.size());
  result.stats.states = exact.to_u64();
  result.stats.depth = depth;
  const bdd::ManagerStats ms = mgr.stats();
  result.stats.memory_bytes = ms.memory_bytes + queue.size() * sizeof(State) +
                              parent.size() * sizeof(std::uint32_t);
  result.stats.bdd_peak_live_nodes = ms.peak_live_nodes;
  result.stats.bdd_gc_collections = ms.gc_runs;
  result.stats.bdd_unique_hit_rate = ms.unique_hit_rate();
  result.stats.bdd_op_cache_hit_rate = ms.cache_hit_rate();
  result.stats.bdd_iterations = depth;
  result.stats.seconds = timer.seconds();

  if (violated) {
    result.verdict = Verdict::kViolated;
    for (std::uint32_t i = bad_idx; i != kNoParent; i = parent[i]) {
      result.trace.push_back(queue[i]);
    }
    std::reverse(result.trace.begin(), result.trace.end());
  } else if (head < queue.size()) {
    result.verdict = Verdict::kLimit;
  } else {
    result.verdict = Verdict::kHolds;
  }
  result.stats.exhausted = result.verdict != Verdict::kLimit;
  mgr.deref(reached);
  return result;
}

/// Exhaustive reachable-state count via the BDD-set engine (the symbolic
/// leg of the Fig. 5 reachable-state columns).
template <TransitionSystem TS>
[[nodiscard]] RunStats count_reachable_symbolic(const TS& ts,
                                               const SearchLimits& limits = {}) {
  auto r = check_invariant_symbolic(
      ts, [](const typename TS::State&) { return true; }, limits);
  return r.stats;
}

}  // namespace tt::mc
