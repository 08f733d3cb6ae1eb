// Parallel OWCTY-style liveness engine: goal-free cycle detection on the
// level-synchronous frontier machinery, so the liveness lemmas scale with
// cores like the invariant lemmas do (DESIGN.md §3.4).
//
// Our liveness property class (F(goal), AG AF(goal), no fairness) reduces to
// goal-free cycle detection: the property is violated iff the goal-free
// restriction of the relevant graph contains a cycle — or a goal-free
// deadlock. That reduction admits a breadth-first, embarrassingly parallel
// algorithm where the sequential engine's colored DFS does not:
//
//   phase A  materialize the goal-free subgraph with the level-synchronous
//            frontier core (frontier_search.hpp — the same hash-once
//            interning, caches, store, pool and level loop as the parallel
//            invariant engine), whose hooks additionally capture every
//            goal-free edge into per-thread buffers. For F(goal) the search
//            never leaves the goal-free region (goal successors are counted
//            but neither hashed nor interned); for AG AF(goal) the whole
//            reachable graph is materialized and the edges are restricted to
//            goal-free endpoints. Goal-free states without any successor are
//            detected here (deadlock verdict, minimal (level, id) witness).
//   phase B  compact the sharded ids into a dense [0, N) space (shard-base
//            prefix sums), build CSR successor/predecessor arrays by
//            counting sort, then iteratively trim: every state with zero
//            remaining goal-free out-degree is deleted, decrementing its
//            predecessors' atomic out-degree counters; states hitting zero
//            form the next round's work list (OWCTY's "catch them young").
//            At the fixpoint every surviving state has an alive successor,
//            so the residue is nonempty iff a goal-free cycle exists.
//   phase C  on a nonempty residue, extract a lasso: start from the
//            minimal-dense-id alive state, repeatedly walk to the
//            minimal-dense-id alive successor until a state repeats (the
//            cycle), and prepend the BFS-parent stem from an initial state.
//
// Determinism: phase A inherits the frontier core's guarantee (ids, parent
// links and per-level content are identical at any thread count). The edge
// multiset is determined by the expansion order, which is deterministic;
// only the order in which threads buffered the edges varies, and every
// consumer is order-insensitive (counting-sorted CSR degrees, atomic
// decrement counts, min-id selections). Trimming deletes, per round, the
// set of all alive zero-out-degree states — a graph property — so the round
// count, the residue and the extracted lasso are bit-identical for every
// thread count and chunk geometry.
//
// Verdict agreement with the sequential engine: verdicts match on every
// input with a single violation class. When a graph contains both a
// goal-free deadlock and a goal-free cycle, this engine deterministically
// reports the deadlock (found in phase A); the sequential DFS reports
// whichever its traversal order meets first. Counterexample *shape* differs
// from the DFS lasso (both replay through the model — tests/mc/
// lasso_replay_test.cpp); limit enforcement is per-level like the parallel
// invariant engine.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mc/engine.hpp"
#include "mc/frontier_search.hpp"
#include "mc/liveness.hpp"
#include "mc/transition_system.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"

namespace tt::mc {

namespace detail {

[[nodiscard]] constexpr std::uint64_t pack_edge(std::uint32_t from, std::uint32_t to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// FrontierSearch hooks of OWCTY's phase A. `all` selects the property:
/// false = F(goal) (goal-free region only), true = AG AF(goal) (full
/// reachable graph, edges restricted to goal-free endpoints).
template <class State, class Pred>
struct OwctyHooks {
  static constexpr FrontierNames kNames{"owcty.expand", "owcty.drain", "owcty.level",
                                        "owcty-bfs"};
  struct Tag {
    bool src_gf = false;   ///< expanding state is goal-free (edge eligibility)
    bool is_goal = false;  ///< AG AF only; F-mode candidates are goal-free
  };
  struct Local {
    std::vector<std::uint64_t> edges;     ///< goal-free edges, (from << 32) | to
    std::vector<std::uint32_t> trim_out;  ///< phase B: states newly caught this round
  };

  Pred& goal;
  bool all;
  std::array<std::vector<std::uint8_t>, kFrontierShards> goal_mark{};  ///< AG AF: goal states

  template <class Map>
  Tag source(const Map& seen, std::uint32_t from) const {
    return {!all || goal_mark[seen.shard_of_id(from)][seen.local_of_id(from)] == 0, false};
  }
  bool admit(const State& t, Tag& tag) const {
    tag.is_goal = goal(t);
    // F(goal): the goal region is never entered — goal successors are
    // enumerated but neither hashed nor interned, exactly like the
    // sequential lasso search (hash-once parity).
    return all || !tag.is_goal;
  }
  void known(Local& l, std::uint32_t from, std::uint32_t id, const Tag& tag) const {
    if (tag.src_gf && !tag.is_goal) l.edges.push_back(pack_edge(from, id));
  }
  bool expanded(Local&, std::uint32_t /*from*/, const Tag& src, std::size_t emitted) const {
    // A goal-free state without any successor: the run halts before the
    // goal — a liveness violation regardless of cycles.
    return emitted == 0 && src.src_gf;
  }
  bool interned(Local& l, unsigned shard, std::uint32_t id, bool is_new, const State& /*s*/,
                std::uint32_t parent, const Tag& tag) {
    if (is_new && all) goal_mark[shard].push_back(tag.is_goal ? 1 : 0);
    // One edge per emission, fresh or not — the multiset of edges matches
    // the sequential engine's children lists.
    if (tag.src_gf && !tag.is_goal) l.edges.push_back(pack_edge(parent, id));
    return false;
  }
};

/// Shared OWCTY core: phase A on FrontierSearch, then phases B and C. Store
/// maintenance (probe growth, sealing, spill) runs at phase A's level
/// boundaries; the trim rounds and lasso extraction only read `at()`, which
/// decodes sealed/spilled pages transparently.
template <class Map, TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> owcty_liveness_impl(const TS& ts, Pred& goal,
                                                     const EngineOptions& opts,
                                                     bool roots_all_reachable) {
  using State = typename TS::State;
  using Hooks = OwctyHooks<State, Pred>;
  constexpr std::uint32_t kNone = Map::kEmpty;
  constexpr unsigned kShards = kFrontierShards;

  obs::Span run_span("liveness.owcty");
  LivenessResult<TS> result;
  result.stats.mark(Section::kOwcty);
  Hooks hooks{goal, roots_all_reachable};
  FrontierSearch<Map, TS, Hooks> search(ts, hooks, opts, result.stats);
  const Map& seen = search.seen();
  auto& ctx = search.contexts();
  std::vector<std::uint32_t> in_off, in_from;

  auto phases_b_c = [&] {
    // ---- phase B: dense compaction, CSR, iterative trimming ----
    const std::size_t n = seen.size();
    if (n == 0) return;  // F(goal) with every initial already at the goal
    std::array<std::uint32_t, kShards + 1> shard_base{};
    for (unsigned sh = 0; sh < kShards; ++sh) {
      shard_base[sh + 1] =
          shard_base[sh] + static_cast<std::uint32_t>(seen.shard_size(sh));
    }
    auto dense_of = [&](std::uint32_t id) {
      return shard_base[seen.shard_of_id(id)] + seen.local_of_id(id);
    };

    // Convert the edge buffers to dense endpoints in place, then build the
    // forward and reverse CSR arrays by counting sort. The per-thread buffer
    // contents vary with scheduling; the edge *multiset* does not, and every
    // consumer below is insensitive to adjacency order.
    std::size_t n_edges = 0;
    for (auto& c : ctx) {
      for (auto& e : c.local.edges) {
        e = pack_edge(dense_of(static_cast<std::uint32_t>(e >> 32)),
                      dense_of(static_cast<std::uint32_t>(e)));
      }
      n_edges += c.local.edges.size();
    }
    std::vector<std::uint32_t> out_off(n + 1, 0);
    in_off.assign(n + 1, 0);
    for (const auto& c : ctx) {
      for (const auto e : c.local.edges) {
        ++out_off[(e >> 32) + 1];
        ++in_off[static_cast<std::uint32_t>(e) + 1];
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      out_off[u + 1] += out_off[u];
      in_off[u + 1] += in_off[u];
    }
    std::vector<std::uint32_t> out_to(n_edges);
    in_from.assign(n_edges, 0);
    {
      std::vector<std::uint32_t> ocur(out_off.begin(), out_off.end() - 1);
      std::vector<std::uint32_t> icur(in_off.begin(), in_off.end() - 1);
      for (const auto& c : ctx) {
        for (const auto e : c.local.edges) {
          const auto from = static_cast<std::uint32_t>(e >> 32);
          const auto to = static_cast<std::uint32_t>(e);
          out_to[ocur[from]++] = to;
          in_from[icur[to]++] = from;
        }
      }
    }

    std::vector<std::uint8_t> alive(n, 1);
    std::size_t eligible = n;
    if (roots_all_reachable) {
      eligible = 0;
      for (unsigned sh = 0; sh < kShards; ++sh) {
        const auto& marks = hooks.goal_mark[sh];
        for (std::uint32_t local = 0; local < marks.size(); ++local) {
          alive[shard_base[sh] + local] = marks[local] == 0 ? 1 : 0;
        }
      }
      for (std::size_t u = 0; u < n; ++u) eligible += alive[u];
    }

    const std::unique_ptr<std::atomic<std::uint32_t>[]> out_remaining(
        new std::atomic<std::uint32_t>[n]);
    std::vector<std::uint32_t> worklist;
    for (std::size_t u = 0; u < n; ++u) {
      const auto deg = static_cast<std::uint32_t>(out_off[u + 1] - out_off[u]);
      out_remaining[u].store(deg, std::memory_order_relaxed);
      // Goal states (AG AF) have no recorded edges and are dead from the
      // start: they never enter a work list and are never decremented.
      if (alive[u] != 0 && deg == 0) worklist.push_back(u);
    }

    std::size_t residue = eligible;
    std::vector<std::uint32_t> next_list;
    while (!worklist.empty()) {
      ++result.stats.trim_rounds;
      // One span per OWCTY trim round; `caught` is the number of states
      // deleted this round, the quantity the "catch them young" loop drains.
      obs::Span round_span("owcty.trim_round");
      round_span.set_arg("caught", static_cast<std::int64_t>(worklist.size()));
      obs::progress_tick({.phase = "owcty-trim",
                          .states = seen.size(),
                          .transitions = result.stats.transitions,
                          .frontier = worklist.size(),
                          .round = static_cast<long long>(result.stats.trim_rounds),
                          .seconds = search.seconds()});
      residue -= worklist.size();
      for (const std::uint32_t u : worklist) alive[u] = 0;
      for (auto& c : ctx) c.local.trim_out.clear();
      search.for_chunks(worklist.size(), "owcty.trim_work",
                        [&](auto& c, std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            const std::uint32_t u = worklist[i];
                            for (std::uint32_t k = in_off[u]; k < in_off[u + 1]; ++k) {
                              const std::uint32_t p = in_from[k];
                              // Exactly one decrement per edge (u dies once), so
                              // the counter reaches zero exactly once: that
                              // thread owns p's deletion.
                              if (out_remaining[p].fetch_sub(1, std::memory_order_relaxed) == 1) {
                                c.local.trim_out.push_back(p);
                              }
                            }
                          }
                        });
      next_list.clear();
      for (const auto& c : ctx) {
        next_list.insert(next_list.end(), c.local.trim_out.begin(), c.local.trim_out.end());
      }
      worklist.swap(next_list);
    }  // round_span closes here: the span covers delete + decrement + gather
    result.stats.residue_states = residue;
    if (residue == 0) return;

    // ---- phase C: deterministic lasso extraction from the residue ----
    std::uint32_t entry = kNone;
    for (std::size_t u = 0; u < n; ++u) {
      if (alive[u] != 0) {
        entry = static_cast<std::uint32_t>(u);
        break;
      }
    }
    TT_ASSERT(entry != kNone);
    std::vector<std::uint32_t> dense_to_id(n);
    for (unsigned sh = 0; sh < kShards; ++sh) {
      const auto sz = static_cast<std::uint32_t>(seen.shard_size(sh));
      for (std::uint32_t local = 0; local < sz; ++local) {
        dense_to_id[shard_base[sh] + local] = seen.id_of(sh, local);
      }
    }
    std::vector<std::uint32_t> walk;
    std::vector<std::uint32_t> walk_pos(n, kNone);
    std::uint32_t cur = entry;
    std::size_t loop_at = 0;
    while (true) {
      walk_pos[cur] = static_cast<std::uint32_t>(walk.size());
      walk.push_back(cur);
      // Every residue state has an alive successor (the trim fixpoint);
      // taking the minimal one makes the walk order-insensitive.
      std::uint32_t next = kNone;
      for (std::uint32_t k = out_off[cur]; k < out_off[cur + 1]; ++k) {
        const std::uint32_t v = out_to[k];
        if (alive[v] != 0 && v < next) next = v;
      }
      TT_ASSERT(next != kNone);
      if (walk_pos[next] != kNone) {
        loop_at = walk_pos[next];
        break;
      }
      cur = next;
    }
    result.verdict = LivenessVerdict::kCycle;
    result.trace = search.trace_to(dense_to_id[entry]);
    const std::size_t stem_len = result.trace.size();  // initial .. entry
    for (std::size_t i = 1; i < walk.size(); ++i) {
      result.trace.push_back(seen.at(dense_to_id[walk[i]]));
    }
    result.loop_start = stem_len - 1 + loop_at;
  };

  search.run();
  if (search.witness() != kNone) {
    // Goal-free deadlock: minimal (level, id) witness.
    result.verdict = LivenessVerdict::kDeadlock;
    result.trace = search.trace_to(search.witness());
  } else if (search.limit_hit()) {
    result.verdict = LivenessVerdict::kLimit;
  } else {
    phases_b_c();  // sets kCycle on a nonempty residue; otherwise kHolds stands
  }
  run_span.set_arg("states", static_cast<std::int64_t>(seen.size()));

  search.finish_stats();
  result.stats.memory_bytes += (in_off.capacity() + in_from.capacity()) * sizeof(std::uint32_t);
  for (const auto& c : ctx) {
    result.stats.memory_bytes += c.local.edges.capacity() * sizeof(std::uint64_t);
  }
  result.stats.exhausted = result.verdict != LivenessVerdict::kLimit;
  return result;
}

/// Store dispatch for the OWCTY core.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> owcty_liveness(const TS& ts, Pred& goal,
                                                const EngineOptions& opts,
                                                bool roots_all_reachable) {
  return with_frontier_store<TS::kWords>(opts.store, [&]<class Map>() {
    return owcty_liveness_impl<Map>(ts, goal, opts, roots_all_reachable);
  });
}

}  // namespace detail

/// Parallel F(goal): the OWCTY counterpart of check_eventually. Verdicts
/// agree with the sequential engine (single-violation-class inputs; see the
/// header comment), and states/transitions/hash_ops match it exactly on
/// holds-runs — both engines sweep the same goal-free region once.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_eventually_parallel(const TS& ts, Pred&& goal,
                                                           const EngineOptions& opts = {}) {
  return detail::owcty_liveness(ts, goal, opts, /*roots_all_reachable=*/false);
}

/// Parallel AG AF(goal): the OWCTY counterpart of check_always_eventually.
/// Materializes the reachable graph once (the sequential engine runs a BFS
/// plus a second DFS sweep) and trims its goal-free restriction.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually_parallel(
    const TS& ts, Pred&& goal, const EngineOptions& opts = {}) {
  return detail::owcty_liveness(ts, goal, opts, /*roots_all_reachable=*/true);
}

/// Engine-dispatching liveness check: kAuto resolves to the parallel OWCTY
/// engine; kSequential forces the single-threaded colored-DFS lasso search.
/// kSymbolic is dispatched by callers that include mc/symbolic_liveness.hpp
/// (core::verify does); here it is rejected so a missing dispatch shows up
/// as an assertion, not a silent engine swap.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_eventually_with(EngineKind kind, const TS& ts,
                                                       Pred&& goal,
                                                       const EngineOptions& opts = {}) {
  TT_ASSERT(kind != EngineKind::kSymbolic);
  return kind == EngineKind::kSequential
             ? check_eventually(ts, std::forward<Pred>(goal), opts.limits)
             : check_eventually_parallel(ts, std::forward<Pred>(goal), opts);
}

template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually_with(EngineKind kind, const TS& ts,
                                                              Pred&& goal,
                                                              const EngineOptions& opts = {}) {
  TT_ASSERT(kind != EngineKind::kSymbolic);
  return kind == EngineKind::kSequential
             ? check_always_eventually(ts, std::forward<Pred>(goal), opts.limits)
             : check_always_eventually_parallel(ts, std::forward<Pred>(goal), opts);
}

}  // namespace tt::mc
