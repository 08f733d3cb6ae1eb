// Symbolic liveness (the `sym` engine's EG leg): F(goal) / AG AF(goal) as a
// backward EG(¬goal) greatest fixpoint over a partitioned transition
// relation, so liveness no longer falls back to the sequential engine.
//
// Variable order is interleaved: state bit i of the packed words maps to
// BDD variable 2i (current) with variable 2i+1 as its next-state partner —
// the standard pairing that keeps a transition relation's current/next
// structure local in the order. The engine runs in two phases:
//
//   phase 1  explicit enumeration, symbolic sets. The relevant subgraph
//            (goal-free region for F(goal), full reachable graph for
//            AG AF(goal)) is walked breadth-first exactly like
//            symbolic_reachability.hpp — a queue doubling as the parent
//            forest, a `reached` BDD over the even variables as the
//            membership authority (eval_bits on Morton-spread words, zero
//            hash_ops) — while every goal-free edge is disjoined into
//            partitioned relation chunks T_k (minterm_pair_bits, a few
//            thousand edges per chunk). Goal-free deadlocks are flagged
//            here, first-in-BFS-order.
//   phase 2  the greatest fixpoint  Z := νZ. S_gf ∧ pre(Z)  computed as
//            Z_0 = S_gf;  Z_{j+1} = Z_j ∧ ∨_k ∃next. T_k ∧ Z_j[cur→next]
//            with and_exists doing the relational product per chunk. At the
//            fixpoint Z is exactly the set of states with an infinite
//            goal-free path inside the subgraph; the property is violated
//            iff Z ≠ ∅ (every state in the subgraph is reachable, so
//            nonempty Z is witnessed). `bdd_iterations` records the number
//            of fixpoint steps.
//
// Lasso extraction is deterministic: the entry state is the first queue
// (BFS-order) state inside Z, the stem is its parent-forest path, and the
// cycle walk repeatedly takes the first enumerated successor that is
// goal-free and in Z until a walk state repeats. Shape can differ from the
// seq/par lassos (all three replay through the model); verdicts agree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "mc/liveness.hpp"
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace tt::mc {

namespace detail {

/// Spreads the low 32 bits of `v` to the even bit positions of the result
/// (bit i -> bit 2i), the classic Morton interleave expansion.
[[nodiscard]] constexpr std::uint64_t spread32(std::uint64_t v) noexcept {
  v &= 0xffffffffull;
  v = (v | (v << 16)) & 0x0000ffff0000ffffull;
  v = (v | (v << 8)) & 0x00ff00ff00ff00ffull;
  v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0full;
  v = (v | (v << 2)) & 0x3333333333333333ull;
  v = (v | (v << 1)) & 0x5555555555555555ull;
  return v;
}

/// Shared symbolic goal-free-cycle check; `roots_all_reachable` selects
/// F(goal) (false) vs AG AF(goal) (true), mirroring owcty_liveness.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> symbolic_liveness(const TS& ts, Pred&& goal,
                                                   const SearchLimits& limits,
                                                   bool roots_all_reachable) {
  using State = typename TS::State;
  constexpr std::size_t kEdgesPerChunk = 4096;
  constexpr std::uint32_t kNoParent = 0xffffffffu;

  Timer timer;
  obs::Span run_span("liveness.symbolic");
  LivenessResult<TS> result;

  const int bits = ts.state_bits();
  TT_ASSERT(bits >= 1 && static_cast<std::size_t>(bits) <= 64 * TS::kWords);
  bdd::Manager mgr(2 * bits);

  // Packed state bits -> interleaved even-variable assignment, for eval_bits
  // membership tests against sets that live on the even (current) variables.
  auto spread_state = [&](const State& s, std::uint64_t* out) {
    for (std::size_t w = 0; w < TS::kWords; ++w) {
      out[2 * w] = spread32(s[w]);
      out[2 * w + 1] = spread32(s[w] >> 32);
    }
  };
  std::uint64_t spread_buf[2 * TS::kWords];

  bdd::NodeId reached = bdd::kFalse;  // membership: all enumerated states
  mgr.ref(reached);
  bdd::NodeId s_gf = bdd::kFalse;  // goal-free states of the subgraph
  mgr.ref(s_gf);
  std::vector<bdd::NodeId> chunks;  // partitioned goal-free relation, ref'd
  bdd::NodeId open_chunk = bdd::kFalse;
  mgr.ref(open_chunk);
  std::size_t open_edges = 0;

  std::vector<State> queue;      // BFS order; doubles as the parent forest
  std::vector<std::uint32_t> parent;
  std::vector<std::uint8_t> is_goal;  // parallel to queue (AG AF only)

  auto insert = [&](bdd::NodeId& set, bdd::NodeId minterm) {
    const bdd::NodeId next = mgr.lor(set, minterm);
    mgr.ref(next);
    mgr.deref(set);
    set = next;
  };

  // Enqueue a not-yet-reached state. F(goal) never sees goal states here.
  auto visit = [&](const State& s, std::uint32_t from, bool g) {
    insert(reached, mgr.minterm_even_bits(s.data(), bits));
    if (!g) insert(s_gf, mgr.minterm_even_bits(s.data(), bits));
    queue.push_back(s);
    parent.push_back(from);
    if (roots_all_reachable) is_goal.push_back(g ? 1 : 0);
  };

  auto member = [&](bdd::NodeId set, const State& s) {
    spread_state(s, spread_buf);
    return mgr.eval_bits(set, spread_buf);
  };

  ts.initial_states([&](const State& s) {
    const bool g = goal(s);
    if (g && !roots_all_reachable) return;
    if (member(reached, s)) {
      ++result.stats.dup_transitions;
      return;
    }
    visit(s, kNoParent, g);
  });
  result.stats.frontier_sizes.push_back(queue.size());

  bool limit_hit = false;
  std::uint32_t dead_idx = kNoParent;
  std::size_t head = 0;
  std::size_t level_end = queue.size();
  int depth = 0;
  obs::ManualSpan level_span;
  level_span.begin("symlive.level", depth, "depth");
  while (head < queue.size()) {
    if (head == level_end) {
      ++depth;
      result.stats.frontier_sizes.push_back(queue.size() - level_end);
      level_end = queue.size();
      level_span.end();
      level_span.begin("symlive.level", depth, "depth");
      obs::progress_tick({.phase = "symlive-bfs",
                          .states = queue.size(),
                          .transitions = result.stats.transitions,
                          .frontier = queue.size() - head,
                          .depth = depth,
                          .seconds = timer.seconds(),
                          .live_bdd_nodes = mgr.node_count()});
      if (depth > limits.max_depth) {
        limit_hit = true;
        break;
      }
    }
    if (queue.size() > limits.max_states) {
      limit_hit = true;
      break;
    }
    const State s = queue[head];
    const auto from = static_cast<std::uint32_t>(head);
    const bool src_gf = !roots_all_reachable || is_goal[head] == 0;
    ++head;
    std::size_t emitted = 0;
    ts.successors(s, [&](const State& t) {
      ++result.stats.transitions;
      ++emitted;
      const bool tg = goal(t);
      if (tg && !roots_all_reachable) return;  // F(goal): goal region never entered
      if (member(reached, t)) {
        ++result.stats.dup_transitions;
      } else {
        visit(t, from, tg);
      }
      if (src_gf && !tg) {
        insert(open_chunk, mgr.minterm_pair_bits(s.data(), t.data(), bits));
        if (++open_edges >= kEdgesPerChunk) {
          chunks.push_back(open_chunk);  // stays ref'd; ownership moves
          open_chunk = bdd::kFalse;
          mgr.ref(open_chunk);
          open_edges = 0;
        }
      }
    });
    if (emitted == 0 && src_gf) {
      dead_idx = from;  // first in BFS order: deterministic witness
      break;
    }
  }
  level_span.end();
  if (open_edges > 0) {
    chunks.push_back(open_chunk);
  } else {
    mgr.deref(open_chunk);
  }

  // Phase 2: Z := νZ. S_gf ∧ pre(Z), skipped when phase 1 already decided.
  bdd::NodeId z = bdd::kFalse;
  mgr.ref(z);
  if (dead_idx == kNoParent && !limit_hit && s_gf != bdd::kFalse) {
    std::vector<int> cur_to_next(static_cast<std::size_t>(2 * bits));
    std::vector<int> odd_vars;
    odd_vars.reserve(static_cast<std::size_t>(bits));
    for (int b = 0; b < bits; ++b) {
      cur_to_next[static_cast<std::size_t>(2 * b)] = 2 * b + 1;
      cur_to_next[static_cast<std::size_t>(2 * b + 1)] = 2 * b + 1;
      odd_vars.push_back(2 * b + 1);
    }
    const int map_id = mgr.register_rename(cur_to_next);
    bdd::NodeId odd_cube = mgr.cube(odd_vars);
    mgr.ref(odd_cube);

    mgr.deref(z);
    z = s_gf;
    mgr.ref(z);
    while (true) {
      ++result.stats.bdd_iterations;
      obs::Span iter_span("symlive.eg_iteration");
      iter_span.set_arg("iteration", static_cast<std::int64_t>(result.stats.bdd_iterations));
      obs::progress_tick({.phase = "symlive-eg",
                          .states = queue.size(),
                          .transitions = result.stats.transitions,
                          .round = static_cast<long long>(result.stats.bdd_iterations),
                          .seconds = timer.seconds(),
                          .live_bdd_nodes = mgr.node_count()});
      const bdd::NodeId zn = mgr.rename(z, map_id);
      mgr.ref(zn);
      bdd::NodeId pre = bdd::kFalse;
      mgr.ref(pre);
      for (const bdd::NodeId t : chunks) {
        const bdd::NodeId img = mgr.and_exists(t, zn, odd_cube);
        const bdd::NodeId merged = mgr.lor(pre, img);
        mgr.ref(merged);
        mgr.deref(pre);
        pre = merged;
      }
      mgr.deref(zn);
      const bdd::NodeId znew = mgr.land(z, pre);
      mgr.ref(znew);
      mgr.deref(pre);
      if (znew == z) {
        mgr.deref(znew);
        break;
      }
      mgr.deref(z);
      z = znew;
    }
    mgr.deref(odd_cube);
  }

  // Verdict + counterexample.
  if (dead_idx != kNoParent) {
    result.verdict = LivenessVerdict::kDeadlock;
    for (std::uint32_t i = dead_idx; i != kNoParent; i = parent[i]) {
      result.trace.push_back(queue[i]);
    }
    std::reverse(result.trace.begin(), result.trace.end());
  } else if (limit_hit) {
    result.verdict = LivenessVerdict::kLimit;
  } else if (z != bdd::kFalse) {
    result.verdict = LivenessVerdict::kCycle;
    // Entry: first BFS-order state inside Z (deterministic).
    std::uint32_t entry = kNoParent;
    for (std::uint32_t i = 0; i < queue.size(); ++i) {
      if (member(z, queue[i])) {
        entry = i;
        break;
      }
    }
    TT_ASSERT(entry != kNoParent);
    for (std::uint32_t i = entry; i != kNoParent; i = parent[i]) {
      result.trace.push_back(queue[i]);
    }
    std::reverse(result.trace.begin(), result.trace.end());
    const std::size_t stem_len = result.trace.size();
    // Cycle walk: first goal-free successor inside Z; every Z state has one
    // (the fixpoint guarantees pre(Z) membership). Revisit check is a linear
    // scan over the walk so hash_ops stays 0.
    std::vector<State> walk{queue[entry]};
    std::size_t loop_at = 0;
    while (true) {
      State next{};
      bool found = false;
      ts.successors(walk.back(), [&](const State& t) {
        if (found || goal(t) || !member(z, t)) return;
        next = t;
        found = true;
      });
      TT_ASSERT(found);
      bool closed = false;
      for (std::size_t i = 0; i < walk.size(); ++i) {
        if (walk[i] == next) {
          loop_at = i;
          closed = true;
          break;
        }
      }
      if (closed) break;
      walk.push_back(next);
    }
    for (std::size_t i = 1; i < walk.size(); ++i) result.trace.push_back(walk[i]);
    result.loop_start = stem_len - 1 + loop_at;
  }
  mgr.deref(z);

  // The reached BDD is the membership authority; it must agree with the
  // queue exactly (each state enumerated once) unless we stopped early.
  // The count is over all 2*bits variables and `reached` leaves the odd
  // (next-state) variables free, so each state contributes 2^bits models.
  if (!limit_hit && dead_idx == kNoParent) {
    BigUint expected(queue.size());
    expected *= BigUint::pow2(static_cast<unsigned>(bits));
    TT_ASSERT(mgr.sat_count_exact(reached) == expected);
  }
  run_span.set_arg("states", static_cast<std::int64_t>(queue.size()));
  result.stats.states = queue.size();
  result.stats.depth = depth;
  const bdd::ManagerStats ms = mgr.stats();
  result.stats.memory_bytes = ms.memory_bytes + queue.size() * sizeof(State) +
                              parent.size() * sizeof(std::uint32_t);
  bdd::copy_bdd_stats(ms, result.stats);
  result.stats.seconds = timer.seconds();
  result.stats.exhausted = result.verdict != LivenessVerdict::kLimit;

  for (const bdd::NodeId t : chunks) mgr.deref(t);
  mgr.deref(s_gf);
  mgr.deref(reached);
  return result;
}

}  // namespace detail

/// Symbolic F(goal): EG(¬goal) over the reachable goal-free subgraph.
/// Verdicts agree with the explicit engines; on holds-runs states and
/// transitions match them exactly and hash_ops is 0 (BDD membership).
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_eventually_symbolic(const TS& ts, Pred&& goal,
                                                           const SearchLimits& limits = {}) {
  return detail::symbolic_liveness(ts, std::forward<Pred>(goal), limits,
                                   /*roots_all_reachable=*/false);
}

/// Symbolic AG AF(goal): EG(¬goal) over the goal-free restriction of the
/// full reachable graph (recovery obligations included).
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually_symbolic(
    const TS& ts, Pred&& goal, const SearchLimits& limits = {}) {
  return detail::symbolic_liveness(ts, std::forward<Pred>(goal), limits,
                                   /*roots_all_reachable=*/true);
}

}  // namespace tt::mc
