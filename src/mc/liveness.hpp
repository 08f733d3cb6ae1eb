// Checking F(goal): "every behaviour eventually reaches a goal state".
//
// Paper analogue: Lemma 2 (liveness), checked by SAL's LTL engine. For a
// finite-state system, F(goal) fails iff some behaviour avoids goal forever,
// i.e. iff the goal-free restriction of the reachable graph contains a cycle
// — or a deadlock, since a maximal finite goal-free path also never reaches
// the goal. We search the goal-free subgraph with an iterative colored DFS
// (white/grey/black); the first grey-hit back edge yields a lasso
// counterexample (stem + cycle), the classic nested-DFS specialisation for
// this restricted property class.
//
// No fairness constraints are imposed, matching the SAL model: the algorithm
// must converge under *every* scheduling of the modeled nondeterminism
// (including adversarial fault injection).
#pragma once

#include <cstdint>
#include <vector>

#include "mc/engine.hpp"
#include "mc/explore.hpp"
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/trace.hpp"
#include "support/lockfree_state_index_map.hpp"
#include "support/recent_cache.hpp"
#include "support/sharded_state_index_map.hpp"
#include "support/timer.hpp"

namespace tt::mc {

enum class LivenessVerdict {
  kHolds,     ///< all behaviours reach the goal
  kCycle,     ///< goal-free cycle: lasso counterexample attached
  kDeadlock,  ///< goal-free state without successors
  kLimit,     ///< search limit hit before completion
};

[[nodiscard]] constexpr const char* to_string(LivenessVerdict v) noexcept {
  switch (v) {
    case LivenessVerdict::kHolds: return "holds";
    case LivenessVerdict::kCycle: return "VIOLATED(cycle)";
    case LivenessVerdict::kDeadlock: return "VIOLATED(deadlock)";
    case LivenessVerdict::kLimit: return "limit-reached";
  }
  return "?";
}

template <class TS>
struct LivenessResult {
  LivenessVerdict verdict = LivenessVerdict::kHolds;
  RunStats stats;
  /// For kCycle: stem then cycle; `loop_start` indexes the state the final
  /// state loops back to. For kDeadlock: path to the deadlocked state.
  std::vector<typename TS::State> trace;
  std::size_t loop_start = 0;
};

namespace detail {

/// Hash-once intern of `s` through a recently-seen cache in front of a
/// single-threaded store: one hash_words per candidate, verified cache hits
/// never reach the store. Counts into `stats`' hash/cache/duplicate columns.
template <class Map>
std::pair<std::uint32_t, bool> cached_intern(Map& seen, RecentSeenCache& cache,
                                             const typename Map::State& s, RunStats& stats) {
  ++stats.hash_ops;
  const std::uint64_t h = hash_words(s);
  const std::uint32_t hint = cache.lookup(h);
  if (hint != RecentSeenCache::kMiss && seen.at(hint) == s) {
    ++stats.cache_hits;
    ++stats.dup_transitions;
    return {hint, false};
  }
  const auto [id, fresh] = seen.insert_serial(s, h);
  cache.remember(h, id);
  if (!fresh) ++stats.dup_transitions;
  return {id, fresh};
}

/// Shared goal-free-lasso search. Roots are supplied by the caller: the
/// goal-free initial states for F(goal), every reachable goal-free state for
/// AG AF(goal). `expected_states` pre-sizes the interning table (callers
/// that already materialized the reachable set pass its size, so the DFS
/// never rehashes from default capacity).
///
/// `Map` must assign dense ids (`color` is indexed by them): a one-shard
/// ShardedStateIndexMap or LockFreeStateIndexMap. The DFS has no quiescent
/// points, so the lock-free store runs in its raw (uncompressed, unspilled)
/// tier — the sealing/spill machinery only engages in the level-synchronous
/// BFS engines.
template <class Map, class TS, class Pred, class RootFn>
[[nodiscard]] LivenessResult<TS> lasso_search(const TS& ts, Pred&& goal, RootFn&& for_each_root,
                                              const SearchLimits& limits,
                                              std::size_t expected_states = 0) {
  using State = typename TS::State;
  enum : std::uint8_t { kWhite = 0, kGrey = 1, kBlack = 2 };

  Timer timer;
  obs::Span run_span("liveness.lasso");
  LivenessResult<TS> result;
  Map seen;                // interns goal-free states only
  RecentSeenCache cache;   // duplicate suppression in front of `seen`
  std::vector<std::uint8_t> color;  // parallel to `seen`
  if (expected_states == 0 && limits.states_bounded()) {
    expected_states = limits.max_states + limits.max_states / 8 + 1;
  }
  if (expected_states > 0) {
    seen.reserve(expected_states);
    color.reserve(expected_states);
  }

  auto intern = [&](const State& s) { return cached_intern(seen, cache, s, result.stats); };

  struct Frame {
    std::uint32_t idx;
    std::vector<std::uint32_t> children;  // goal-free successors (interned)
    std::size_t next_child = 0;
    bool has_any_successor = false;
  };
  std::vector<Frame> stack;

  std::vector<std::uint32_t> roots;
  bool roots_overflow = false;
  for_each_root([&](const State& s) {
    if (goal(s)) return;  // goal states are never roots of a goal-free lasso
    auto [idx, fresh] = intern(s);
    if (fresh) {
      color.push_back(kWhite);
      roots.push_back(idx);
    }
  });

  auto expand = [&](std::uint32_t idx) {
    Frame f;
    f.idx = idx;
    const State s = seen.at(idx);
    ts.successors(s, [&](const State& t) {
      ++result.stats.transitions;
      f.has_any_successor = true;
      if (goal(t)) return;  // edge leaves the goal-free region: irrelevant
      auto [tidx, fresh] = intern(t);
      if (fresh) color.push_back(kWhite);
      f.children.push_back(tidx);
    });
    return f;
  };

  auto build_path = [&](std::size_t upto) {
    result.trace.clear();
    for (std::size_t i = 0; i <= upto && i < stack.size(); ++i) {
      result.trace.push_back(seen.at(stack[i].idx));
    }
  };

  for (std::uint32_t root : roots) {
    if (color[root] != kWhite) continue;
    color[root] = kGrey;
    stack.clear();
    stack.push_back(expand(root));
    while (!stack.empty()) {
      if (seen.size() > limits.max_states ||
          static_cast<int>(stack.size()) > limits.max_depth) {
        result.verdict = LivenessVerdict::kLimit;
        roots_overflow = true;
        break;
      }
      Frame& f = stack.back();
      result.stats.depth = std::max<int>(result.stats.depth, static_cast<int>(stack.size()));
      if (!f.has_any_successor) {
        // Deadlock inside the goal-free region: the run halts without goal.
        result.verdict = LivenessVerdict::kDeadlock;
        build_path(stack.size() - 1);
        roots_overflow = true;
        break;
      }
      if (f.next_child >= f.children.size()) {
        color[f.idx] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::uint32_t child = f.children[f.next_child++];
      if (color[child] == kGrey) {
        // Back edge: goal-free lasso found.
        result.verdict = LivenessVerdict::kCycle;
        build_path(stack.size() - 1);
        for (std::size_t i = 0; i < stack.size(); ++i) {
          if (stack[i].idx == child) {
            result.loop_start = i;
            break;
          }
        }
        roots_overflow = true;
        break;
      }
      if (color[child] == kWhite) {
        color[child] = kGrey;
        stack.push_back(expand(child));
      }
    }
    if (roots_overflow) break;
  }

  result.stats.states = seen.size();
  result.stats.memory_bytes = seen.memory_bytes() + color.capacity() + cache.memory_bytes();
  copy_store_stats(seen, result.stats);
  result.stats.seconds = timer.seconds();
  result.stats.exhausted = result.verdict != LivenessVerdict::kLimit;
  return result;
}

}  // namespace detail

/// F(goal): every behaviour from an initial state eventually reaches a goal
/// state (Lemma 2).
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_eventually(const TS& ts, Pred&& goal,
                                                  const SearchLimits& limits = {}) {
  return detail::lasso_search<ShardedStateIndexMap<TS::kWords>>(
      ts, goal, [&](auto&& visit) { ts.initial_states(visit); }, limits);
}

/// Store-dispatching F(goal): the DFS explores in the identical order under
/// either store (dense ids, serial inserts), so results are bit-identical.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_eventually_store(const TS& ts, Pred&& goal,
                                                        const SearchLimits& limits,
                                                        const StoreOptions& store) {
  if (store.kind == StoreKind::kLockFree) {
    return detail::lasso_search<LockFreeStateIndexMap<TS::kWords>>(
        ts, goal, [&](auto&& visit) { ts.initial_states(visit); }, limits);
  }
  return check_eventually(ts, std::forward<Pred>(goal), limits);
}

namespace detail {

template <class Map, TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually_impl(const TS& ts, Pred&& goal,
                                                              const SearchLimits& limits) {
  using State = typename TS::State;
  // Materialize the reachable set first; its states are the lasso roots.
  // The store assigns dense ids in insertion order, so id order is BFS
  // order and the store is its own queue.
  std::vector<State> reachable;
  bool truncated = false;
  RunStats walk;
  {
    Map seen;
    RecentSeenCache cache;
    if (limits.states_bounded()) seen.reserve(limits.max_states + limits.max_states / 8 + 1);
    auto visit = [&](const State& s) { cached_intern(seen, cache, s, walk); };
    ts.initial_states(visit);
    for (std::uint32_t head = 0; head < seen.size(); ++head) {
      if (seen.size() > limits.max_states) {
        truncated = true;
        break;
      }
      const State s = seen.at(head);
      ts.successors(s, visit);
    }
    reachable.reserve(seen.size());
    for (std::uint32_t i = 0; i < seen.size(); ++i) reachable.push_back(seen.at(i));
  }
  if (truncated) {
    LivenessResult<TS> limited;
    limited.verdict = LivenessVerdict::kLimit;
    limited.stats.states = reachable.size();
    limited.stats.exhausted = false;
    return limited;
  }
  auto result = detail::lasso_search<Map>(
      ts, goal,
      [&](auto&& visit) {
        for (const State& s : reachable) visit(s);
      },
      limits, /*expected_states=*/reachable.size());
  result.stats.states = std::max(result.stats.states, reachable.size());
  result.stats.hash_ops += walk.hash_ops;
  result.stats.cache_hits += walk.cache_hits;
  result.stats.dup_transitions += walk.dup_transitions;
  return result;
}

}  // namespace detail

/// AG AF(goal): from *every reachable state*, every behaviour eventually
/// reaches a goal state again. Strictly stronger than F(goal): it also
/// covers recovery after the goal was already reached once — the property
/// the restart/reintegration experiments need (a transient fault knocks a
/// node out of the synchronous set; the set must always pull it back).
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually(const TS& ts, Pred&& goal,
                                                         const SearchLimits& limits = {}) {
  return detail::check_always_eventually_impl<ShardedStateIndexMap<TS::kWords>>(
      ts, std::forward<Pred>(goal), limits);
}

/// Store-dispatching AG AF(goal); bit-identical results across stores.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually_store(const TS& ts, Pred&& goal,
                                                               const SearchLimits& limits,
                                                               const StoreOptions& store) {
  if (store.kind == StoreKind::kLockFree) {
    return detail::check_always_eventually_impl<LockFreeStateIndexMap<TS::kWords>>(
        ts, std::forward<Pred>(goal), limits);
  }
  return check_always_eventually(ts, std::forward<Pred>(goal), limits);
}

}  // namespace tt::mc
