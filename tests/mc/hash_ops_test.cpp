// The hash-once contract, asserted on graphs where every emission is known
// by construction: stats.hash_ops must equal the number of candidate states
// handed to an engine (initial-state emissions + successor emissions) —
// hash_words runs exactly once per candidate, never per probe, per shard
// decision or per insert (DESIGN.md §3.2). The companion golden-counts test
// asserts the same identity on the full TTA model.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mc/liveness.hpp"
#include "mc/parallel_liveness.hpp"
#include "mc/reachability.hpp"
#include "toy_system.hpp"

namespace tt::mc {
namespace {

using mc_test::ToySystem;

/// Emissions an exhaustive BFS over the toy graph performs: one per initial
/// state plus one per outgoing edge of every reachable vertex.
std::size_t expected_candidates(const std::vector<std::uint64_t>& initial,
                                const std::vector<std::vector<std::uint64_t>>& adj) {
  std::vector<bool> reached(adj.size(), false);
  std::vector<std::uint64_t> queue;
  for (auto v : initial) {
    if (!reached[v]) queue.push_back(v);
    reached[v] = true;
  }
  std::size_t emissions = initial.size();
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (auto t : adj[queue[head]]) {
      ++emissions;
      if (!reached[t]) {
        reached[t] = true;
        queue.push_back(t);
      }
    }
  }
  return emissions;
}

TEST(HashOnce, SequentialBfsHashesEachCandidateExactlyOnce) {
  // Diamond with a self-loop and duplicate edges: plenty of re-visits, so a
  // hash-per-probe bug would overshoot and a suppressed-candidate bug would
  // undershoot.
  const std::vector<std::uint64_t> initial = {0};
  const std::vector<std::vector<std::uint64_t>> adj = {
      {1, 2, 1}, {3}, {3, 0}, {3}};
  ToySystem ts(initial, adj);
  auto r = check_invariant(ts, [](const ToySystem::State&) { return true; });
  ASSERT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.stats.hash_ops, expected_candidates(initial, adj));
  EXPECT_EQ(r.stats.hash_ops, r.stats.transitions + initial.size());
  // Every duplicate candidate is accounted for, split between the
  // recently-seen cache and the interning table.
  EXPECT_EQ(r.stats.dup_transitions, r.stats.hash_ops - r.stats.states);
  EXPECT_LE(r.stats.cache_hits, r.stats.dup_transitions);
}

TEST(HashOnce, ParallelBfsHashesEachCandidateExactlyOnceAtEveryThreadCount) {
  struct Graph {
    std::vector<std::uint64_t> initial;
    std::vector<std::vector<std::uint64_t>> adj;
  };
  const std::vector<Graph> graphs = {
      {{0, 4}, {{1, 2}, {2, 3}, {3, 3}, {0, 4}, {4, 1}}},
      // Duplicate initial-state emissions count as duplicate transitions too.
      {{0, 0, 2}, {{1}, {2}, {0}}},
  };
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const auto& [initial, adj] = graphs[g];
    const std::size_t expected = expected_candidates(initial, adj);
    ToySystem ts(initial, adj);
    for (int threads : {1, 2, 4}) {
      EngineOptions opts;
      opts.threads = threads;
      auto r = check_invariant_parallel(
          ts, [](const ToySystem::State&) { return true; }, opts);
      ASSERT_EQ(r.verdict, Verdict::kHolds) << "graph=" << g << " threads=" << threads;
      EXPECT_EQ(r.stats.hash_ops, expected) << "graph=" << g << " threads=" << threads;
      EXPECT_EQ(r.stats.hash_ops, r.stats.transitions + initial.size())
          << "graph=" << g << " threads=" << threads;
      EXPECT_EQ(r.stats.dup_transitions, r.stats.hash_ops - r.stats.states)
          << "graph=" << g << " threads=" << threads;
    }
  }
}

TEST(HashOnce, LassoSearchHashesOnlyGoalFreeCandidates) {
  // States >= 3 are goal states; lasso search never interns (and therefore
  // never hashes) them — edges into the goal region are filtered first.
  const std::vector<std::uint64_t> initial = {0};
  const std::vector<std::vector<std::uint64_t>> adj = {{1, 3}, {2, 4}, {3}, {3}, {4}};
  ToySystem ts(initial, adj);
  auto r = check_eventually(ts, [](const ToySystem::State& s) { return s[0] >= 3; });
  ASSERT_EQ(r.verdict, LivenessVerdict::kHolds);
  // Goal-free candidates: the root 0, plus successor emissions 1, 2 from
  // expanding {0, 1} and the goal-free part of their edges (1 from 0; 2 from
  // 1). Edges to 3/4 are enumerated as transitions but never hashed.
  EXPECT_EQ(r.stats.hash_ops, 3u);
  EXPECT_LT(r.stats.hash_ops, r.stats.transitions + initial.size());
}

TEST(HashOnce, ParallelLivenessHashesOnlyGoalFreeCandidatesAtEveryThreadCount) {
  // The OWCTY materialization phase obeys the same contract as the
  // sequential lasso search: goal candidates are enumerated as transitions
  // but never hashed, and the count matches seq exactly.
  const std::vector<std::uint64_t> initial = {0};
  const std::vector<std::vector<std::uint64_t>> adj = {{1, 3}, {2, 4}, {3}, {3}, {4}};
  ToySystem ts(initial, adj);
  auto goal = [](const ToySystem::State& s) { return s[0] >= 3; };
  const auto seq = check_eventually(ts, goal);
  ASSERT_EQ(seq.verdict, LivenessVerdict::kHolds);
  for (int threads : {1, 2, 4}) {
    EngineOptions opts;
    opts.threads = threads;
    auto r = check_eventually_parallel(ts, goal, opts);
    ASSERT_EQ(r.verdict, LivenessVerdict::kHolds) << "threads=" << threads;
    EXPECT_EQ(r.stats.hash_ops, 3u) << "threads=" << threads;
    EXPECT_EQ(r.stats.hash_ops, seq.stats.hash_ops) << "threads=" << threads;
    EXPECT_EQ(r.stats.transitions, seq.stats.transitions) << "threads=" << threads;
    EXPECT_EQ(r.stats.dup_transitions, r.stats.hash_ops - r.stats.states)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace tt::mc
