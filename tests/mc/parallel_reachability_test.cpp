#include "mc/parallel_reachability.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/parallel_liveness.hpp"
#include "mc/reachability.hpp"
#include "toy_system.hpp"

namespace tt::mc {
namespace {

using mc_test::ToySystem;

EngineOptions with_threads(int t) {
  EngineOptions o;
  o.threads = t;
  return o;
}

TEST(ParallelReachability, InvariantHoldsOnChain) {
  ToySystem ts({0}, {{1}, {2}, {3}, {3}});
  for (int t : {1, 2, 4}) {
    auto r = check_invariant_parallel(
        ts, [](const ToySystem::State& s) { return s[0] <= 3; }, with_threads(t));
    EXPECT_EQ(r.verdict, Verdict::kHolds) << "threads=" << t;
    EXPECT_EQ(r.stats.states, 4u);
    EXPECT_EQ(r.stats.depth, 3);
    EXPECT_TRUE(r.stats.exhausted);
    EXPECT_EQ(r.stats.threads, t);
  }
}

TEST(ParallelReachability, ShortestCounterexample) {
  // Diamond: BFS must report the 2-edge path to the bad state, not the
  // 3-edge one, at every thread count.
  ToySystem ts({0}, {{1, 2}, {3}, {4}, {3}, {3}});
  for (int t : {1, 2, 4}) {
    auto r = check_invariant_parallel(
        ts, [](const ToySystem::State& s) { return s[0] != 3; }, with_threads(t));
    ASSERT_EQ(r.verdict, Verdict::kViolated) << "threads=" << t;
    ASSERT_EQ(r.trace.size(), 3u);
    EXPECT_EQ(r.trace.front()[0], 0u);
    EXPECT_EQ(r.trace.back()[0], 3u);
  }
}

TEST(ParallelReachability, ViolationInInitialState) {
  ToySystem ts({5}, {{}, {}, {}, {}, {}, {5}});
  auto r = check_invariant_parallel(
      ts, [](const ToySystem::State& s) { return s[0] != 5; }, with_threads(4));
  ASSERT_EQ(r.verdict, Verdict::kViolated);
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace[0][0], 5u);
  EXPECT_EQ(r.stats.depth, 0);
}

TEST(ParallelReachability, DepthLimitReportsLimit) {
  std::vector<std::vector<std::uint64_t>> adj;
  for (std::uint64_t i = 0; i < 100; ++i) adj.push_back({i + 1});
  adj.push_back({100});
  ToySystem ts({0}, adj);
  SearchLimits limits;
  limits.max_depth = 10;
  for (int t : {1, 2}) {
    EngineOptions opts(limits);
    opts.threads = t;
    auto r = check_invariant_parallel(
        ts, [](const ToySystem::State& s) { return s[0] != 100; }, opts);
    EXPECT_EQ(r.verdict, Verdict::kLimit) << "threads=" << t;
    EXPECT_FALSE(r.stats.exhausted);
    EXPECT_EQ(r.stats.depth, 11);  // same bookkeeping as the sequential engine
    EXPECT_EQ(r.stats.states, 12u);
  }
}

TEST(ParallelReachability, StateLimitReportsLimit) {
  std::vector<std::vector<std::uint64_t>> adj;
  for (std::uint64_t i = 0; i < 1000; ++i) adj.push_back({i + 1});
  adj.push_back({1000});
  ToySystem ts({0}, adj);
  SearchLimits limits;
  limits.max_states = 50;
  auto r = count_reachable_parallel(ts, EngineOptions(limits));
  EXPECT_FALSE(r.exhausted);
  EXPECT_GT(r.states, 50u);  // level-granular check overshoots by <= one level
}

TEST(ParallelReachability, CountReachableMatchesSequential) {
  ToySystem ts({0}, {{1, 2}, {3}, {3}, {0}});
  auto seq = count_reachable(ts);
  for (int t : {1, 2, 4}) {
    auto par = count_reachable_parallel(ts, with_threads(t));
    EXPECT_EQ(par.states, seq.states);
    EXPECT_EQ(par.transitions, seq.transitions);
    EXPECT_EQ(par.depth, seq.depth);
    EXPECT_TRUE(par.exhausted);
  }
}

/// Pseudo-random sparse digraphs of 200..499 vertices with min_degree..3
/// out-edges each, drawn from one xorshift stream.
class RandomGraphs {
 public:
  explicit RandomGraphs(int min_degree) : min_degree_(min_degree) {}

  std::uint64_t next() {
    seed_ ^= seed_ << 13;
    seed_ ^= seed_ >> 7;
    seed_ ^= seed_ << 17;
    return seed_;
  }

  std::vector<std::vector<std::uint64_t>> graph() {
    const std::uint64_t n = 200 + next() % 300;
    std::vector<std::vector<std::uint64_t>> adj(n);
    for (std::uint64_t v = 0; v < n; ++v) {
      const int degree = min_degree_ + static_cast<int>(next() % (4 - min_degree_));
      for (int e = 0; e < degree; ++e) adj[v].push_back(next() % n);
    }
    return adj;
  }

 private:
  std::uint64_t seed_ = 42;
  int min_degree_;
};

TEST(ParallelReachability, AgreesWithSequentialOnRandomGraphs) {
  // Compare verdict / states / trace length.
  RandomGraphs graphs(/*min_degree=*/0);
  for (int round = 0; round < 20; ++round) {
    const auto adj = graphs.graph();
    const std::uint64_t n = adj.size();
    ToySystem ts({0}, adj);
    const std::uint64_t bad = graphs.next() % n;
    auto pred = [bad](const ToySystem::State& s) { return s[0] != bad; };
    auto seq = check_invariant(ts, pred);
    for (int t : {1, 2, 4}) {
      auto par = check_invariant_parallel(ts, pred, with_threads(t));
      ASSERT_EQ(par.verdict, seq.verdict) << "round=" << round << " threads=" << t;
      ASSERT_EQ(par.trace.size(), seq.trace.size()) << "round=" << round;
      if (seq.verdict == Verdict::kHolds) {
        ASSERT_EQ(par.stats.states, seq.stats.states) << "round=" << round;
        ASSERT_EQ(par.stats.transitions, seq.stats.transitions);
        ASSERT_EQ(par.stats.depth, seq.stats.depth);
        ASSERT_EQ(par.stats.frontier_sizes, seq.stats.frontier_sizes);
      }
    }
  }
}

TEST(ParallelReachability, OwctyMaterializationRunsTheSameSearch) {
  // Both parallel engines run one frontier core: with a goal that never
  // holds, OWCTY's AG AF phase A sweeps the whole reachable graph exactly
  // like the invariant engine's reachable-state count. Every vertex has a
  // successor, so no goal-free deadlock stops the sweep early.
  RandomGraphs graphs(/*min_degree=*/1);
  auto never = [](const ToySystem::State&) { return false; };
  for (int round = 0; round < 20; ++round) {
    ToySystem ts({0}, graphs.graph());
    for (int t : {1, 2, 4}) {
      const auto count = count_reachable_parallel(ts, with_threads(t));
      const auto owcty = check_always_eventually_parallel(ts, never, with_threads(t));
      ASSERT_EQ(owcty.verdict, LivenessVerdict::kCycle) << "round=" << round << " threads=" << t;
      EXPECT_EQ(owcty.stats.states, count.states) << "round=" << round << " threads=" << t;
      EXPECT_EQ(owcty.stats.transitions, count.transitions) << "round=" << round;
      EXPECT_EQ(owcty.stats.hash_ops, count.hash_ops) << "round=" << round;
      EXPECT_EQ(owcty.stats.dup_transitions, count.dup_transitions) << "round=" << round;
      EXPECT_EQ(owcty.stats.frontier_sizes, count.frontier_sizes) << "round=" << round;
    }
  }
}

TEST(ParallelReachability, IdenticalTracesAcrossThreadCounts) {
  // The determinism guarantee: not just equal-length — byte-identical traces
  // for 1, 2, 4 and 8 threads.
  std::vector<std::vector<std::uint64_t>> adj(500);
  for (std::uint64_t v = 0; v < 500; ++v) {
    adj[v] = {(v * 7 + 1) % 500, (v * 13 + 3) % 500, (v + 1) % 500};
  }
  ToySystem ts({0}, adj);
  auto pred = [](const ToySystem::State& s) { return s[0] != 321; };
  auto base = check_invariant_parallel(ts, pred, with_threads(1));
  ASSERT_EQ(base.verdict, Verdict::kViolated);
  for (int t : {2, 4, 8}) {
    auto r = check_invariant_parallel(ts, pred, with_threads(t));
    EXPECT_EQ(r.verdict, base.verdict);
    EXPECT_EQ(r.trace, base.trace) << "threads=" << t;
    EXPECT_EQ(r.stats.states, base.stats.states);
    EXPECT_EQ(r.stats.frontier_sizes, base.stats.frontier_sizes);
  }
}

TEST(ParallelReachability, ProgressCallbackSeesEveryLevel) {
  ToySystem ts({0}, {{1}, {2}, {3}, {4}, {4}});
  EngineOptions opts;
  opts.threads = 2;
  std::vector<int> depths;
  opts.progress = [&](const LevelProgress& p) { depths.push_back(p.depth); };
  auto r = check_invariant_parallel(ts, [](const ToySystem::State&) { return true; }, opts);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(depths, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ParallelReachability, FrontierSizesRecorded) {
  // 0 -> {1,2} -> {3,4} pattern: levels of size 1, 2, 2.
  ToySystem ts({0}, {{1, 2}, {3}, {4}, {3}, {4}});
  auto seq = check_invariant(ts, [](const ToySystem::State&) { return true; });
  auto par = check_invariant_parallel(ts, [](const ToySystem::State&) { return true; },
                                      with_threads(2));
  const std::vector<std::size_t> expect{1, 2, 2};
  EXPECT_EQ(seq.stats.frontier_sizes, expect);
  EXPECT_EQ(par.stats.frontier_sizes, expect);
}

// ---------------------------------------------------------------------------
// Store equivalence and failure modes (DESIGN.md §3.7): the lock-free store
// must be observationally identical to the locked store — verdicts, counts,
// frontier profiles and byte-identical traces at every thread count — and
// must fail loudly (StateCapacityError, propagated out of the worker pool)
// when a level outgrows its quiescently-grown probe tables.
// ---------------------------------------------------------------------------

EngineOptions with_store(int threads, StoreKind kind, std::size_t budget_bytes = 0) {
  EngineOptions o;
  o.threads = threads;
  o.store.kind = kind;
  o.store.mem_budget_bytes = budget_bytes;
  return o;
}

TEST(ParallelReachability, LockFreeStoreMatchesLockedBitIdentically) {
  std::vector<std::vector<std::uint64_t>> adj(500);
  for (std::uint64_t v = 0; v < 500; ++v) {
    adj[v] = {(v * 7 + 1) % 500, (v * 13 + 3) % 500, (v + 1) % 500};
  }
  ToySystem ts({0}, adj);
  auto pred = [](const ToySystem::State& s) { return s[0] != 321; };
  auto base = check_invariant_parallel(ts, pred, with_store(1, StoreKind::kShardedLocked));
  ASSERT_EQ(base.verdict, Verdict::kViolated);
  for (int t : {1, 2, 4}) {
    auto r = check_invariant_parallel(ts, pred, with_store(t, StoreKind::kLockFree));
    EXPECT_EQ(r.verdict, base.verdict) << "threads=" << t;
    EXPECT_EQ(r.trace, base.trace) << "threads=" << t;  // byte-identical
    EXPECT_EQ(r.stats.states, base.stats.states);
    EXPECT_EQ(r.stats.transitions, base.stats.transitions);
    EXPECT_EQ(r.stats.frontier_sizes, base.stats.frontier_sizes);
  }
}

#if TT_LFSIM_HAS_SPILL
TEST(ParallelReachability, LockFreeStoreSpillsUnderBudgetWithExactCounts) {
  // 64 BFS levels x 640 states: enough full arena pages per shard that the
  // 1-byte budget forces sealed pages out of core mid-run. The beyond-RAM
  // run must finish with counts identical to the unconstrained locked run.
  constexpr std::uint64_t kLevels = 64, kWidth = 640;
  std::vector<std::vector<std::uint64_t>> adj(kLevels * kWidth);
  for (std::uint64_t v = 0; v < (kLevels - 1) * kWidth; ++v) {
    const std::uint64_t next_base = (v / kWidth + 1) * kWidth;
    adj[v] = {next_base + (v * 7 + 1) % kWidth, next_base + (v * 13 + 3) % kWidth};
  }
  std::vector<std::uint64_t> roots(kWidth);
  for (std::uint64_t i = 0; i < kWidth; ++i) roots[i] = i;
  ToySystem ts(roots, adj);
  auto pred = [](const ToySystem::State&) { return true; };

  auto locked = check_invariant_parallel(ts, pred, with_store(2, StoreKind::kShardedLocked));
  auto spilled = check_invariant_parallel(ts, pred,
                                          with_store(2, StoreKind::kLockFree, /*budget=*/1));
  EXPECT_EQ(spilled.verdict, locked.verdict);
  EXPECT_EQ(spilled.stats.states, locked.stats.states);
  EXPECT_EQ(spilled.stats.transitions, locked.stats.transitions);
  EXPECT_EQ(spilled.stats.frontier_sizes, locked.stats.frontier_sizes);
  EXPECT_GT(spilled.stats.pages_compressed, 0u);
  EXPECT_GT(spilled.stats.spill_bytes, 0u) << "budget of 1 byte must force a spill";
  EXPECT_EQ(locked.stats.spill_bytes, 0u);  // locked store has no spill tier
}
#endif  // TT_LFSIM_HAS_SPILL

TEST(ParallelReachability, LockFreeStoreCapacityErrorPropagatesMidLevel) {
  // Star burst: 600 hubs (past the serial-drain cutoff of 128 * threads), each
  // fanning out to 400 unique leaves — 240000 fresh states in one level, ~25x
  // the maintain headroom hint. The concurrent insert path cannot grow
  // mid-level by design, so a drain worker must throw StateCapacityError and
  // the engine must join its pool and rethrow, not hang or corrupt.
  constexpr std::uint64_t kHubs = 600, kFan = 400;
  std::vector<std::vector<std::uint64_t>> adj(1 + kHubs + kHubs * kFan);
  for (std::uint64_t h = 0; h < kHubs; ++h) {
    adj[0].push_back(1 + h);
    auto& fan = adj[1 + h];
    fan.reserve(kFan);
    for (std::uint64_t j = 0; j < kFan; ++j) fan.push_back(1 + kHubs + h * kFan + j);
  }
  ToySystem ts({0}, adj);
  auto pred = [](const ToySystem::State&) { return true; };
  EXPECT_THROW(check_invariant_parallel(ts, pred, with_store(4, StoreKind::kLockFree)),
               StateCapacityError);
  // The locked store grows inline under its shard mutex: same input completes.
  auto r = check_invariant_parallel(ts, pred, with_store(4, StoreKind::kShardedLocked));
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.stats.states, 1 + kHubs + kHubs * kFan);
}

TEST(ParallelReachability, SequentialCountReachableSignalsTruncation) {
  // Satellite regression: a limit-stopped count must carry exhausted=false.
  std::vector<std::vector<std::uint64_t>> adj;
  for (std::uint64_t i = 0; i < 100; ++i) adj.push_back({i + 1});
  adj.push_back({100});
  ToySystem ts({0}, adj);
  SearchLimits limits;
  limits.max_states = 10;
  auto truncated = count_reachable(ts, limits);
  EXPECT_FALSE(truncated.exhausted);
  auto full = count_reachable(ts);
  EXPECT_TRUE(full.exhausted);
  EXPECT_EQ(full.states, 101u);
}

}  // namespace
}  // namespace tt::mc
