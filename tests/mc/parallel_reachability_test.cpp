#include "mc/reachability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mc/frontier_search.hpp"
#include "mc/parallel_liveness.hpp"
#include "mc/symbolic_reachability.hpp"
#include "toy_system.hpp"

namespace tt::mc {
namespace {

using mc_test::ToySystem;

EngineOptions with_threads(int t) {
  EngineOptions o;
  o.threads = t;
  return o;
}

EngineOptions with_store(int threads, StoreKind kind, std::size_t budget_bytes = 0) {
  EngineOptions o;
  o.threads = threads;
  o.store.kind = kind;
  o.store.mem_budget_bytes = budget_bytes;
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
  // 3-edge one, at every thread count. The run's depth is the bad state's
  // level, on the symbolic engine too.
  ToySystem ts({0}, {{1, 2}, {3}, {4}, {3}, {3}});
  const auto not3 = [](const ToySystem::State& s) { return s[0] != 3; };
  for (int t : {1, 2, 4}) {
    auto r = check_invariant_parallel(ts, not3, with_threads(t));
    ASSERT_EQ(r.verdict, Verdict::kViolated) << "threads=" << t;
    ASSERT_EQ(r.trace.size(), 3u);
    EXPECT_EQ(r.trace.front()[0], 0u);
    EXPECT_EQ(r.trace.back()[0], 3u);
    EXPECT_EQ(r.stats.depth, 2) << "threads=" << t;
  }
  auto sym = check_invariant_symbolic(ts, not3);
  ASSERT_EQ(sym.verdict, Verdict::kViolated);
  ASSERT_EQ(sym.trace.size(), 3u);
  EXPECT_EQ(sym.stats.depth, 2);
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

// --- more threads than shards -----------------------------------------------

/// 8 levels of 4096 states, every state of level 0 initial. Each state has
/// three edges into the next level and one back into the previous one, so
/// every level past the roots is 4096 wide: above the parallel cutoff of
/// 128 items per worker at 17 threads, with in-level and cross-level
/// duplicates on both paths.
ToySystem wide_layers() {
  constexpr std::uint64_t kWidth = 4096, kLevels = 8;
  std::vector<std::vector<std::uint64_t>> adj(kWidth * kLevels);
  for (std::uint64_t v = 0; v < adj.size(); ++v) {
    const std::uint64_t level = v / kWidth, i = v % kWidth;
    const std::uint64_t next = (level + 1) % kLevels * kWidth;
    adj[v] = {next + (i * 7 + 1) % kWidth, next + (i * 13 + 3) % kWidth,
              next + (i * 31 + 11) % kWidth};
    if (level > 0) adj[v].push_back(v - kWidth);
  }
  std::vector<std::uint64_t> roots(kWidth);
  for (std::uint64_t i = 0; i < kWidth; ++i) roots[i] = i;
  return ToySystem(roots, adj);
}

/// The fresh states of wide_layers' level 6 whose index is 100 mod 512, so
/// the reported witness is the minimal id among eight candidates.
bool level6_mod512(std::uint64_t v) { return v / 4096 == 6 && v % 512 == 100; }

/// Records every fresh (id, state) pair in the interning thread's Local and
/// flags the fresh states `flags` picks.
struct RecordingHooks : detail::FrontierHooks {
  static constexpr detail::FrontierNames kNames{"rec.expand", "rec.drain", "rec.level", "rec"};
  struct Local {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> fresh;
  };
  bool (*flags)(std::uint64_t) = level6_mod512;
  void known(Local&, std::uint32_t /*from*/, std::uint32_t /*id*/, const Tag&) const {}
  bool expanded(Local&, std::uint32_t /*from*/, const Tag&, std::size_t /*emitted*/) const {
    return false;
  }
  bool interned(Local& l, unsigned /*shard*/, std::uint32_t id, bool is_new,
                const ToySystem::State& s, std::uint32_t /*parent*/, const Tag&) const {
    if (is_new) l.fresh.emplace_back(id, s[0]);
    return is_new && flags(s[0]);
  }
};

struct RecordedRun {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ids;  // sorted by id
  std::uint32_t witness = 0;
  std::vector<ToySystem::State> trace;
  RunStats stats;
};

RecordedRun record_run(const ToySystem& ts, const EngineOptions& opts,
                       bool (*flags)(std::uint64_t) = level6_mod512) {
  return detail::with_frontier_store<ToySystem::kWords>(opts.store, [&]<class Map>() {
    RecordedRun run;
    RecordingHooks hooks;
    hooks.flags = flags;
    detail::FrontierSearch<Map, ToySystem, RecordingHooks> search(ts, hooks, opts, run.stats);
    search.run();
    search.finish_stats();
    for (auto& c : search.contexts()) {
      run.ids.insert(run.ids.end(), c.local.fresh.begin(), c.local.fresh.end());
    }
    std::sort(run.ids.begin(), run.ids.end());
    run.witness = search.witness();
    if (run.witness != Map::kEmpty) run.trace = search.trace_to(run.witness);
    return run;
  });
}

TEST(ParallelReachability, MoreThreadsThanShardsKeepsIdsAndTraces) {
  // 16 threads claim one shard each in drain, 17 leave one thread without a
  // shard; ids, frontiers, the witness and its trace must not notice.
  const ToySystem ts = wide_layers();
  auto goal = [](const ToySystem::State& s) { return s[0] / 4096 == 7; };
  for (StoreKind kind : {StoreKind::kShardedLocked, StoreKind::kLockFree}) {
    const RecordedRun base = record_run(ts, with_store(1, kind));
    ASSERT_EQ(base.stats.frontier_sizes,
              (std::vector<std::size_t>{4096, 4096, 4096, 4096, 4096, 4096}));
    ASSERT_EQ(base.ids.size(), 7u * 4096);
    ASSERT_EQ(base.trace.size(), 7u);
    const auto base_live = check_eventually_parallel(ts, goal, with_store(1, kind));
    ASSERT_EQ(base_live.verdict, LivenessVerdict::kCycle);
    for (int t : {16, 17}) {
      const RecordedRun r = record_run(ts, with_store(t, kind));
      const std::string at = std::string(to_string(kind)) + " threads=" + std::to_string(t);
      EXPECT_EQ(r.ids, base.ids) << at;
      EXPECT_EQ(r.stats.frontier_sizes, base.stats.frontier_sizes) << at;
      EXPECT_EQ(r.witness, base.witness) << at;
      EXPECT_EQ(r.trace, base.trace) << at;
      EXPECT_EQ(r.stats.transitions, base.stats.transitions) << at;
      EXPECT_EQ(r.stats.hash_ops, r.stats.transitions + 4096) << at;

      const auto live = check_eventually_parallel(ts, goal, with_store(t, kind));
      EXPECT_EQ(live.verdict, base_live.verdict) << at;
      EXPECT_EQ(live.stats.states, base_live.stats.states) << at;
      EXPECT_EQ(live.stats.frontier_sizes, base_live.stats.frontier_sizes) << at;
      EXPECT_EQ(live.trace, base_live.trace) << at;
      EXPECT_EQ(live.loop_start, base_live.loop_start) << at;
    }
  }
}

TEST(ParallelReachability, RepeatsOfAStateNewInItsLevelHitTheCache) {
  // 600 roots all emit state 600, whose successor 601 is flagged. At one
  // thread every level is serial: 600 is interned at its first emission and
  // its 599 repeats die in the cache. At four threads the 600-root frontier
  // is above the parallel cutoff (128 per thread), so the repeats travel to
  // drain instead; ids, frontiers, witness and trace must not notice.
  constexpr std::uint64_t kRoots = 600;
  std::vector<std::vector<std::uint64_t>> adj(kRoots + 2, {kRoots});
  adj[kRoots] = {kRoots + 1};
  adj[kRoots + 1] = {kRoots + 1};
  std::vector<std::uint64_t> roots(kRoots);
  for (std::uint64_t i = 0; i < kRoots; ++i) roots[i] = i;
  const ToySystem ts(roots, adj);
  auto flags = [](std::uint64_t v) { return v == kRoots + 1; };
  for (StoreKind kind : {StoreKind::kShardedLocked, StoreKind::kLockFree}) {
    const RecordedRun one = record_run(ts, with_store(1, kind), flags);
    EXPECT_EQ(one.stats.cache_hits, kRoots - 1) << to_string(kind);
    EXPECT_EQ(one.stats.dup_transitions, kRoots - 1) << to_string(kind);
    ASSERT_EQ(one.trace.size(), 3u) << to_string(kind);
    EXPECT_EQ(one.trace[1][0], kRoots) << to_string(kind);
    const RecordedRun four = record_run(ts, with_store(4, kind), flags);
    EXPECT_EQ(four.ids, one.ids) << to_string(kind);
    EXPECT_EQ(four.stats.frontier_sizes, one.stats.frontier_sizes) << to_string(kind);
    EXPECT_EQ(four.stats.dup_transitions, one.stats.dup_transitions) << to_string(kind);
    EXPECT_EQ(four.witness, one.witness) << to_string(kind);
    EXPECT_EQ(four.trace, one.trace) << to_string(kind);
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
// frontier profiles and byte-identical traces at every thread count — also
// when a level outgrows the probe tables grown between levels.
// ---------------------------------------------------------------------------

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

TEST(ParallelReachability, BothStoresGrowMidLevelThroughAStarBurst) {
  // Star burst: 600 hubs (past the serial-drain cutoff of 128 * threads), each
  // fanning out to 400 unique leaves — 240000 fresh states in one level, ~25x
  // the maintain headroom hint. Each drain owner grows its own shards' tables
  // inline, so both stores finish with the exact count.
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
  for (StoreKind kind : {StoreKind::kShardedLocked, StoreKind::kLockFree}) {
    auto r = check_invariant_parallel(ts, pred, with_store(4, kind));
    EXPECT_EQ(r.verdict, Verdict::kHolds) << to_string(kind);
    EXPECT_EQ(r.stats.states, 1 + kHubs + kHubs * kFan) << to_string(kind);
  }
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
