// EXP-HOT: microbenchmarks for the successor hot path (DESIGN.md §3.2) —
// the two costs every exhaustive fault-simulation run is made of:
//
//   * raw successor-enumeration throughput: Cluster::successors over the
//     full reachable set of the fig6 safety model (packed emission, no
//     interning) — the generation side of the pipeline;
//   * intern-only throughput: pushing a pre-materialized candidate stream
//     (the real BFS candidate mix: ~99% duplicates at fault degree 6)
//     through ShardedStateIndexMap and LockFreeStateIndexMap, with and
//     without the hash-once + recently-seen-cache front end — the
//     consumption side.
//
// Together they bound what any engine schedule can achieve and make hash /
// cache regressions visible in isolation, without BFS noise on top.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "mc/explore.hpp"
#include "support/bench_report.hpp"
#include "support/hash.hpp"
#include "support/lockfree_state_index_map.hpp"
#include "support/one_core_probe.hpp"
#include "support/recent_cache.hpp"
#include "support/sharded_state_index_map.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "tta/cluster.hpp"

namespace {

constexpr std::size_t kW = tt::tta::Cluster::kWords;
using State = tt::tta::Cluster::State;

bool quick_mode() {
  const char* env = std::getenv("TTSTART_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

tt::tta::ClusterConfig hotpath_config(int n) {
  tt::tta::ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.feedback = true;
  cfg.init_window = n;
  cfg.hub_init_window = n;
  return cfg;
}

/// The reachable set of the fig6 safety model, BFS order: a one-shard store
/// assigns dense ids in insertion order, so it is its own BFS queue.
std::vector<State> reachable_states(const tt::tta::Cluster& cluster) {
  tt::ShardedStateIndexMap<kW> seen;
  auto visit = [&](const State& s) { seen.insert(s, tt::hash_words(s)); };
  cluster.initial_states(visit);
  for (std::uint32_t head = 0; head < seen.size(); ++head) {
    const State s = seen.at(head);
    cluster.successors(s, visit);
  }
  std::vector<State> all;
  all.reserve(seen.size());
  for (std::uint32_t i = 0; i < seen.size(); ++i) all.push_back(seen.at(i));
  return all;
}

/// The full BFS candidate stream (every enumerated transition's target, in
/// frontier order) — the realistic duplicate-heavy mix the interning maps
/// see in production, materialized once so the intern benchmarks measure
/// map cost only.
std::vector<State> candidate_stream(const tt::tta::Cluster& cluster,
                                    const std::vector<State>& all, std::size_t cap) {
  std::vector<State> stream;
  stream.reserve(cap);
  for (const State& s : all) {
    if (stream.size() >= cap) break;
    cluster.successors(s, [&](const State& t) {
      if (stream.size() < cap) stream.push_back(t);
    });
  }
  return stream;
}

/// The successor-enumeration cells: fault 0 puts the Byzantine node at
/// id 0, the fastest digit of the kernel's node-choice odometer; fault 1 at
/// id n-1, the slowest; fault 2 replaces it by a faulty hub 0, whose
/// per-port relay options, not the node's output pairs, fan out a step. The
/// third argument is the tta::Reduction the cluster emits under (0 none,
/// 1 sym, 3 sym+por), over that reduction's own reachable set.
tt::tta::ClusterConfig enumeration_config(int n, int fault) {
  tt::tta::ClusterConfig cfg = hotpath_config(n);
  if (fault == 1) cfg.faulty_node = n - 1;
  if (fault == 2) {
    cfg.faulty_node = tt::tta::ClusterConfig::kNone;
    cfg.faulty_hub = 0;
  }
  return cfg;
}

void BM_SuccessorEnumeration(benchmark::State& state) {
  const tt::tta::Cluster cluster(enumeration_config(static_cast<int>(state.range(0)),
                                                    static_cast<int>(state.range(1))),
                                 static_cast<tt::tta::Reduction>(state.range(2)));
  const auto all = reachable_states(cluster);
  std::size_t transitions = 0;
  for (auto _ : state) {
    std::size_t n = 0;
    std::uint64_t acc = 0;
    for (const State& s : all) {
      cluster.successors(s, [&](const State& t) {
        ++n;
        acc += t[0];
      });
    }
    benchmark::DoNotOptimize(acc);
    transitions = n;
  }
  state.counters["transitions"] =
      benchmark::Counter(static_cast<double>(transitions) * state.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SuccessorEnumeration)
    ->ArgNames({"n", "fault", "red"})
    ->Args({3, 0, 0})
    ->Args({3, 1, 0})
    ->Args({3, 2, 0})
    ->Args({4, 0, 0})
    ->Args({4, 1, 0})
    ->Args({4, 0, 3})
    ->Args({4, 1, 3})
    ->Args({5, 0, 3})
    ->Args({5, 1, 3})
    ->Args({3, 2, 1})
    ->Args({4, 2, 1})
    ->Unit(benchmark::kMillisecond);

void BM_InternSharded(benchmark::State& state) {
  const tt::tta::Cluster cluster(hotpath_config(4));
  const auto stream = candidate_stream(cluster, reachable_states(cluster), 500000);
  const bool cached = state.range(0) != 0;
  for (auto _ : state) {
    tt::ShardedStateIndexMap<kW> map;
    tt::RecentSeenCache cache;
    std::uint64_t acc = 0;
    for (const State& s : stream) {
      const std::uint64_t h = tt::hash_words(s);
      if (cached) {
        const std::uint32_t hint = cache.lookup(h);
        if (hint != tt::RecentSeenCache::kMiss && map.at(hint) == s) {
          acc += hint;
          continue;
        }
      }
      auto [idx, fresh] = map.insert(s, h);
      if (cached) cache.remember(h, idx);
      acc += idx;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(stream.size()) * state.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InternSharded)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_InternLockFree(benchmark::State& state) {
  const tt::tta::Cluster cluster(hotpath_config(4));
  const auto stream = candidate_stream(cluster, reachable_states(cluster), 500000);
  for (auto _ : state) {
    tt::LockFreeStateIndexMap<kW> map;
    std::uint64_t acc = 0;
    for (const State& s : stream) acc += map.insert(s, tt::hash_words(s)).first;
    benchmark::DoNotOptimize(acc);
  }
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(stream.size()) * state.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InternLockFree)->Unit(benchmark::kMillisecond);

/// EXP-HOT contended stage: k threads intern the fig6 candidate stream into
/// one shared 16-shard store, replaying a drain phase's real traffic for
/// both stores: thread w owns the shards s with s % k == w and interns, in
/// stream order, only the stream entries of its shards, so no two threads
/// ever write one shard. Pure insert throughput, no barriers, no
/// maintenance.
void contended_stage(tt::BenchReport& report, const std::vector<State>& stream) {
  std::printf("=== contended insert: owner-sharded locked vs lockfree ===\n");
  tt::TextTable t({"store", "threads", "items", "seconds", "items/sec"});
  const unsigned hw = std::thread::hardware_concurrency();
  // One probed source for the one-core caveat (ROADMAP item 2): on a runner
  // that may effectively have a single CPU, multi-thread contended rows are
  // serialized spin measurements, not contention measurements — skip them
  // instead of emitting numbers that read as (anti-)speedups.
  const bool one_core = tt::probe_possibly_one_core() != 0;
  std::vector<unsigned> counts{1, 2, 4, std::max(1u, hw)};
  if (one_core) counts = {1};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  // Hash once up front: this stage measures store cost, not hashing.
  std::vector<std::uint64_t> hashes(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) hashes[i] = tt::hash_words(stream[i]);

  // Thread w interns the stream positions in work[w], in order.
  auto run = [&](auto& map, const std::vector<std::vector<std::uint32_t>>& work) {
    tt::Timer timer;
    auto intern = [&](const std::vector<std::uint32_t>& mine) {
      std::uint64_t acc = 0;
      for (const std::uint32_t i : mine) acc += map.insert(stream[i], hashes[i]).first;
      benchmark::DoNotOptimize(acc);
    };
    std::vector<std::thread> pool;
    pool.reserve(work.size() - 1);
    for (std::size_t w = 1; w < work.size(); ++w) pool.emplace_back(intern, std::cref(work[w]));
    intern(work[0]);
    for (auto& th : pool) th.join();
    return timer.seconds();
  };

  for (const unsigned k : counts) {
    std::vector<std::vector<std::uint32_t>> owned(k);
    const tt::ShardedStateIndexMap<kW> router(16);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      owned[router.shard_of(hashes[i]) % k].push_back(static_cast<std::uint32_t>(i));
    }
    for (const bool lockfree : {false, true}) {
      tt::BenchRecord rec;
      rec.experiment = tt::strfmt("hotpath/contended/t%u", k);
      rec.engine = "par";
      rec.verdict = "ok";
      rec.store = lockfree ? "lockfree" : "locked";
      if (k > 1) rec.possibly_one_core = tt::probe_possibly_one_core();
      rec.stats.threads = static_cast<int>(k);
      rec.stats.transitions = stream.size();
      // Both stores run the production shard count and an identical pre-size.
      if (lockfree) {
        tt::LockFreeStateIndexMap<kW> map(16);
        map.reserve(stream.size());
        rec.stats.seconds = run(map, owned);
      } else {
        tt::ShardedStateIndexMap<kW> map(16);
        map.reserve(stream.size());
        rec.stats.seconds = run(map, owned);
      }
      report.add(rec);
      const double seconds = rec.stats.seconds;
      t.add_row({rec.store, std::to_string(k), std::to_string(stream.size()),
                 tt::strfmt("%.4f", seconds),
                 tt::strfmt("%.0f",
                            seconds > 0 ? static_cast<double>(stream.size()) / seconds : 0)});
    }
  }
  std::printf("%s", t.render().c_str());
  if (one_core) {
    std::printf("(possibly-one-core runner detected by the runtime probe: the\n"
                " misleading multi-thread contended rows were skipped.)\n");
  }
  std::printf("\n");
}

/// EXP-OOC maintain-pause stage (DESIGN.md §3.9): how long the exploration
/// loop stalls inside quiescent_maintain when sealed pages must leave RAM.
/// `sync` reproduces the pre-write-behind protocol (every enqueue batch is
/// followed by a wait_idle barrier inside the maintain, so the pause covers
/// the disk write); `async` is the default pipeline (enqueue and return,
/// bodies freed once their writes are harvested durable). Identical insert
/// schedule, identical 1 MiB budget, identical unique-state stream — the
/// pause delta is purely the barrier.
void maintain_pause_stage(tt::BenchReport& report, const std::vector<State>& uniq) {
#if TT_LFSIM_HAS_SPILL
  std::printf("=== maintain pause: sync spill barrier vs write-behind ===\n");
  tt::TextTable t({"mode", "states", "maintains", "total_pause_s", "max_pause_s",
                   "sync_waits", "async_pages"});
  // The async win needs a core for the I/O thread to run on while the
  // mutator continues; flag the rows on a possibly-one-core runner where
  // the overlap cannot happen and the two modes converge.
  const int one_core = tt::probe_possibly_one_core();
  // Small enough that the quick-mode n=4 set still crosses several
  // quiescent points (sealing lags one maintain behind the insert wave).
  constexpr std::size_t kChunk = 2048;
  for (const bool sync : {true, false}) {
    tt::LockFreeStateIndexMap<kW> map(1);
    map.set_mem_budget(std::size_t{1} << 20);
    map.set_spill_synchronous(sync);
    double total = 0.0;
    double max_pause = 0.0;
    std::size_t maintains = 0;
    std::size_t i = 0;
    while (i < uniq.size()) {
      const std::size_t end = std::min(i + kChunk, uniq.size());
      for (; i < end; ++i) map.insert(uniq[i], tt::hash_words(uniq[i]));
      tt::Timer timer;
      map.quiescent_maintain();
      const double s = timer.seconds();
      total += s;
      max_pause = std::max(max_pause, s);
      ++maintains;
    }
    tt::BenchRecord rec;
    rec.engine = "seq";
    rec.verdict = "ok";
    rec.store = "lockfree";
    rec.possibly_one_core = one_core;
    rec.stats.states = uniq.size();
    tt::mc::copy_store_stats(map, rec.stats);
    const char* mode = sync ? "sync" : "async";
    for (const bool is_max : {false, true}) {
      rec.experiment = tt::strfmt("hotpath/maintain_pause%s/%s", is_max ? "_max" : "", mode);
      rec.stats.seconds = is_max ? max_pause : total;
      report.add(rec);
    }
    t.add_row({mode, std::to_string(uniq.size()), std::to_string(maintains),
               tt::strfmt("%.5f", total), tt::strfmt("%.5f", max_pause),
               std::to_string(rec.stats.spill_sync_waits),
               std::to_string(rec.stats.spill_async_pages)});
  }
  std::printf("%s", t.render().c_str());
  if (one_core != 0) {
    std::printf("(possibly-one-core runner: the I/O thread has no spare core to\n"
                " overlap on, so the sync/async pause delta is not meaningful here.)\n");
  }
  std::printf("\n");
#else
  (void)report;
  (void)uniq;
  std::printf("(spill tier unsupported on this platform: maintain-pause stage skipped)\n\n");
#endif
}

/// EXP-OOC resident-footprint stage: intern the same unique set into the
/// locked store (raw bodies) and the lock-free store (sealed bodies stay
/// resident, delta-compressed), then record memory_bytes() as the v7
/// resident_bytes column.
void resident_bytes_stage(tt::BenchReport& report, const std::vector<State>& uniq) {
  std::printf("=== resident footprint: locked vs lockfree ===\n");
  tt::TextTable t({"store", "states", "resident_bytes", "bytes/state"});
  auto emit = [&](const char* store, std::size_t bytes) {
    tt::BenchRecord rec;
    rec.experiment = "hotpath/resident/unique_set";
    rec.engine = "seq";
    rec.stats.states = uniq.size();
    rec.verdict = "ok";
    rec.store = store;
    rec.resident_bytes = static_cast<long long>(bytes);
    report.add(rec);
    t.add_row({store, std::to_string(uniq.size()), std::to_string(bytes),
               tt::strfmt("%.2f", uniq.size() ? static_cast<double>(bytes) / uniq.size() : 0)});
  };
  {
    tt::ShardedStateIndexMap<kW> map(1);
    for (const State& s : uniq) map.insert(s, tt::hash_words(s));
    emit("locked", map.memory_bytes());
  }
  {
    tt::LockFreeStateIndexMap<kW> map(1);
    for (const State& s : uniq) map.insert(s, tt::hash_words(s));
    // First maintain publishes the quiescent watermark; the second seals
    // every full page below it.
    map.quiescent_maintain();
    map.quiescent_maintain();
    emit("lockfree", map.memory_bytes());
  }
  std::printf("%s", t.render().c_str());
  std::printf("(both stores hold the same interned set; lockfree seals pages into\n"
              " delta-compressed bodies, so the delta is the body tier.)\n\n");
}

/// The JSON rows: one timed pass per variant over the same stream, so the
/// perf trajectory tracks generation and interning separately.
void emit_report(tt::BenchReport& report) {
  std::printf("\n=== successor-pipeline hot path (fig6 safety model) ===\n");
  tt::TextTable t({"experiment", "engine", "items", "seconds", "items/sec"});
  auto add = [&](const std::string& experiment, const std::string& engine, std::size_t items,
                 double seconds, const std::string& store = {}) {
    tt::BenchRecord rec;
    rec.experiment = experiment;
    rec.engine = engine;
    rec.stats.transitions = items;
    rec.stats.seconds = seconds;
    rec.verdict = "ok";
    rec.store = store;
    report.add(rec);
    t.add_row({experiment, engine, std::to_string(items), tt::strfmt("%.4f", seconds),
               tt::strfmt("%.0f", seconds > 0 ? static_cast<double>(items) / seconds : 0)});
  };

  const int n = quick_mode() ? 4 : 5;
  {
    const tt::tta::Cluster cluster(hotpath_config(n));
    const auto all = reachable_states(cluster);
    tt::Timer timer;
    std::size_t count = 0;
    std::uint64_t acc = 0;
    for (const State& s : all) {
      cluster.successors(s, [&](const State& u) {
        ++count;
        acc += u[0];
      });
    }
    benchmark::DoNotOptimize(acc);
    add(tt::strfmt("hotpath/successors/n%d", n), "enum", count, timer.seconds());
  }

  const tt::tta::Cluster cluster(hotpath_config(4));
  const auto stream = candidate_stream(cluster, reachable_states(cluster), 2000000);
  auto timed = [&](auto&& body) {
    tt::Timer timer;
    std::uint64_t acc = body();
    benchmark::DoNotOptimize(acc);
    return timer.seconds();
  };

  add("hotpath/intern/sharded_cached", "seq", stream.size(), timed([&] {
        tt::ShardedStateIndexMap<kW> map;
        tt::RecentSeenCache cache;
        std::uint64_t acc = 0;
        for (const State& s : stream) {
          const std::uint64_t h = tt::hash_words(s);
          const std::uint32_t hint = cache.lookup(h);
          if (hint != tt::RecentSeenCache::kMiss && map.at(hint) == s) {
            acc += hint;
            continue;
          }
          auto [idx, fresh] = map.insert(s, h);
          cache.remember(h, idx);
          acc += idx;
        }
        return acc;
      }));
  add("hotpath/intern/sharded_serial", "seq", stream.size(), timed([&] {
        tt::ShardedStateIndexMap<kW> map;
        std::uint64_t acc = 0;
        for (const State& s : stream) acc += map.insert(s, tt::hash_words(s)).first;
        return acc;
      }));
  add("hotpath/intern/lockfree_serial", "seq", stream.size(), timed([&] {
        tt::LockFreeStateIndexMap<kW> map;
        std::uint64_t acc = 0;
        for (const State& s : stream) acc += map.insert(s, tt::hash_words(s)).first;
        return acc;
      }),
      "lockfree");
  std::printf("%s", t.render().c_str());
  std::printf("(generation bounds every engine; the cached intern row shows the\n"
              " recently-seen cache absorbing the ~99%% duplicate candidate mix\n"
              " before it reaches the open-addressed probe sequence.)\n\n");

  contended_stage(report, stream);

  // The out-of-core stages work on unique states (pages seal per interned
  // id, so the duplicate-heavy candidate stream would measure nothing): the
  // full reachable set of the fig6 safety model at n=5 (n=4 in quick mode).
  const tt::tta::Cluster big(hotpath_config(n));
  const auto uniq = reachable_states(big);
  maintain_pause_stage(report, uniq);
  resident_bytes_stage(report, uniq);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tt::BenchReport report("bench_hotpath");
  emit_report(report);
  report.write();
  return 0;
}
