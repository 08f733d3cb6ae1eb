// Level-synchronous parallel BFS over a TransitionSystem — the parallel
// frontier engine behind the invariant lemmas.
//
// Each BFS level runs in two phases over a fixed partition of the frontier:
//
//   expand: worker threads claim chunks of the frontier (atomic counter),
//           enumerate successors, hash each candidate exactly once, kill
//           duplicates against a per-thread recently-seen cache and then the
//           sharded store (lock-free find — the store is frozen during this
//           phase) and route surviving (state, parent, hash) candidates into
//           per-chunk, per-shard buffers.
//   drain:  worker threads claim whole shards; the owner of shard s walks the
//           chunk buffers *in chunk order* and interns every candidate
//           reusing its expand-phase hash (lock-striped insert), assigns
//           parent links and collects fresh ids.
//
// Determinism guarantee: walking chunk buffers in chunk order replays, for
// every shard, exactly the frontier-order candidate sequence — chunk
// boundaries only decide which thread buffered a candidate, never its
// position in that sequence. Shard ownership is exclusive, so per-shard
// insertion order — and with it every dense id, parent link and the next
// frontier (per-shard fresh lists concatenated in shard order) — is
// independent of both thread scheduling and chunk geometry. A run with 1, 2
// or 4 threads (or any other count) therefore interns the same states under
// the same ids, picks the same minimal-(depth, id) violation and
// reconstructs the *identical* counterexample trace, even though the chunk
// size adapts to frontier.size()/threads. The per-thread caches cannot
// perturb this: they only ever suppress candidates already interned in a
// previous level, which the frozen-store find would have suppressed anyway.
// Traces are BFS-minimal, like the sequential engine's.
//
// Small frontiers fall back to a serial level run by the coordinating thread
// alone (no barrier crossings, unlocked inserts) — the two-phase order is
// preserved, so the fallback is invisible to the determinism guarantee; it
// only removes the synchronization overhead that made the parallel engine
// lose to the sequential one on shallow or narrow state spaces.
//
// Requirements on the model: TS::successors and the property predicate must
// be safe to call concurrently on a const system (all bundled models are
// immutable after construction).
#pragma once

#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mc/engine.hpp"
#include "mc/explore.hpp"
#include "mc/reachability.hpp"
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/lockfree_state_index_map.hpp"
#include "support/recent_cache.hpp"
#include "support/sharded_state_index_map.hpp"
#include "support/timer.hpp"

namespace tt::mc {

namespace detail {

/// check_invariant_parallel over a sharded store type (ShardedStateIndexMap
/// or LockFreeStateIndexMap — identical id encoding, identical shard
/// routing, so identical results); see the public dispatcher below.
template <class Map, TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_parallel_impl(const TS& ts, Pred&& holds,
                                                                const EngineOptions& opts) {
  using State = typename TS::State;
  constexpr std::uint32_t kNone = Map::kEmpty;
  // The shard count is a fixed constant; chunk geometry may vary freely (see
  // the determinism argument in the header comment).
  constexpr unsigned kShards = 16;
  constexpr std::size_t kMinChunk = 64;
  // Below this many frontier states per worker a level runs serially on the
  // coordinating thread: barrier crossings would cost more than the work.
  constexpr std::size_t kSerialFrontierPerThread = 128;

  const int threads = resolve_threads(opts.threads);
  const SearchLimits& limits = opts.limits;

  Timer timer;
  obs::Span run_span("bfs.parallel");
  InvariantResult<TS> result;
  result.stats.threads = threads;

  Map seen(kShards);
  detail::apply_store_options(seen, opts.store);
  if (limits.states_bounded()) {
    seen.reserve(limits.max_states + limits.max_states / 8 + kShards);
  }

  std::array<std::vector<std::uint32_t>, kShards> parent;  // local id -> parent global id
  std::array<std::vector<std::uint32_t>, kShards> fresh;   // ids interned this level
  std::array<std::uint32_t, kShards> shard_bad;            // min violating id per shard

  struct Cand {
    State s;
    std::uint32_t parent;
    std::uint64_t hash;  ///< hash_words(s), computed once in the expand phase
  };
  struct ChunkOut {
    std::array<std::vector<Cand>, kShards> bucket;
  };
  struct ThreadCtx {
    std::size_t transitions = 0;
    std::size_t hash_ops = 0;
    std::size_t cache_hits = 0;
    std::size_t dups = 0;
    RecentSeenCache cache;
    std::vector<std::unique_ptr<ChunkOut>> pool;
    std::size_t pool_used = 0;
    ChunkOut* acquire() {
      if (pool_used == pool.size()) pool.push_back(std::make_unique<ChunkOut>());
      return pool[pool_used++].get();
    }
  };
  std::vector<ThreadCtx> ctx(static_cast<std::size_t>(threads));

  std::vector<std::uint32_t> frontier;
  std::vector<ChunkOut*> chunk_out;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<unsigned> next_shard{0};
  std::size_t nchunks = 0;
  std::size_t chunk_size = kMinChunk;

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto record_error = [&] {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error) first_error = std::current_exception();
  };

  bool violated = false;
  bool limit_hit = false;
  std::uint32_t bad_id = kNone;
  int depth = 0;
  obs::ManualSpan level_span;  // coordinator-owned: one span per BFS level

  auto expand_work = [&](ThreadCtx& c) {
    try {
      // One span per worker per level; workers emit into their own
      // thread-local buffers, so this is contention-free.
      obs::Span span("bfs.expand");
      std::size_t ci;
      while ((ci = next_chunk.fetch_add(1, std::memory_order_relaxed)) < nchunks) {
        ChunkOut* out = c.acquire();
        for (auto& b : out->bucket) b.clear();
        const std::size_t begin = ci * chunk_size;
        const std::size_t end = std::min(begin + chunk_size, frontier.size());
        for (std::size_t p = begin; p < end; ++p) {
          const std::uint32_t from = frontier[p];
          const State s = seen.at(from);
          ts.successors(s, [&](const State& t) {
            ++c.transitions;
            // Hash-once contract: the single hash_words call this candidate
            // ever sees. Cache probe, frozen-store find, and the drain-phase
            // insert (via Cand::hash) all reuse it.
            ++c.hash_ops;
            const std::uint64_t h = hash_words(t);
            const std::uint32_t hint = c.cache.lookup(h);
            if (hint != RecentSeenCache::kMiss && seen.at(hint) == t) {
              ++c.cache_hits;
              ++c.dups;
              return;  // interned in a previous level
            }
            const std::uint32_t id = seen.find(t, h);
            if (id != kNone) {
              c.cache.remember(h, id);
              ++c.dups;
              return;  // interned in a previous level
            }
            out->bucket[seen.shard_of(h)].push_back(Cand{t, from, h});
          });
        }
        chunk_out[ci] = out;
      }
    } catch (...) {
      record_error();
    }
  };

  auto drain_work = [&](ThreadCtx& c, bool locked) {
    try {
      obs::Span span("bfs.drain");
      unsigned sh;
      while ((sh = next_shard.fetch_add(1, std::memory_order_relaxed)) < kShards) {
        auto& fr = fresh[sh];
        fr.clear();
        std::uint32_t bad = kNone;
        for (std::size_t ci = 0; ci < nchunks; ++ci) {
          for (const Cand& cd : chunk_out[ci]->bucket[sh]) {
            const auto [id, is_new] =
                locked ? seen.insert(cd.s, cd.hash) : seen.insert_serial(cd.s, cd.hash);
            if (!is_new) {
              ++c.dups;  // duplicate within this level
              continue;
            }
            c.cache.remember(cd.hash, id);
            parent[sh].push_back(cd.parent);
            fr.push_back(id);
            if (bad == kNone && !holds(cd.s)) bad = id;  // ids grow within a shard
          }
        }
        shard_bad[sh] = bad;
      }
    } catch (...) {
      record_error();
    }
  };

  auto setup_level = [&] {
    // Chunks sized from the frontier and thread count: a handful of chunks
    // per worker balances load without the fixed-size-256 bookkeeping that
    // dominated small levels. Determinism is chunk-geometry independent.
    chunk_size = std::max<std::size_t>(
        kMinChunk, frontier.size() / (static_cast<std::size_t>(threads) * 4));
    nchunks = (frontier.size() + chunk_size - 1) / chunk_size;
    chunk_out.assign(nchunks, nullptr);
    next_chunk.store(0, std::memory_order_relaxed);
    next_shard.store(0, std::memory_order_relaxed);
    for (auto& c : ctx) c.pool_used = 0;
  };

  /// Sequential inter-level step; returns true when exploration must stop.
  auto finish_level = [&]() -> bool {
    level_span.end();
    for (auto& c : ctx) {
      result.stats.transitions += c.transitions;
      c.transitions = 0;
    }
    if (first_error) return true;
    for (unsigned sh = 0; sh < kShards; ++sh) {
      if (shard_bad[sh] != kNone && (bad_id == kNone || shard_bad[sh] < bad_id)) {
        bad_id = shard_bad[sh];
      }
    }
    if (bad_id != kNone) {
      violated = true;
      return true;
    }
    frontier.clear();
    for (unsigned sh = 0; sh < kShards; ++sh) {
      frontier.insert(frontier.end(), fresh[sh].begin(), fresh[sh].end());
    }
    if (frontier.empty()) return true;  // reachable set exhausted
    result.stats.frontier_sizes.push_back(frontier.size());
    // The store is quiescent between drain and the next expand: seal closed
    // pages, spill past the budget, grow the probe tables with headroom for
    // the coming level (so the lock-free insert path never grows mid-phase).
    // A write-behind failure (ENOSPC on the I/O thread) surfaces here as
    // StateCapacityError; it must flow through the star-burst error channel —
    // throwing with workers parked at the barrier would terminate.
    try {
      detail::maintain_store(seen, frontier.size() * 16);
    } catch (...) {
      record_error();
      return true;
    }
    if (opts.progress) {
      opts.progress(LevelProgress{depth + 1, seen.size(), result.stats.transitions,
                                  frontier.size(), timer.seconds()});
    }
    obs::progress_tick({.phase = "par-bfs",
                        .states = seen.size(),
                        .transitions = result.stats.transitions,
                        .frontier = frontier.size(),
                        .depth = depth + 1,
                        .seconds = timer.seconds()});
    if (seen.size() > limits.max_states) {
      limit_hit = true;
      return true;
    }
    ++depth;
    if (depth > limits.max_depth) {
      limit_hit = true;
      return true;
    }
    setup_level();
    level_span.begin("bfs.level", depth, "depth");
    return false;
  };

  // Interning the initial states is serial: their ids and parent links must
  // not depend on enumeration timing.
  ts.initial_states([&](const State& s) {
    ++ctx[0].hash_ops;
    const auto [id, is_new] = seen.insert_serial(s, hash_words(s));
    if (!is_new) return;
    parent[seen.shard_of_id(id)].push_back(kNone);
    frontier.push_back(id);
    if ((bad_id == kNone || id < bad_id) && !holds(s)) bad_id = id;
  });
  result.stats.frontier_sizes.push_back(frontier.size());
  violated = bad_id != kNone;

  if (!violated && !frontier.empty() && seen.size() <= limits.max_states) {
    detail::maintain_store(seen, frontier.size() * 16);  // headroom for level 1
    setup_level();
    level_span.begin("bfs.level", depth, "depth");
    const std::size_t serial_below =
        threads > 1 ? kSerialFrontierPerThread * static_cast<std::size_t>(threads) : 0;
    if (threads == 1) {
      do {
        expand_work(ctx[0]);
        drain_work(ctx[0], /*locked=*/false);
      } while (!finish_level());
    } else {
      std::barrier sync(threads);
      std::atomic<bool> stop{false};
      auto worker = [&](int tid) {
        ThreadCtx& c = ctx[static_cast<std::size_t>(tid)];
        while (true) {
          sync.arrive_and_wait();  // parallel level ready / stop decided
          if (stop.load(std::memory_order_relaxed)) break;
          expand_work(c);
          sync.arrive_and_wait();  // expansion complete, store quiescent
          drain_work(c, /*locked=*/true);
          sync.arrive_and_wait();  // drain complete
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads - 1));
      for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
      // Coordinator (this thread): small levels run serially without waking
      // the workers, which stay parked at the top barrier.
      bool done = false;
      while (!done) {
        if (frontier.size() < serial_below) {
          expand_work(ctx[0]);
          drain_work(ctx[0], /*locked=*/false);
          done = finish_level();
        } else {
          sync.arrive_and_wait();  // release workers into this level
          expand_work(ctx[0]);
          sync.arrive_and_wait();
          drain_work(ctx[0], /*locked=*/true);
          sync.arrive_and_wait();
          done = finish_level();
        }
      }
      stop.store(true, std::memory_order_relaxed);
      sync.arrive_and_wait();  // release workers to observe stop
      for (auto& th : pool) th.join();
    }
  } else if (!violated && seen.size() > limits.max_states && !frontier.empty()) {
    limit_hit = true;
  }
  if (first_error) std::rethrow_exception(first_error);

  run_span.set_arg("states", static_cast<std::int64_t>(seen.size()));
  result.stats.states = seen.size();
  result.stats.depth = depth;
  result.stats.memory_bytes = seen.memory_bytes() + frontier.capacity() * sizeof(std::uint32_t);
  for (const auto& p : parent) result.stats.memory_bytes += p.capacity() * sizeof(std::uint32_t);
  for (const auto& c : ctx) {
    result.stats.hash_ops += c.hash_ops;
    result.stats.cache_hits += c.cache_hits;
    result.stats.dup_transitions += c.dups;
    result.stats.memory_bytes += c.cache.memory_bytes();
  }
  detail::copy_store_stats(seen, result.stats);
  result.stats.seconds = timer.seconds();
  if (violated) {
    result.verdict = Verdict::kViolated;
    result.trace = detail::reconstruct_trace<State>(
        bad_id, kNone, [&](std::uint32_t id) { return seen.at(id); },
        [&](std::uint32_t id) { return parent[seen.shard_of_id(id)][seen.local_of_id(id)]; });
  } else {
    result.verdict = limit_hit ? Verdict::kLimit : Verdict::kHolds;
  }
  result.stats.exhausted = result.verdict != Verdict::kLimit;
  return result;
}

}  // namespace detail

/// Parallel G(holds) check; the frontier-parallel counterpart of
/// check_invariant. Verdicts agree with the sequential engine; on violation
/// the trace is shortest (BFS) and identical for every thread count — and
/// for either store (EngineOptions::store picks the lock-striped or the
/// lock-free table; both assign the same ids in the same order). Search
/// limits are enforced at level granularity (the sequential engine checks
/// mid-level), so limit-stopped runs may intern slightly more states.
template <TransitionSystem TS, class Pred>
[[nodiscard]] InvariantResult<TS> check_invariant_parallel(const TS& ts, Pred&& holds,
                                                           const EngineOptions& opts = {}) {
  if (opts.store.kind == StoreKind::kLockFree) {
    return detail::check_invariant_parallel_impl<LockFreeStateIndexMap<TS::kWords>>(
        ts, std::forward<Pred>(holds), opts);
  }
  return detail::check_invariant_parallel_impl<ShardedStateIndexMap<TS::kWords>>(
      ts, std::forward<Pred>(holds), opts);
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
