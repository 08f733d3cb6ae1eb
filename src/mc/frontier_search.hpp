// The level-synchronous frontier core shared by every explicit BFS: the
// invariant engine (reachability.hpp, at any thread count: `seq` is this
// core at one thread) and the materialization phase of the OWCTY liveness
// engine (parallel_liveness.hpp). It owns the sharded store, the level loop,
// the worker pool and the inter-level step; each engine plugs its
// per-property work in as compile-time hooks.
//
// A level large enough for the pool runs in two phases over a fixed
// partition of the frontier:
//
//   expand: worker threads claim chunks of the frontier (atomic counter),
//           enumerate successors, hash each candidate exactly once, kill
//           duplicates against a per-thread recently-seen cache and then the
//           sharded store (a plain find — the store is frozen during this
//           phase) and route surviving (state, parent, hash) candidates into
//           per-chunk, per-shard buffers.
//   drain:  worker threads claim whole shards; the owner of shard s walks the
//           chunk buffers *in chunk order* and interns every candidate
//           reusing its expand-phase hash (an unlocked insert: the owner is
//           the shard's only writer), assigns parent links and collects
//           fresh ids. Each shard's store part and link/fresh lists sit on
//           cache lines of their own, so owners never write a shared line.
//
// Any other level — every level at one thread — is a serial level: the
// coordinating thread expands and interns in one pass, in emission order.
// A state new in the level is interned, and remembered by the cache, at its
// first emission, so its repeats die in the cache instead of travelling to a
// drain (the two-phase level cannot remember a state before drain interns
// it).
//
// Determinism guarantee: walking chunk buffers in chunk order replays, for
// every shard, exactly the frontier-order candidate sequence — chunk
// boundaries only decide which thread buffered a candidate, never its
// position in that sequence. A serial level inserts that same sequence in
// that same order. Shard ownership is exclusive, so per-shard insertion
// order — and with it every dense id, parent link and the next frontier
// (per-shard fresh lists concatenated in shard order) — is independent of
// thread scheduling, chunk geometry and the level's kind. A run with 1, 2 or
// 4 threads (or any other count) therefore interns the same states under the
// same ids, flags the same minimal witness and reconstructs the *identical*
// trace. The per-thread caches cannot perturb this: they only ever suppress
// candidates already interned before their emission, which the store would
// have reported as duplicates anyway.
//
// Requirements on the model: TS::successors and every predicate a hook calls
// must be safe to call concurrently on a const system (all bundled models are
// immutable after construction).
#pragma once

#include <algorithm>
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
#include "mc/run_stats.hpp"
#include "mc/transition_system.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/function_ref.hpp"
#include "support/hash.hpp"
#include "support/lockfree_state_index_map.hpp"
#include "support/recent_cache.hpp"
#include "support/sharded_state_index_map.hpp"
#include "support/timer.hpp"

namespace tt::mc::detail {

/// Shard count of the frontier store. A fixed constant: chunk geometry may
/// vary freely (see the determinism argument above), shard routing may not.
inline constexpr unsigned kFrontierShards = 16;

/// Runs `f.template operator()<Map>()` with the 16-shard store the options
/// select. Both stores assign identical (shard, local) ids in the same order,
/// so verdicts, counts and traces do not depend on the choice; only the
/// storage internals (compression, spill) do.
template <std::size_t W, class F>
decltype(auto) with_frontier_store(const StoreOptions& store, F&& f) {
  if (store.kind == StoreKind::kLockFree) {
    return f.template operator()<LockFreeStateIndexMap<W>>();
  }
  return f.template operator()<ShardedStateIndexMap<W>>();
}

/// Worker pool for level-synchronous phases: `threads - 1` parked workers
/// plus the calling (coordinating) thread. run(task) publishes `task`,
/// releases the workers through one barrier, runs task(0) itself and returns
/// once every thread has passed the closing barrier. The first exception any
/// thread threw is rethrown there, with every worker parked again, so the
/// coordinator may throw between phases and the destructor still joins.
class PhasePool {
 public:
  using Task = FunctionRef<void(int)>;

  explicit PhasePool(int threads) : sync_(threads) {
    try {
      for (int t = 1; t < threads; ++t) workers_.emplace_back([this, t] { serve(t); });
    } catch (...) {
      // Workers that never started cannot arrive: give up their places.
      for (auto n = workers_.size() + 1; n < static_cast<std::size_t>(threads); ++n) {
        sync_.arrive_and_drop();
      }
      stop();
      throw;
    }
  }
  ~PhasePool() { stop(); }
  PhasePool(const PhasePool&) = delete;
  PhasePool& operator=(const PhasePool&) = delete;

  void run(Task task) {
    task_.store(&task, std::memory_order_relaxed);
    sync_.arrive_and_wait();  // phase published
    guarded(task, 0);
    sync_.arrive_and_wait();  // phase complete, workers parked
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void serve(int tid) {
    while (true) {
      sync_.arrive_and_wait();  // phase published / stop decided
      const Task* task = task_.load(std::memory_order_relaxed);
      if (task == nullptr) return;
      guarded(*task, tid);
      sync_.arrive_and_wait();  // phase complete
    }
  }

  void guarded(Task task, int tid) noexcept {
    try {
      task(tid);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void stop() noexcept {
    task_.store(nullptr, std::memory_order_relaxed);
    sync_.arrive_and_wait();  // release workers to observe the stop
    for (auto& w : workers_) w.join();
  }

  std::barrier<> sync_;
  std::atomic<const Task*> task_{nullptr};
  std::mutex error_mu_;
  std::exception_ptr error_;  // guarded by error_mu_
  std::vector<std::thread> workers_;
};

/// Span and progress-phase names of one FrontierSearch client; a trace tells
/// the engines apart by them.
struct FrontierNames {
  const char* expand;
  const char* drain;
  const char* level;
  const char* progress;
};

/// The hooks an engine's hook type provides; FrontierSearch calls each one
/// statically, on the per-transition path included. Deriving from
/// FrontierHooks supplies no-op defaults for all but `kNames` (a
/// FrontierNames) and `interned`.
///
///   source(seen, from)  expand: the tag every successor of frontier state
///                       `from` starts from (initial states start from Tag{}).
///   admit(t, tag)       per emitted successor and initial state: false drops
///                       it before it is hashed; may refine `tag`.
///   known(l, from, id, tag)
///                       expand: the successor was interned before this
///                       emission, as `id` (in an earlier level, or earlier
///                       in a serial level).
///   expanded(l, from, src, emitted)
///                       expand: `from` emitted `emitted` successors
///                       (admitted or not); true flags `from` as a witness.
///   interned(l, shard, id, is_new, s, parent, tag)
///                       root seeding, drain and serial levels, once per
///                       admitted candidate that reached the store and was
///                       not reported to `known`; true flags `id` as a
///                       witness. A serial level reports its repeats to
///                       `known`, so there is_new is always true.
///
/// A flagged witness stops the search after the level that flagged it; the
/// minimal flagged id of that level is reported.
struct FrontierHooks {
  struct Tag {};    ///< per-candidate payload carried from expand to drain
  struct Local {};  ///< per-thread engine state
  template <class Map>
  Tag source(const Map& /*seen*/, std::uint32_t /*from*/) const {
    return {};
  }
  template <class State>
  bool admit(const State& /*t*/, Tag& /*tag*/) const {
    return true;
  }
  void known(Local&, std::uint32_t /*from*/, std::uint32_t /*id*/, const Tag&) const {}
  bool expanded(Local&, std::uint32_t /*from*/, const Tag&, std::size_t /*emitted*/) const {
    return false;
  }
};

/// The level-synchronous BFS over `Map` (a 16-shard store, see
/// with_frontier_store), parameterized by the engine's `Hooks`.
template <class Map, TransitionSystem TS, class Hooks>
class FrontierSearch {
 public:
  using State = typename TS::State;
  using Tag = typename Hooks::Tag;
  using Local = typename Hooks::Local;
  static constexpr std::uint32_t kNone = Map::kEmpty;

 private:
  static constexpr std::size_t kMinChunk = 64;
  // Below this many work items per worker a phase (or a whole level) runs
  // serially on the coordinating thread: barrier crossings would cost more
  // than the work.
  static constexpr std::size_t kSerialWorkPerThread = 128;

  struct Cand {
    State s;
    std::uint32_t parent;
    std::uint64_t hash;  ///< hash_words(s), computed once in the expand phase
    [[no_unique_address]] Tag tag;
  };
  struct alignas(64) ChunkOut {
    std::array<std::vector<Cand>, kFrontierShards> bucket;
  };
  /// What drain writes per shard, on a cache line of its own: only the
  /// shard's owner touches it during a phase.
  struct alignas(64) ShardLists {
    std::vector<std::uint32_t> parent;  ///< local id -> parent id
    std::vector<std::uint32_t> fresh;   ///< ids interned this level
  };

 public:
  /// Per-worker state; cache-line aligned so the counters of neighbouring
  /// workers never share a line.
  struct alignas(64) ThreadCtx {
    std::size_t transitions = 0;
    std::size_t hash_ops = 0;
    std::size_t cache_hits = 0;
    std::size_t dups = 0;
    std::uint32_t witness = kNone;  ///< minimal id flagged this level
    RecentSeenCache cache;
    [[no_unique_address]] Local local;
    std::vector<std::unique_ptr<ChunkOut>> pool;
    std::size_t pool_used = 0;
    ChunkOut* acquire() {
      if (pool_used == pool.size()) pool.push_back(std::make_unique<ChunkOut>());
      return pool[pool_used++].get();
    }
  };

  /// Search counters land in `stats` (transitions as levels complete, the
  /// rest in finish_stats()).
  FrontierSearch(const TS& ts, Hooks& hooks, const EngineOptions& opts, RunStats& stats)
      : ts_(ts),
        hooks_(hooks),
        opts_(opts),
        stats_(stats),
        threads_(resolve_threads(opts.threads)),
        seen_(kFrontierShards),
        ctx_(static_cast<std::size_t>(threads_)),
        pool_(threads_) {
    stats_.threads = threads_;
    apply_store_options(seen_, opts.store);
  }

  /// Seeds the initial states, then explores level by level until the
  /// reachable set is exhausted, a hook flags a witness or a limit stops the
  /// search (limits are enforced at level granularity).
  void run() {
    seed();
    stats_.frontier_sizes.push_back(frontier_.size());
    if (collect_witness() || frontier_.empty()) return;
    if (seen_.size() > opts_.limits.max_states) {
      limit_hit_ = true;
      return;
    }
    maintain_store(seen_, frontier_.size() * 16);  // headroom for level 1
    level_span_.begin(Hooks::kNames.level, depth_, "depth");
    do {
      if (parallel(frontier_.size())) {
        expand();
        drain();
      } else {
        serial_level();
      }
    } while (!finish_level());
  }

  /// Runs body(ctx, chunk, begin, end) over [0, items) split into a few
  /// chunks per worker, on the worker pool when `items` is large enough to
  /// pay for its barriers; one `span` per participating thread.
  template <class Body>
  void for_chunks(std::size_t items, const char* span, Body&& body) {
    chunk_size_ = std::max(kMinChunk, items / (static_cast<std::size_t>(threads_) * 4));
    nchunks_ = (items + chunk_size_ - 1) / chunk_size_;
    next_chunk_.store(0, std::memory_order_relaxed);
    run_phase(parallel(items), span, [&](ThreadCtx& c) {
      std::size_t ci;
      while ((ci = next_chunk_.fetch_add(1, std::memory_order_relaxed)) < nchunks_) {
        const std::size_t begin = ci * chunk_size_;
        body(c, ci, begin, std::min(begin + chunk_size_, items));
      }
    });
  }

  /// Copies the remaining counters into the RunStats given at construction:
  /// states, depth, hash/cache/duplicate counts, the store's columns, the
  /// memory of store, frontier, parent links and caches, and elapsed time.
  void finish_stats() {
    stats_.states = seen_.size();
    stats_.depth = depth_;
    stats_.memory_bytes = seen_.memory_bytes() + frontier_.capacity() * sizeof(std::uint32_t);
    for (const auto& l : lists_) stats_.memory_bytes += l.parent.capacity() * sizeof(std::uint32_t);
    for (const auto& c : ctx_) {
      stats_.hash_ops += c.hash_ops;
      stats_.cache_hits += c.cache_hits;
      stats_.dup_transitions += c.dups;
      stats_.memory_bytes += c.cache.memory_bytes();
    }
    copy_store_stats(seen_, stats_);
    stats_.seconds = timer_.seconds();
  }

  /// Initial state .. `id` along BFS parent links.
  [[nodiscard]] std::vector<State> trace_to(std::uint32_t id) const {
    std::vector<State> rev;
    for (std::uint32_t at = id; at != kNone;
         at = lists_[seen_.shard_of_id(at)].parent[seen_.local_of_id(at)]) {
      rev.push_back(seen_.at(at));
    }
    return {rev.rbegin(), rev.rend()};
  }

  [[nodiscard]] const Map& seen() const noexcept { return seen_; }
  [[nodiscard]] std::vector<ThreadCtx>& contexts() noexcept { return ctx_; }
  /// Minimal flagged id of the stopping level, or kNone.
  [[nodiscard]] std::uint32_t witness() const noexcept { return witness_; }
  [[nodiscard]] bool limit_hit() const noexcept { return limit_hit_; }
  [[nodiscard]] double seconds() const { return timer_.seconds(); }

 private:
  [[nodiscard]] bool parallel(std::size_t items) const noexcept {
    return threads_ > 1 && items >= kSerialWorkPerThread * static_cast<std::size_t>(threads_);
  }

  template <class Work>
  void run_phase(bool par, const char* span, Work&& work) {
    // One span per thread per phase; workers emit into their own
    // thread-local buffers, so this is contention-free.
    auto task = [&](int tid) {
      obs::Span s(span);
      work(ctx_[static_cast<std::size_t>(tid)]);
    };
    if (par) {
      pool_.run(task);
    } else {
      task(0);
    }
  }

  void flag(ThreadCtx& c, std::uint32_t id) noexcept { c.witness = std::min(c.witness, id); }

  // Interning the initial states is serial: their ids and parent links must
  // not depend on enumeration timing.
  void seed() {
    ThreadCtx& c = ctx_[0];
    ts_.initial_states([&](const State& s) {
      Tag tag{};
      if (!hooks_.admit(s, tag)) return;
      ++c.hash_ops;
      const auto [id, is_new] = seen_.insert(s, hash_words(s));
      const unsigned sh = seen_.shard_of_id(id);
      if (is_new) {
        lists_[sh].parent.push_back(kNone);
        frontier_.push_back(id);
      } else {
        ++c.dups;
      }
      if (hooks_.interned(c.local, sh, id, is_new, s, kNone, tag)) flag(c, id);
    });
  }

  void expand() {
    chunk_out_.resize(frontier_.size() / kMinChunk + 1);  // >= the chunk count
    for (auto& c : ctx_) c.pool_used = 0;
    for_chunks(frontier_.size(), Hooks::kNames.expand,
               [&](ThreadCtx& c, std::size_t ci, std::size_t begin, std::size_t end) {
                 ChunkOut* out = c.acquire();
                 for (auto& b : out->bucket) b.clear();
                 for (std::size_t p = begin; p < end; ++p) {
                   const std::uint32_t from = frontier_[p];
                   expand_state(c, from, [&](const State& t, std::uint64_t h, const Tag& tag) {
                     const std::uint32_t id = seen_.find(t, h);
                     if (id != kNone) {
                       c.cache.remember(h, id);
                       ++c.dups;
                       hooks_.known(c.local, from, id, tag);
                       return;  // interned in a previous level
                     }
                     out->bucket[seen_.shard_of(h)].push_back(Cand{t, from, h, tag});
                   });
                 }
                 chunk_out_[ci] = out;
               });
  }

  /// Enumerates the successors of `from`, admits and hashes each one, kills
  /// the verified cache hits and hands every other candidate to
  /// `miss(t, hash, tag)`.
  template <class Miss>
  void expand_state(ThreadCtx& c, std::uint32_t from, Miss&& miss) {
    const State s = seen_.at(from);
    const Tag src = hooks_.source(seen_, from);
    std::size_t emitted = 0;
    ts_.successors(s, [&](const State& t) {
      ++c.transitions;
      ++emitted;
      Tag tag = src;
      if (!hooks_.admit(t, tag)) return;
      // Hash-once contract: the single hash_words call this candidate ever
      // sees. Cache probe, store find and insert all reuse it (a parallel
      // level carries it to drain in Cand::hash).
      ++c.hash_ops;
      const std::uint64_t h = hash_words(t);
      const std::uint32_t hint = c.cache.lookup(h);
      if (hint != RecentSeenCache::kMiss && seen_.at(hint) == t) {
        ++c.cache_hits;
        ++c.dups;
        hooks_.known(c.local, from, hint, tag);
        return;
      }
      miss(t, h, tag);
    });
    if (hooks_.expanded(c.local, from, src, emitted)) flag(c, from);
  }

  void drain() {
    next_shard_.store(0, std::memory_order_relaxed);
    run_phase(/*par=*/true, Hooks::kNames.drain, [&](ThreadCtx& c) {
      unsigned sh;
      while ((sh = next_shard_.fetch_add(1, std::memory_order_relaxed)) < kFrontierShards) {
        ShardLists& l = lists_[sh];
        l.fresh.clear();
        for (std::size_t ci = 0; ci < nchunks_; ++ci) {
          for (const Cand& cd : chunk_out_[ci]->bucket[sh]) {
            const auto [id, is_new] = seen_.insert(cd.s, cd.hash);
            if (is_new) {
              c.cache.remember(cd.hash, id);
              l.parent.push_back(cd.parent);
              l.fresh.push_back(id);
            } else {
              ++c.dups;  // duplicate within this level
            }
            if (hooks_.interned(c.local, sh, id, is_new, cd.s, cd.parent, cd.tag)) flag(c, id);
          }
        }
      }
    });
  }

  /// A level on the coordinating thread alone: expand and intern in one
  /// pass. Each shard receives the candidates in frontier order, the
  /// sequence drain replays, so ids and links match a two-phase level.
  void serial_level() {
    obs::Span span(Hooks::kNames.expand);
    ThreadCtx& c = ctx_[0];
    for (auto& l : lists_) l.fresh.clear();
    for (const std::uint32_t from : frontier_) {
      expand_state(c, from, [&](const State& t, std::uint64_t h, const Tag& tag) {
        const auto [id, is_new] = seen_.insert(t, h);
        c.cache.remember(h, id);
        if (!is_new) {
          ++c.dups;
          hooks_.known(c.local, from, id, tag);
          return;
        }
        const unsigned sh = seen_.shard_of_id(id);
        lists_[sh].parent.push_back(from);
        lists_[sh].fresh.push_back(id);
        if (hooks_.interned(c.local, sh, id, /*is_new=*/true, t, from, tag)) flag(c, id);
      });
    }
  }

  bool collect_witness() noexcept {
    for (auto& c : ctx_) {
      witness_ = std::min(witness_, c.witness);
      c.witness = kNone;
    }
    return witness_ != kNone;
  }

  /// Sequential inter-level step; returns true when exploration must stop.
  bool finish_level() {
    level_span_.end();
    for (auto& c : ctx_) {
      stats_.transitions += c.transitions;
      c.transitions = 0;
    }
    if (collect_witness()) return true;
    frontier_.clear();
    for (const auto& l : lists_) frontier_.insert(frontier_.end(), l.fresh.begin(), l.fresh.end());
    if (frontier_.empty()) return true;  // reachable set exhausted
    stats_.frontier_sizes.push_back(frontier_.size());
    // The store is quiescent between drain and the next expand: seal closed
    // pages, spill past the budget, grow the probe tables and the Bloom
    // filter with headroom for the coming level.
    maintain_store(seen_, frontier_.size() * 16);
    if (opts_.progress) {
      opts_.progress(LevelProgress{depth_ + 1, seen_.size(), stats_.transitions,
                                   frontier_.size(), timer_.seconds()});
    }
    obs::progress_tick({.phase = Hooks::kNames.progress,
                        .states = seen_.size(),
                        .transitions = stats_.transitions,
                        .frontier = frontier_.size(),
                        .depth = depth_ + 1,
                        .seconds = timer_.seconds()});
    if (seen_.size() > opts_.limits.max_states) {
      limit_hit_ = true;
      return true;
    }
    ++depth_;
    if (depth_ > opts_.limits.max_depth) {
      limit_hit_ = true;
      return true;
    }
    level_span_.begin(Hooks::kNames.level, depth_, "depth");
    return false;
  }

  const TS& ts_;
  Hooks& hooks_;
  const EngineOptions& opts_;
  RunStats& stats_;
  Timer timer_;
  const int threads_;

  Map seen_;
  std::array<ShardLists, kFrontierShards> lists_;
  std::vector<std::uint32_t> frontier_;
  std::vector<ThreadCtx> ctx_;

  std::vector<ChunkOut*> chunk_out_;
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<unsigned> next_shard_{0};
  std::size_t nchunks_ = 0;
  std::size_t chunk_size_ = kMinChunk;

  std::uint32_t witness_ = kNone;
  bool limit_hit_ = false;
  int depth_ = 0;
  obs::ManualSpan level_span_;  // coordinator-owned: one span per BFS level

  PhasePool pool_;  // last: its workers use every member above
};

}  // namespace tt::mc::detail
