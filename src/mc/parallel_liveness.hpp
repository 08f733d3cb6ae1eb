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
//   phase A  materialize the goal-free subgraph with the parallel frontier
//            engine (same hash-once interning, per-thread recently-seen
//            caches, sharded store, expand/drain phases as
//            parallel_reachability.hpp), additionally capturing every
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
// Determinism: phase A inherits the frontier engine's guarantee (ids, parent
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

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "mc/engine.hpp"
#include "mc/explore.hpp"
#include "mc/liveness.hpp"
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

/// Shared OWCTY core. `roots_all_reachable` selects the property:
/// false = F(goal) (goal-free region only), true = AG AF(goal) (full
/// reachable graph, edges restricted to goal-free endpoints).
///
/// `Map` is the 16-shard explicit store (ShardedStateIndexMap or
/// LockFreeStateIndexMap); both use the same shard routing and chunk-ordered
/// drain, so ids and verdicts are identical across stores. Store maintenance
/// (probe growth, sealing, spill) runs at phase A's level boundaries — the
/// same quiescent points the parallel invariant engine uses; the trim rounds
/// and lasso extraction only read `at()`, which decodes sealed/spilled pages
/// transparently.
template <class Map, TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> owcty_liveness_impl(const TS& ts, Pred&& goal,
                                                     const EngineOptions& opts,
                                                     bool roots_all_reachable) {
  using State = typename TS::State;
  constexpr std::uint32_t kNone = Map::kEmpty;
  constexpr unsigned kShards = 16;
  constexpr std::size_t kMinChunk = 64;
  // Below this many frontier states (or trim-work states) per worker a phase
  // runs serially on the coordinating thread.
  constexpr std::size_t kSerialWorkPerThread = 128;

  const int threads = resolve_threads(opts.threads);
  const SearchLimits& limits = opts.limits;

  Timer timer;
  obs::Span run_span("liveness.owcty");
  LivenessResult<TS> result;
  result.stats.threads = threads;

  Map seen(kShards);
  detail::apply_store_options(seen, opts.store);
  if (limits.states_bounded()) {
    seen.reserve(limits.max_states + limits.max_states / 8 + kShards);
  }

  std::array<std::vector<std::uint32_t>, kShards> parent;  // local id -> parent global id
  std::array<std::vector<std::uint32_t>, kShards> fresh;   // ids interned this level
  std::array<std::vector<std::uint8_t>, kShards> goal_mark;  // AG AF: goal states

  struct Cand {
    State s;
    std::uint32_t parent;
    std::uint64_t hash;  ///< hash_words(s), computed once in the expand phase
    bool is_goal;        ///< AG AF only; F-mode candidates are goal-free
    bool src_gf;         ///< expanding state is goal-free (edge eligibility)
  };
  struct ChunkOut {
    std::array<std::vector<Cand>, kShards> bucket;
  };
  struct ThreadCtx {
    std::size_t transitions = 0;
    std::size_t hash_ops = 0;
    std::size_t cache_hits = 0;
    std::size_t dups = 0;
    std::uint32_t dead_min = 0xffffffffu;  ///< min deadlocked id this level
    RecentSeenCache cache;
    std::vector<std::uint64_t> edges;      ///< goal-free edges, (from << 32) | to
    std::vector<std::uint32_t> trim_out;   ///< states newly caught this round
    std::vector<std::unique_ptr<ChunkOut>> pool;
    std::size_t pool_used = 0;
    ChunkOut* acquire() {
      if (pool_used == pool.size()) pool.push_back(std::make_unique<ChunkOut>());
      return pool[pool_used++].get();
    }
  };
  std::vector<ThreadCtx> ctx(static_cast<std::size_t>(threads));

  auto pack_edge = [](std::uint32_t from, std::uint32_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  };

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

  bool limit_hit = false;
  std::uint32_t dead_id = kNone;
  int depth = 0;
  obs::ManualSpan level_span;  // coordinator-owned: one span per BFS level

  auto expand_work = [&](ThreadCtx& c) {
    try {
      obs::Span span("owcty.expand");
      std::size_t ci;
      while ((ci = next_chunk.fetch_add(1, std::memory_order_relaxed)) < nchunks) {
        ChunkOut* out = c.acquire();
        for (auto& b : out->bucket) b.clear();
        const std::size_t begin = ci * chunk_size;
        const std::size_t end = std::min(begin + chunk_size, frontier.size());
        for (std::size_t p = begin; p < end; ++p) {
          const std::uint32_t from = frontier[p];
          const State s = seen.at(from);
          const bool src_gf =
              !roots_all_reachable ||
              goal_mark[seen.shard_of_id(from)][seen.local_of_id(from)] == 0;
          std::size_t emitted = 0;
          ts.successors(s, [&](const State& t) {
            ++c.transitions;
            ++emitted;
            const bool tg = goal(t);
            // F(goal): the goal region is never entered — goal successors
            // are enumerated but neither hashed nor interned, exactly like
            // the sequential lasso search (hash-once parity).
            if (tg && !roots_all_reachable) return;
            ++c.hash_ops;
            const std::uint64_t h = hash_words(t);
            const bool edge = src_gf && !tg;
            const std::uint32_t hint = c.cache.lookup(h);
            if (hint != RecentSeenCache::kMiss && seen.at(hint) == t) {
              ++c.cache_hits;
              ++c.dups;
              if (edge) c.edges.push_back(pack_edge(from, hint));
              return;
            }
            const std::uint32_t id = seen.find(t, h);
            if (id != kNone) {
              c.cache.remember(h, id);
              ++c.dups;
              if (edge) c.edges.push_back(pack_edge(from, id));
              return;
            }
            out->bucket[seen.shard_of(h)].push_back(Cand{t, from, h, tg, src_gf});
          });
          // A goal-free state without any successor: the run halts before
          // the goal — a liveness violation regardless of cycles.
          if (emitted == 0 && src_gf && from < c.dead_min) c.dead_min = from;
        }
        chunk_out[ci] = out;
      }
    } catch (...) {
      record_error();
    }
  };

  auto drain_work = [&](ThreadCtx& c, bool locked) {
    try {
      obs::Span span("owcty.drain");
      unsigned sh;
      while ((sh = next_shard.fetch_add(1, std::memory_order_relaxed)) < kShards) {
        auto& fr = fresh[sh];
        fr.clear();
        for (std::size_t ci = 0; ci < nchunks; ++ci) {
          for (const Cand& cd : chunk_out[ci]->bucket[sh]) {
            const auto [id, is_new] =
                locked ? seen.insert(cd.s, cd.hash) : seen.insert_serial(cd.s, cd.hash);
            if (is_new) {
              c.cache.remember(cd.hash, id);
              parent[sh].push_back(cd.parent);
              if (roots_all_reachable) goal_mark[sh].push_back(cd.is_goal ? 1 : 0);
              fr.push_back(id);
            } else {
              ++c.dups;  // duplicate within this level
            }
            // One edge per emission, fresh or not — the multiset of edges
            // matches the sequential engine's children lists.
            if (cd.src_gf && !cd.is_goal) c.edges.push_back(pack_edge(cd.parent, id));
          }
        }
      }
    } catch (...) {
      record_error();
    }
  };

  // Trim-round state (phase B); set up by the coordinator per round.
  const std::vector<std::uint32_t>* trim_list = nullptr;
  std::size_t trim_chunk = kMinChunk;
  std::size_t trim_nchunks = 0;
  std::vector<std::uint32_t> in_off, in_from;
  std::unique_ptr<std::atomic<std::uint32_t>[]> out_remaining;

  auto trim_work = [&](ThreadCtx& c) {
    try {
      obs::Span span("owcty.trim_work");
      const auto& wl = *trim_list;
      std::size_t ci;
      while ((ci = next_chunk.fetch_add(1, std::memory_order_relaxed)) < trim_nchunks) {
        const std::size_t begin = ci * trim_chunk;
        const std::size_t end = std::min(begin + trim_chunk, wl.size());
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t u = wl[i];
          for (std::uint32_t k = in_off[u]; k < in_off[u + 1]; ++k) {
            const std::uint32_t p = in_from[k];
            // Exactly one decrement per edge (u dies once), so the counter
            // reaches zero exactly once: that thread owns p's deletion.
            if (out_remaining[p].fetch_sub(1, std::memory_order_relaxed) == 1) {
              c.trim_out.push_back(p);
            }
          }
        }
      }
    } catch (...) {
      record_error();
    }
  };

  auto setup_level = [&] {
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
    for (auto& c : ctx) {
      if (c.dead_min != kNone && (dead_id == kNone || c.dead_min < dead_id)) {
        dead_id = c.dead_min;
      }
      c.dead_min = kNone;
    }
    if (dead_id != kNone) return true;  // deadlock: minimal (level, id) witness
    frontier.clear();
    for (unsigned sh = 0; sh < kShards; ++sh) {
      frontier.insert(frontier.end(), fresh[sh].begin(), fresh[sh].end());
    }
    if (frontier.empty()) return true;  // subgraph fully materialized
    result.stats.frontier_sizes.push_back(frontier.size());
    // Quiescent point: workers are parked at the barrier, so the store can
    // grow its probe tables (concurrent inserts never grow them mid-level),
    // seal the closed set and spill past the budget. A write-behind failure
    // (ENOSPC on the I/O thread) must take the star-burst error channel:
    // throwing here, with workers parked at the barrier, would terminate.
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
    obs::progress_tick({.phase = "owcty-bfs",
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
    level_span.begin("owcty.level", depth, "depth");
    return false;
  };

  // Serial root seeding: ids and parent links must not depend on timing.
  // F(goal) skips goal initials before hashing (they are not lasso roots).
  ts.initial_states([&](const State& s) {
    const bool g = goal(s);
    if (g && !roots_all_reachable) return;
    ++ctx[0].hash_ops;
    const auto [id, is_new] = seen.insert_serial(s, hash_words(s));
    if (!is_new) {
      ++ctx[0].dups;
      return;
    }
    const unsigned sh = seen.shard_of_id(id);
    parent[sh].push_back(kNone);
    if (roots_all_reachable) goal_mark[sh].push_back(g ? 1 : 0);
    frontier.push_back(id);
  });
  result.stats.frontier_sizes.push_back(frontier.size());

  // The worker pool serves both BFS levels and trim rounds: the coordinator
  // publishes the phase kind, releases the pool through the top barrier, and
  // collects it at the bottom one. Small phases skip the pool entirely.
  enum class Task { kExpand, kDrain, kTrim, kStop };
  std::atomic<Task> task{Task::kStop};
  std::optional<std::barrier<>> sync;
  std::vector<std::thread> pool;
  if (threads > 1) {
    sync.emplace(threads);
    auto worker = [&](int tid) {
      ThreadCtx& c = ctx[static_cast<std::size_t>(tid)];
      while (true) {
        sync->arrive_and_wait();  // phase published / stop decided
        const Task t = task.load(std::memory_order_relaxed);
        if (t == Task::kStop) break;
        if (t == Task::kExpand) {
          expand_work(c);
        } else if (t == Task::kDrain) {
          drain_work(c, /*locked=*/true);
        } else {
          trim_work(c);
        }
        sync->arrive_and_wait();  // phase complete
      }
    };
    pool.reserve(static_cast<std::size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  }
  auto run_phase = [&](Task t, auto&& own_work) {
    task.store(t, std::memory_order_relaxed);
    sync->arrive_and_wait();
    own_work();
    sync->arrive_and_wait();
  };
  const std::size_t serial_below =
      threads > 1 ? kSerialWorkPerThread * static_cast<std::size_t>(threads)
                  : std::numeric_limits<std::size_t>::max();

  auto body = [&] {
    // ---- phase A: materialize the subgraph ----
    if (!frontier.empty() && seen.size() <= limits.max_states) {
      detail::maintain_store(seen, frontier.size() * 16);  // headroom for level 1
      setup_level();
      level_span.begin("owcty.level", depth, "depth");
      bool done = false;
      while (!done) {
        if (frontier.size() < serial_below) {
          expand_work(ctx[0]);
          drain_work(ctx[0], /*locked=*/false);
        } else {
          run_phase(Task::kExpand, [&] { expand_work(ctx[0]); });
          run_phase(Task::kDrain, [&] { drain_work(ctx[0], /*locked=*/true); });
        }
        done = finish_level();
      }
    } else if (!frontier.empty()) {
      limit_hit = true;
    }
    if (first_error || limit_hit || dead_id != kNone) return;

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
      for (auto& e : c.edges) {
        e = pack_edge(dense_of(static_cast<std::uint32_t>(e >> 32)),
                      dense_of(static_cast<std::uint32_t>(e)));
      }
      n_edges += c.edges.size();
    }
    std::vector<std::uint32_t> out_off(n + 1, 0);
    in_off.assign(n + 1, 0);
    for (const auto& c : ctx) {
      for (const auto e : c.edges) {
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
        for (const auto e : c.edges) {
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
        for (std::uint32_t local = 0; local < goal_mark[sh].size(); ++local) {
          alive[shard_base[sh] + local] = goal_mark[sh][local] == 0 ? 1 : 0;
        }
      }
      for (std::size_t u = 0; u < n; ++u) eligible += alive[u];
    }

    out_remaining.reset(new std::atomic<std::uint32_t>[n]);
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
    while (!worklist.empty() && !first_error) {
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
                          .seconds = timer.seconds()});
      residue -= worklist.size();
      for (const std::uint32_t u : worklist) alive[u] = 0;
      trim_list = &worklist;
      trim_chunk = std::max<std::size_t>(
          kMinChunk, worklist.size() / (static_cast<std::size_t>(threads) * 4));
      trim_nchunks = (worklist.size() + trim_chunk - 1) / trim_chunk;
      next_chunk.store(0, std::memory_order_relaxed);
      for (auto& c : ctx) c.trim_out.clear();
      if (worklist.size() < serial_below) {
        trim_work(ctx[0]);
      } else {
        run_phase(Task::kTrim, [&] { trim_work(ctx[0]); });
      }
      next_list.clear();
      for (const auto& c : ctx) {
        next_list.insert(next_list.end(), c.trim_out.begin(), c.trim_out.end());
      }
      worklist.swap(next_list);
    }  // round_span closes here: the span covers delete + decrement + gather
    result.stats.residue_states = residue;
    if (residue == 0 || first_error) return;

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
    result.trace = reconstruct_trace<State>(
        dense_to_id[entry], kNone, [&](std::uint32_t id) { return seen.at(id); },
        [&](std::uint32_t id) { return parent[seen.shard_of_id(id)][seen.local_of_id(id)]; });
    const std::size_t stem_len = result.trace.size();  // initial .. entry
    for (std::size_t i = 1; i < walk.size(); ++i) {
      result.trace.push_back(seen.at(dense_to_id[walk[i]]));
    }
    result.loop_start = stem_len - 1 + loop_at;
  };

  if (threads > 1) {
    try {
      body();
    } catch (...) {
      task.store(Task::kStop, std::memory_order_relaxed);
      sync->arrive_and_wait();
      for (auto& th : pool) th.join();
      throw;
    }
    task.store(Task::kStop, std::memory_order_relaxed);
    sync->arrive_and_wait();
    for (auto& th : pool) th.join();
  } else {
    body();
  }
  if (first_error) std::rethrow_exception(first_error);
  run_span.set_arg("states", static_cast<std::int64_t>(seen.size()));

  if (dead_id != kNone) {
    result.verdict = LivenessVerdict::kDeadlock;
    result.trace = reconstruct_trace<State>(
        dead_id, kNone, [&](std::uint32_t id) { return seen.at(id); },
        [&](std::uint32_t id) { return parent[seen.shard_of_id(id)][seen.local_of_id(id)]; });
  } else if (limit_hit) {
    result.verdict = LivenessVerdict::kLimit;
  }
  // kCycle is set inside phase C; otherwise the default kHolds stands.

  result.stats.states = seen.size();
  result.stats.depth = depth;
  result.stats.memory_bytes =
      seen.memory_bytes() + frontier.capacity() * sizeof(std::uint32_t) +
      (in_off.capacity() + in_from.capacity()) * sizeof(std::uint32_t);
  for (const auto& p : parent) result.stats.memory_bytes += p.capacity() * sizeof(std::uint32_t);
  for (const auto& c : ctx) {
    result.stats.hash_ops += c.hash_ops;
    result.stats.cache_hits += c.cache_hits;
    result.stats.dup_transitions += c.dups;
    result.stats.memory_bytes +=
        c.cache.memory_bytes() + c.edges.capacity() * sizeof(std::uint64_t);
  }
  detail::copy_store_stats(seen, result.stats);
  result.stats.seconds = timer.seconds();
  result.stats.exhausted = result.verdict != LivenessVerdict::kLimit;
  return result;
}

/// Store dispatch for the OWCTY core. Both stores assign identical
/// (shard, local) ids, so verdicts, counts and traces do not depend on the
/// choice; only the storage internals (CAS inserts, compression, spill) do.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> owcty_liveness(const TS& ts, Pred&& goal,
                                                const EngineOptions& opts,
                                                bool roots_all_reachable) {
  if (opts.store.kind == StoreKind::kLockFree) {
    return owcty_liveness_impl<LockFreeStateIndexMap<TS::kWords>>(
        ts, std::forward<Pred>(goal), opts, roots_all_reachable);
  }
  return owcty_liveness_impl<ShardedStateIndexMap<TS::kWords>>(
      ts, std::forward<Pred>(goal), opts, roots_all_reachable);
}

}  // namespace detail

/// Parallel F(goal): the OWCTY counterpart of check_eventually. Verdicts
/// agree with the sequential engine (single-violation-class inputs; see the
/// header comment), and states/transitions/hash_ops match it exactly on
/// holds-runs — both engines sweep the same goal-free region once.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_eventually_parallel(const TS& ts, Pred&& goal,
                                                           const EngineOptions& opts = {}) {
  return detail::owcty_liveness(ts, std::forward<Pred>(goal), opts,
                                /*roots_all_reachable=*/false);
}

/// Parallel AG AF(goal): the OWCTY counterpart of check_always_eventually.
/// Materializes the reachable graph once (the sequential engine runs a BFS
/// plus a second DFS sweep) and trims its goal-free restriction.
template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually_parallel(
    const TS& ts, Pred&& goal, const EngineOptions& opts = {}) {
  return detail::owcty_liveness(ts, std::forward<Pred>(goal), opts,
                                /*roots_all_reachable=*/true);
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
  auto r = kind == EngineKind::kSequential
               ? check_eventually_store(ts, std::forward<Pred>(goal), opts.limits, opts.store)
               : check_eventually_parallel(ts, std::forward<Pred>(goal), opts);
  if (opts.finalize_stats) opts.finalize_stats(r.stats);
  return r;
}

template <TransitionSystem TS, class Pred>
[[nodiscard]] LivenessResult<TS> check_always_eventually_with(EngineKind kind, const TS& ts,
                                                              Pred&& goal,
                                                              const EngineOptions& opts = {}) {
  TT_ASSERT(kind != EngineKind::kSymbolic);
  auto r = kind == EngineKind::kSequential
               ? check_always_eventually_store(ts, std::forward<Pred>(goal), opts.limits,
                                               opts.store)
               : check_always_eventually_parallel(ts, std::forward<Pred>(goal), opts);
  if (opts.finalize_stats) opts.finalize_stats(r.stats);
  return r;
}

}  // namespace tt::mc
