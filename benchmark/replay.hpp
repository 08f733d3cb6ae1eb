// The layer replay: a serial breadth-first search built only from the
// public calls each layer exports, so the cost of every stage of the
// successor pipeline can be read separately. Each stage runs over a whole
// BFS level and is timed once per level (no clock read per call), and each
// (stage, level) pair is emitted as a trace span on the installed tracer.
//
//   1. tta::Cluster::successors of the level's frontier into a buffer
//      (for reduced cells also every kRawStride-th frontier state through
//      an unreduced Cluster; the reduced enumeration's time per successor
//      minus the unreduced one's is the cost of the reduction);
//   2. hash_words of every candidate;
//   3. a RecentSeenCache probe plus a comparison with the stored state;
//   4. insert_serial of the cache misses into the cell's store;
//   5. quiescent_maintain, for the lock-free store only.
//
// The replay explores the same graph as verify() on the cell, so its state
// and transition counts must equal the engine's.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "support/hash.hpp"
#include "support/recent_cache.hpp"
#include "tta/cluster.hpp"

namespace ttbench {

struct ReplayResult {
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t raw_transitions = 0;  ///< unreduced successors of the sampled frontier states
  std::size_t levels = 0;
  std::size_t inserts = 0;     ///< candidates that missed the cache
  std::size_t cache_hits = 0;  ///< candidates the cache proved duplicate
  double successors_s = 0;
  double raw_successors_s = 0;  ///< unreduced enumeration of the sampled frontier states
  double hash_s = 0;
  double cache_s = 0;
  double insert_s = 0;
  double maintain_s = 0;
};

/// Times consecutive stages on the tracer's clock and records each as a
/// span; requires an installed tracer.
class StageClock {
 public:
  StageClock() : last_(tt::obs::now_ns()) {}
  double lap(const char* stage, std::size_t level) {
    const std::uint64_t now = tt::obs::now_ns();
    // The span starts 1 ns late so consecutive stages never share an
    // endpoint, which the trace's microsecond floats could render as overlap.
    tt::obs::emit_span(stage, last_ + 1, now, static_cast<std::int64_t>(level), "level");
    const double s = static_cast<double>(now - last_) * 1e-9;
    last_ = now;
    return s;
  }

 private:
  std::uint64_t last_;
};

/// The unreduced enumeration of a reduced cell visits every kRawStride-th
/// frontier state: enough for its time per successor, at a fraction of the
/// raw graph's time and memory (14x the reduced one at fig6 n = 7).
inline constexpr std::size_t kRawStride = 8;

/// Replays the reachable graph of `cluster` into `store`. `raw` is the
/// unreduced cluster for reduced cells, null otherwise. A store that has
/// quiescent_maintain (the lock-free one) gets it between levels, as the
/// engines call it.
template <class Store>
ReplayResult replay_levels(const tt::tta::Cluster& cluster, const tt::tta::Cluster* raw,
                           Store& store) {
  using State = tt::tta::Cluster::State;
  ReplayResult out;
  tt::RecentSeenCache cache;
  std::vector<State> frontier, next, buf, raw_buf;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint32_t> misses;
  StageClock clock;
  for (bool initial = true; initial || !frontier.empty(); initial = false) {
    const std::size_t level = out.levels++;
    buf.clear();
    if (initial) {
      cluster.initial_states([&](const State& s) { buf.push_back(s); });
    } else {
      for (const State& s : frontier) cluster.successors(s, [&](const State& t) { buf.push_back(t); });
      out.transitions += buf.size();
    }
    out.successors_s += clock.lap("replay.successors", level);

    if (raw != nullptr && !initial) {
      raw_buf.clear();
      for (std::size_t i = 0; i < frontier.size(); i += kRawStride) {
        raw->successors(frontier[i], [&](const State& t) { raw_buf.push_back(t); });
      }
      out.raw_transitions += raw_buf.size();
      out.raw_successors_s += clock.lap("replay.raw_successors", level);
    }

    hashes.resize(buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) hashes[i] = tt::hash_words(buf[i]);
    out.hash_s += clock.lap("replay.hash", level);

    misses.clear();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const std::uint32_t id = cache.lookup(hashes[i]);
      if (id != tt::RecentSeenCache::kMiss && store.at(id) == buf[i]) {
        ++out.cache_hits;
      } else {
        misses.push_back(static_cast<std::uint32_t>(i));
      }
    }
    out.cache_s += clock.lap("replay.cache", level);

    next.clear();
    for (const std::uint32_t i : misses) {
      const auto [id, fresh] = store.insert_serial(buf[i], hashes[i]);
      cache.remember(hashes[i], id);
      if (fresh) next.push_back(buf[i]);
    }
    out.inserts += misses.size();
    out.insert_s += clock.lap("replay.insert", level);

    if constexpr (requires { store.quiescent_maintain(std::size_t{0}); }) {
      store.quiescent_maintain(next.size() * 16);
      out.maintain_s += clock.lap("replay.maintain", level);
    }
    frontier.swap(next);
  }
  out.states = store.size();
  return out;
}

}  // namespace ttbench
