// Partial-order reduction suite (tta/independence.hpp, DESIGN.md §3.8).
//
// The strongest check mirrors Symmetry.SampledBisimulation but is exhaustive
// rather than sampled: the clamp map must be a strong bisimulation on the
// union of the raw reachable graph and the clamp quotient, refined against
// every lemma label. Partition refinement computes the coarsest
// label-respecting bisimulation of the union graph; every raw state must
// then land in the same block as its image. The same oracle run against two
// deliberately broken relations — per-transmission masking
// (dedupe_slots = false) and an off-by-one horizon (margin = -1) — must
// report inequivalent pairs, demonstrating the oracle has the power to catch
// an unsound certificate, not just bless the shipped one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "tta/cluster.hpp"
#include "tta/config.hpp"
#include "tta/independence.hpp"
#include "tta/properties.hpp"

namespace tt::tta {
namespace {

struct NamedConfig {
  const char* name;
  ClusterConfig cfg;
};

ClusterConfig fig6_config(int n) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.init_window = n;
  cfg.hub_init_window = n;
  cfg.feedback = true;
  return cfg;
}

std::vector<NamedConfig> oracle_configs() {
  std::vector<NamedConfig> out;
  out.push_back({"fig6_n3", fig6_config(3)});
  {
    ClusterConfig cfg = fig6_config(3);  // §2.1 restart dimension
    cfg.transient_restarts = 1;
    out.push_back({"fig6_n3_restart", cfg});
  }
  {
    ClusterConfig cfg = fig6_config(3);  // startup_time tracked in the state
    cfg.timeliness_bound = 18;
    cfg.timeliness_target = TimelinessTarget::kFirstCorrectActive;
    out.push_back({"fig6_n3_timely", cfg});
  }
  out.push_back({"fig6_n4", fig6_config(4)});
  return out;
}

/// The reduction map under oracle test: raw packed state -> representative.
using ReduceFn = std::function<Cluster::State(const Cluster::State&)>;

/// Explicit graph over interned packed states with a pluggable successor
/// image (identity for the raw layer, the clamp for the quotient layer).
struct Graph {
  std::vector<Cluster::State> states;
  std::vector<std::vector<int>> succ;
  std::map<Cluster::State, int> ids;

  int intern(const Cluster::State& s) {
    auto [it, fresh] = ids.emplace(s, static_cast<int>(states.size()));
    if (fresh) {
      states.push_back(s);
      succ.emplace_back();
    }
    return it->second;
  }
};

/// BFS closure of `graph` from its already-interned roots, stepping with the
/// raw successor relation mapped through `image`.
void close_graph(const Cluster& raw, Graph& graph, const ReduceFn& image) {
  for (std::size_t head = 0; head < graph.states.size(); ++head) {
    const Cluster::State s = graph.states[head];
    std::vector<int> out;
    raw.successors(s, [&](const Cluster::State& t) {
      out.push_back(graph.intern(image ? image(t) : t));
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    graph.succ[head] = std::move(out);
    ASSERT_LT(graph.states.size(), std::size_t{400000}) << "oracle graph blew up";
  }
}

/// Coarsest bisimulation of the disjoint union of `a` and `b` that respects
/// the lemma labels: standard signature-refinement to a fixpoint. Returns
/// the block id of every node (a's nodes first, then b's).
std::vector<int> bisimulation_blocks(const Cluster& raw, const ClusterConfig& cfg,
                                     const Graph& a, const Graph& b) {
  const int na = static_cast<int>(a.states.size());
  const int nb = static_cast<int>(b.states.size());
  auto label = [&](const Cluster::State& s) {
    const ClusterState c = raw.unpack(s);
    int key = holds_safety(cfg, c) ? 1 : 0;
    key |= all_correct_active(cfg, c) ? 2 : 0;
    key |= holds_hub_agreement(cfg, c) ? 4 : 0;
    if (cfg.timeliness_bound > 0) key |= holds_timeliness(cfg, c) ? 8 : 0;
    return key;
  };
  std::vector<int> block(na + nb);
  {
    std::map<int, int> first;
    for (int i = 0; i < na + nb; ++i) {
      const int key = label(i < na ? a.states[i] : b.states[i - na]);
      block[i] = first.emplace(key, static_cast<int>(first.size())).first->second;
    }
  }
  auto successors = [&](int i) -> const std::vector<int>& {
    return i < na ? a.succ[i] : b.succ[i - na];
  };
  // Each signature embeds the current block, so a round only ever splits
  // blocks — an unchanged block count IS the fixpoint.
  int nblocks = *std::max_element(block.begin(), block.end()) + 1;
  for (;;) {
    std::map<std::vector<int>, int> sigs;
    std::vector<int> next(na + nb);
    for (int i = 0; i < na + nb; ++i) {
      std::vector<int> sig;
      sig.push_back(block[i]);
      for (const int t : successors(i)) sig.push_back(block[i < na ? t : t + na]);
      std::sort(sig.begin() + 1, sig.end());
      sig.erase(std::unique(sig.begin() + 1, sig.end()), sig.end());
      next[i] = sigs.emplace(std::move(sig), static_cast<int>(sigs.size())).first->second;
    }
    if (static_cast<int>(sigs.size()) == nblocks) return next;
    nblocks = static_cast<int>(sigs.size());
    block = std::move(next);
  }
}

/// Counts raw states whose image is NOT bisimilar to them (0 = the map is a
/// strong bisimulation wrt every lemma label).
int oracle_failures(const ClusterConfig& cfg, const ReduceFn& image) {
  const Cluster raw(cfg);
  Graph raw_graph;
  raw.initial_states([&](const Cluster::State& s) { raw_graph.intern(s); });
  close_graph(raw, raw_graph, nullptr);

  Graph quot;
  for (const auto& s : raw_graph.states) quot.intern(image(s));
  close_graph(raw, quot, image);

  const std::vector<int> block = bisimulation_blocks(raw, cfg, raw_graph, quot);
  const int na = static_cast<int>(raw_graph.states.size());
  int failures = 0;
  for (int i = 0; i < na; ++i) {
    const int qi = quot.ids.at(image(raw_graph.states[i]));
    if (block[i] != block[na + qi]) ++failures;
  }
  return failures;
}

ReduceFn clamp_image(const Cluster& raw, const PartialOrderReducer& por) {
  return [&raw, &por](const Cluster::State& s) {
    ClusterState c = raw.unpack(s);
    por.saturate(c);
    return raw.pack(c);
  };
}

TEST(Independence, ClampIsABisimulationOnTheReachableGraph) {
  for (const auto& nc : oracle_configs()) {
    const Cluster raw(nc.cfg);
    const PartialOrderReducer por(nc.cfg);
    ASSERT_TRUE(por.enabled()) << nc.name;
    EXPECT_EQ(oracle_failures(nc.cfg, clamp_image(raw, por)), 0) << nc.name;
  }
}

TEST(Independence, SymPorComposedMapIsABisimulation) {
  // The production fig. 6 mode: clamp over the orbit quotient. The composed
  // map is exactly Cluster::reduce(kSymPor).
  const ClusterConfig cfg = fig6_config(3);
  const Cluster raw(cfg);
  const Cluster composed(cfg, Reduction::kSymPor);
  EXPECT_EQ(oracle_failures(
                cfg, [&](const Cluster::State& s) { return composed.reduce(s); }),
            0);
}

TEST(Independence, BrokenMaskingRelationIsCaughtByTheOracle) {
  // dedupe_slots = false counts each transmission as maskable individually.
  // That is unsound — one hub arbitration pick masks every simultaneous
  // correct transmission — and the oracle must expose it (the clamp then
  // skips slack that IS observable along some adversary path).
  const ClusterConfig cfg = fig6_config(4);
  const Cluster raw(cfg);
  const PartialOrderReducer broken(cfg, PorTuning{.margin = 0, .dedupe_slots = false});
  EXPECT_GT(oracle_failures(cfg, clamp_image(raw, broken)), 0);
}

TEST(Independence, OffByOneHorizonIsCaughtByTheOracle) {
  // margin = -1 clamps a LISTEN slack whose timeout fires before the
  // guaranteed reception: reception is classified before the timeout check
  // in node_step, so slack == cap is dead but slack == cap - 1 is not.
  const ClusterConfig cfg = fig6_config(4);
  const Cluster raw(cfg);
  const PartialOrderReducer broken(cfg, PorTuning{.margin = -1, .dedupe_slots = true});
  EXPECT_GT(oracle_failures(cfg, clamp_image(raw, broken)), 0);
}

TEST(Independence, ClosedFormScheduleMatchesStepSimulation) {
  // prepare()'s merged worst-case transmission schedule against the
  // quiet-input automaton simulated step by step, across every gate-state
  // counter value of every correct node.
  for (int n : {3, 4, 5}) {
    const ClusterConfig cfg = fig6_config(n);
    const PartialOrderReducer por(cfg);
    const Cluster raw(cfg);
    const ClusterState base = raw.base_initial_state();
    for (int init_c = 0; init_c <= cfg.init_window; ++init_c) {
      for (int phase = 0; phase < 2; ++phase) {
        ClusterState c = base;
        for (int j = 0; j < n; ++j) {
          if (cfg.node_is_faulty(j)) continue;
          if (phase == 0) {
            c.node[j].state = NodeState::kInit;
            c.node[j].counter = static_cast<std::uint8_t>(init_c);
          } else {
            c.node[j].state = NodeState::kListen;
            c.node[j].counter = static_cast<std::uint8_t>(
                1 + (init_c * 7 + j) % cfg.listen_timeout(j));
          }
        }
        PartialOrderReducer::ComboPlan plan;
        por.prepare(c.node, plan);
        ASSERT_TRUE(plan.gate);
        std::vector<int> expected;
        for (int j = 0; j < n; ++j) {
          if (cfg.node_is_faulty(j)) continue;
          int ref[2 * kMaxNodes];
          por.worst_tx_reference(j, c.node[j], por.instants(), ref);
          expected.insert(expected.end(), ref, ref + por.instants());
        }
        std::sort(expected.begin(), expected.end());
        expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
        ASSERT_EQ(plan.ntx, static_cast<int>(expected.size()));
        for (int k = 0; k < plan.ntx; ++k) EXPECT_EQ(plan.tx[k], expected[k]);
      }
    }
  }
}

TEST(Independence, ReducedEmissionsAreFixedPointsOfReduce) {
  // Everything a por / sym+por cluster emits is already a fixed point of its
  // own reduction map — the hash-once pipeline only ever sees
  // representatives (the invariant concretization and the equivalence suite
  // rely on).
  for (const Reduction mode : {Reduction::kPartialOrder, Reduction::kSymPor}) {
    const ClusterConfig cfg = fig6_config(3);
    const Cluster reduced(cfg, mode);
    std::set<Cluster::State> seen;
    std::vector<Cluster::State> frontier;
    reduced.initial_states([&](const Cluster::State& s) {
      EXPECT_EQ(reduced.reduce(s), s) << to_string(mode) << " (initial)";
      if (seen.insert(s).second) frontier.push_back(s);
    });
    std::size_t checked = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      reduced.successors(frontier[i], [&](const Cluster::State& t) {
        ++checked;
        EXPECT_EQ(reduced.reduce(t), t) << to_string(mode) << " state #" << i;
        if (seen.insert(t).second) frontier.push_back(t);
      });
    }
    // The walk covered the reachable set, not just the initial states.
    EXPECT_GT(frontier.size(), 100u) << to_string(mode);
    EXPECT_GT(checked, frontier.size()) << to_string(mode);
  }
}

TEST(Independence, GateDeclinesUnderAFaultyHub) {
  // A faulty guardian may refuse to relay forever, so the
  // guaranteed-delivery certificate does not exist: the reducer disables
  // itself and every emission falls back to full expansion.
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;
  const PartialOrderReducer por(cfg);
  EXPECT_FALSE(por.enabled());

  const Cluster raw(cfg);
  ClusterState c = raw.base_initial_state();
  EXPECT_EQ(por.saturate(c), PartialOrderReducer::Outcome::kDeclined);

  // And the por cluster therefore explores the raw graph: reduce is the
  // identity map.
  const Cluster reduced(cfg, Reduction::kPartialOrder);
  const Cluster::State s = raw.pack(raw.base_initial_state());
  EXPECT_EQ(reduced.reduce(s), s);
}

}  // namespace
}  // namespace tt::tta
