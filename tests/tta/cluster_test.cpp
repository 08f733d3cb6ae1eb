#include "tta/cluster.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mc/simulate.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "tta/faulty_node.hpp"
#include "tta/properties.hpp"

namespace tt::tta {
namespace {

ClusterConfig small_cfg() {
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.hub_init_window = 2;
  return cfg;
}

TEST(Cluster, PackUnpackRoundTripOnRandomReachableStates) {
  const Cluster cluster(small_cfg());
  Rng rng(3);
  auto r = mc::simulate(cluster, 200, rng);
  ASSERT_FALSE(r.trace.empty());
  for (const auto& packed : r.trace) {
    const ClusterState c = cluster.unpack(packed);
    EXPECT_EQ(cluster.pack(c), packed);
  }
}

TEST(Cluster, StateBitsWithinCapacity) {
  for (int n : {3, 4, 5, 6}) {
    ClusterConfig cfg;
    cfg.n = n;
    cfg.faulty_node = 0;
    cfg.timeliness_bound = 40;
    const Cluster cluster(cfg);
    EXPECT_LE(cluster.state_bits(), 192);
    EXPECT_GT(cluster.state_bits(), 0);
  }
}

// The emission sinks write whole node records unchecked, so pack(), the
// path reduce() and the oracle tests go through, must refuse a field that
// would spill into its neighbour.
TEST(ClusterDeathTest, PackRejectsANodeFieldWiderThanItsWidth) {
  const Cluster cluster(small_cfg());
  ClusterState wide_counter;
  wide_counter.node[1].counter = 0xff;
  EXPECT_DEATH((void)cluster.pack(wide_counter), "assertion failed");
  ClusterState wide_pos;
  wide_pos.node[1].pos = 0xff;
  EXPECT_DEATH((void)cluster.pack(wide_pos), "assertion failed");
  EXPECT_EQ(cluster.unpack(cluster.pack(ClusterState{})).node[1].counter,
            ClusterState{}.node[1].counter);
}

TEST(Cluster, SingleInitialStateWithoutFaultyHub) {
  const Cluster cluster(small_cfg());
  int count = 0;
  cluster.initial_states([&](const Cluster::State&) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Cluster, OneInitialStatePerFaultyHubPattern) {
  auto cfg = small_cfg();
  cfg.faulty_hub = 0;
  const Cluster cluster(cfg);
  std::vector<Cluster::State> inits;
  cluster.initial_states([&](const Cluster::State& s) { inits.push_back(s); });
  EXPECT_EQ(inits.size(), 27u);  // 3^n patterns
  // All distinct.
  for (std::size_t i = 0; i < inits.size(); ++i) {
    for (std::size_t j = i + 1; j < inits.size(); ++j) EXPECT_NE(inits[i], inits[j]);
  }
}

TEST(Cluster, EveryStateHasASuccessor) {
  // Deadlock-freedom: guarded commands are total by construction. Spot-check
  // along random walks.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Cluster cluster(small_cfg());
    Rng rng(seed);
    auto r = mc::simulate(cluster, 150, rng);
    EXPECT_FALSE(r.deadlocked);
  }
}

TEST(Cluster, FaultFreeRunReachesSynchronousOperation) {
  // Every maximal run of a fault-free cluster must reach "all nodes active";
  // random walks are all maximal prefixes, so they must get there within a
  // few rounds.
  const Cluster cluster(small_cfg());
  const auto& cfg = cluster.config();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto r = mc::simulate_until(
        cluster,
        [&](const Cluster::State& s) { return all_correct_active(cfg, cluster.unpack(s)); },
        300, rng);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_TRUE(all_correct_active(cfg, cluster.unpack(r.trace.back())))
        << "seed " << seed << " did not converge in 300 slots";
  }
}

TEST(Cluster, ActiveNodesStayAgreedOnceSynchronous) {
  // After convergence, run on and check Lemma-1 agreement at every step.
  const Cluster cluster(small_cfg());
  const auto& cfg = cluster.config();
  Rng rng(17);
  auto r = mc::simulate(cluster, 400, rng);
  bool synced = false;
  for (const auto& packed : r.trace) {
    const ClusterState c = cluster.unpack(packed);
    if (all_correct_active(cfg, c)) synced = true;
    if (synced) {
      EXPECT_TRUE(all_correct_active(cfg, c));  // no fall-out
      EXPECT_TRUE(holds_safety(cfg, c));
    }
  }
  EXPECT_TRUE(synced);
}

TEST(Cluster, StartupTimeCounterLifecycle) {
  ClusterConfig cfg = small_cfg();
  cfg.timeliness_bound = 10;
  const Cluster cluster(cfg);

  ClusterState c = cluster.base_initial_state();
  // Nobody listening yet: stays 0.
  EXPECT_EQ(cluster.next_startup_time(c, 0), 0);
  // Two nodes in LISTEN: starts at 1.
  c.node[0].state = NodeState::kListen;
  c.node[1].state = NodeState::kListen;
  EXPECT_EQ(cluster.next_startup_time(c, 0), 1);
  // Counting up.
  EXPECT_EQ(cluster.next_startup_time(c, 5), 6);
  // Saturates at bound+1 (the violation value).
  EXPECT_EQ(cluster.next_startup_time(c, 11), 11);
  // Target reached: frozen at bound+2.
  c.node[2].state = NodeState::kActive;
  EXPECT_EQ(cluster.next_startup_time(c, 5), 12);
  EXPECT_EQ(cluster.next_startup_time(c, 12), 12);
}

TEST(Cluster, StartupTimeHubTarget) {
  ClusterConfig cfg = small_cfg();
  cfg.faulty_hub = 0;
  cfg.timeliness_bound = 10;
  cfg.timeliness_target = TimelinessTarget::kCorrectHubSynced;
  const Cluster cluster(cfg);

  ClusterState c = cluster.base_initial_state();
  c.node[0].state = NodeState::kListen;
  c.node[1].state = NodeState::kListen;
  EXPECT_EQ(cluster.next_startup_time(c, 0), 1);
  // A node going active does NOT freeze the hub-target counter.
  c.node[2].state = NodeState::kActive;
  EXPECT_EQ(cluster.next_startup_time(c, 3), 4);
  // The correct hub (hub 1) reaching TENTATIVE freezes it.
  c.hub[1].state = HubState::kTentative;
  EXPECT_EQ(cluster.next_startup_time(c, 3), 12);
}

TEST(Cluster, SuccessorCountMatchesChoiceStructureAtInit) {
  // From the initial state: each of the 3 nodes has 2 options (stay/wake),
  // the delayed hub has 2, the other 1; relays are all blocked (INIT), so
  // the successor multiset has 2^3 * 2 = 16 entries.
  const Cluster cluster(small_cfg());
  Cluster::State init{};
  cluster.initial_states([&](const Cluster::State& s) { init = s; });
  int count = 0;
  cluster.successors(init, [&](const Cluster::State&) { ++count; });
  EXPECT_EQ(count, 16);
}

TEST(Cluster, PackUnpackRoundTripWithFaultyHub) {
  auto cfg = small_cfg();
  cfg.faulty_hub = 0;
  cfg.timeliness_bound = 12;
  cfg.timeliness_target = TimelinessTarget::kCorrectHubSynced;
  const Cluster cluster(cfg);
  Rng rng(8);
  auto r = mc::simulate(cluster, 150, rng);
  ASSERT_FALSE(r.trace.empty());
  for (const auto& packed : r.trace) {
    EXPECT_EQ(cluster.pack(cluster.unpack(packed)), packed);
  }
}

TEST(Cluster, PackUnpackRoundTripWithFaultyNodeAndRestarts) {
  auto cfg = small_cfg();
  cfg.faulty_node = 1;
  cfg.fault_degree = 6;
  cfg.transient_restarts = 1;
  const Cluster cluster(cfg);
  Rng rng(9);
  auto r = mc::simulate(cluster, 150, rng);
  for (const auto& packed : r.trace) {
    EXPECT_EQ(cluster.pack(cluster.unpack(packed)), packed);
  }
}

TEST(Cluster, DelayedHubIsNeverTheFaultyOne) {
  // Exactly one guardian is powered late and it must be a correct one
  // (paper §5.4: n nodes plus ONE guardian share the wake-up window).
  for (int fh : {0, 1}) {
    ClusterConfig cfg = small_cfg();
    cfg.faulty_hub = fh;
    EXPECT_EQ(hub_init_window_for(cfg, fh == 0 ? 1 : 0), cfg.hub_init_window);
    EXPECT_EQ(hub_init_window_for(cfg, fh), 1);
  }
  ClusterConfig cfg = small_cfg();  // no faulty hub: hub 0 is the delayed one
  EXPECT_EQ(hub_init_window_for(cfg, 0), cfg.hub_init_window);
  EXPECT_EQ(hub_init_window_for(cfg, 1), 1);
}

TEST(Cluster, RejectsOversizedConfiguration) {
  ClusterConfig cfg;
  cfg.n = 8;
  cfg.faulty_hub = 0;
  cfg.timeliness_bound = 200;
  cfg.init_window = 64;
  // 8 nodes with a faulty hub and a wide counter may exceed 192 bits; if it
  // does, the constructor must refuse rather than truncate.
  try {
    const Cluster cluster(cfg);
    EXPECT_LE(cluster.state_bits(), 192);
  } catch (const std::invalid_argument&) {
    SUCCEED();
  }
}

// ---------------------------------------------------------------------------
// Emission order. BFS ids, parent links and counterexample traces all depend
// on the order in which Cluster::successors emits, so the tests below pin
// the ordered stream, not just the successor set.

using State = Cluster::State;
using Stream = std::vector<State>;

/// Reference enumerator: the straightforward per-emission loop nest, built
/// only from the model's public step functions. For every node-choice
/// combination (node 0 the fastest odometer digit, the faulty node's
/// digit running over its admitted output pairs) it steps both hubs for
/// every relay option pair and state option pair and packs each successor
/// whole. Cluster::successors must emit exactly this sequence.
Stream reference_successors(const Cluster& cl, const State& s) {
  const ClusterConfig& cfg = cl.config();
  const FaultyNodeOutputs faulty_outputs(cfg);
  const ClusterState c = cl.unpack(s);
  const int n = cfg.n;
  Stream out;

  auto step = [&](int restart_node) {
    Frame node_in[kMaxNodes][kNumChannels];
    for (int i = 0; i < n; ++i) {
      for (int h = 0; h < kNumChannels; ++h) {
        node_in[i][h] = c.hub[h].delivered(i, cfg.hub_is_faulty(h));
      }
    }
    std::uint8_t fn_locks = 0;
    if (cfg.faulty_node != ClusterConfig::kNone) {
      for (int h = 0; h < kNumChannels; ++h) {
        if (!cfg.hub_is_faulty(h) && ((c.hub[h].locks >> cfg.faulty_node) & 1u)) {
          fn_locks = static_cast<std::uint8_t>(fn_locks | (1u << h));
        }
      }
    }
    const auto& fpairs = faulty_outputs.pairs(fn_locks);

    // Every node's options as (next vars, channel-0 frame, channel-1 frame).
    struct Option {
      NodeVars next;
      Frame out[kNumChannels];
    };
    std::vector<Option> opts[kMaxNodes];
    for (int i = 0; i < n; ++i) {
      if (i == restart_node) {
        opts[i].push_back({NodeVars{}, {Frame::quiet(), Frame::quiet()}});
      } else if (cfg.node_is_faulty(i)) {
        for (const auto& [a, b] : fpairs) {
          opts[i].push_back({faulty_node_vars(cfg, fn_locks), {a, b}});
        }
      } else {
        for (int o = 0; o < node_option_count(cfg, c.node[i]); ++o) {
          const NodeStep st = node_step(cfg, i, c.node[i], node_in[i], o);
          opts[i].push_back({st.next, {st.out, st.out}});
        }
      }
    }

    const int sopt0 = hub_state_option_count(cfg, 0, c.hub[0]);
    const int sopt1 = hub_state_option_count(cfg, 1, c.hub[1]);
    int choice[kMaxNodes] = {};
    while (true) {
      ClusterState t;
      Frame outs[kNumChannels][kMaxNodes];
      for (int i = 0; i < n; ++i) {
        const Option& o = opts[i][static_cast<std::size_t>(choice[i])];
        t.node[i] = o.next;
        outs[0][i] = o.out[0];
        outs[1][i] = o.out[1];
      }
      t.restarts_used = static_cast<std::uint8_t>(c.restarts_used + (restart_node >= 0 ? 1 : 0));
      const int ropt0 = hub_relay_option_count(cfg, 0, c.hub[0], outs[0]);
      const int ropt1 = hub_relay_option_count(cfg, 1, c.hub[1], outs[1]);
      for (int r0 = 0; r0 < ropt0; ++r0) {
        for (int r1 = 0; r1 < ropt1; ++r1) {
          RelayDecision d0;
          RelayDecision d1;
          if (cfg.hub_is_faulty(0)) {
            d1 = hub_relay(cfg, 1, c.hub[1], outs[1], r1);
            d0 = faulty_hub_relay(cfg, c.hub[0], outs[0], d1.interlink, r0);
          } else if (cfg.hub_is_faulty(1)) {
            d0 = hub_relay(cfg, 0, c.hub[0], outs[0], r0);
            d1 = faulty_hub_relay(cfg, c.hub[1], outs[1], d0.interlink, r1);
          } else {
            d0 = hub_relay(cfg, 0, c.hub[0], outs[0], r0);
            d1 = hub_relay(cfg, 1, c.hub[1], outs[1], r1);
          }
          for (int s0 = 0; s0 < sopt0; ++s0) {
            for (int s1 = 0; s1 < sopt1; ++s1) {
              t.hub[0] = cfg.hub_is_faulty(0)
                             ? faulty_hub_state_step(cfg, c.hub[0], d0)
                             : hub_state_step(cfg, 0, c.hub[0], d0, d1.interlink, s0);
              t.hub[1] = cfg.hub_is_faulty(1)
                             ? faulty_hub_state_step(cfg, c.hub[1], d1)
                             : hub_state_step(cfg, 1, c.hub[1], d1, d0.interlink, s1);
              t.startup_time = cl.next_startup_time(t, c.startup_time);
              out.push_back(cl.pack(t));
            }
          }
        }
      }
      int k = 0;
      while (k < n && ++choice[k] == static_cast<int>(opts[k].size())) choice[k++] = 0;
      if (k == n) break;
    }
  };

  step(-1);
  if (cfg.transient_restarts > 0 && c.restarts_used < cfg.transient_restarts) {
    for (int r = 0; r < n; ++r) {
      if (!cfg.node_is_faulty(r)) step(r);
    }
  }
  return out;
}

Stream successor_stream(const Cluster& cl, const State& s) {
  Stream out;
  cl.successors(s, [&](const State& t) { out.push_back(t); });
  return out;
}

struct StateHash {
  std::size_t operator()(const State& s) const noexcept { return hash_words(s); }
};

/// Every reachable state in BFS order (ids in emission order).
std::vector<State> reachable(const Cluster& cl) {
  std::unordered_set<State, StateHash> seen;
  std::vector<State> order;
  auto visit = [&](const State& t) {
    if (seen.insert(t).second) order.push_back(t);
  };
  cl.initial_states(visit);
  for (std::size_t head = 0; head < order.size(); ++head) cl.successors(order[head], visit);
  return order;
}

struct OracleCell {
  int n;
  int faulty_node;  ///< ClusterConfig::kNone for the faulty-hub cells
  int faulty_hub;
  int degree;
  bool feedback;
  TimelinessTarget target;

  [[nodiscard]] ClusterConfig config() const {
    ClusterConfig cfg;
    cfg.n = n;
    cfg.faulty_node = faulty_node;
    cfg.faulty_hub = faulty_hub;
    cfg.fault_degree = degree;
    cfg.feedback = feedback;
    cfg.init_window = 2;
    cfg.hub_init_window = 2;
    cfg.timeliness_bound = 3;
    cfg.timeliness_target = target;
    cfg.transient_restarts = 1;
    return cfg;
  }
};

std::vector<OracleCell> oracle_grid() {
  std::vector<OracleCell> cells;
  for (int n : {3, 4}) {
    for (int f = 0; f < n + 2; ++f) {
      const int node = f < n ? f : ClusterConfig::kNone;
      const int hub = f < n ? ClusterConfig::kNone : f - n;
      for (int degree : {1, 3, 6}) {
        for (bool feedback : {true, false}) {
          // Degree and feedback shape only the faulty node's outputs, so a
          // faulty-hub model is the same for every value: run it once.
          if (hub != ClusterConfig::kNone && (degree != 6 || !feedback)) continue;
          for (TimelinessTarget target :
               {TimelinessTarget::kFirstCorrectActive, TimelinessTarget::kCorrectHubSynced}) {
            cells.push_back({n, node, hub, degree, feedback, target});
          }
        }
      }
    }
  }
  return cells;
}

std::string cell_name(const OracleCell& c) {
  std::string name = "n" + std::to_string(c.n);
  name += c.faulty_node != ClusterConfig::kNone ? "_node" + std::to_string(c.faulty_node)
                                                : "_hub" + std::to_string(c.faulty_hub);
  name += "_deg" + std::to_string(c.degree);
  name += c.feedback ? "_fb" : "_nofb";
  name += c.target == TimelinessTarget::kFirstCorrectActive ? "_node_target" : "_hub_target";
  return name;
}

std::string oracle_cell_name(const ::testing::TestParamInfo<OracleCell>& info) {
  return cell_name(info.param);
}

// Names the cell in test listings (gtest would print the struct's raw
// bytes, padding included).
void PrintTo(const OracleCell& c, std::ostream* os) { *os << cell_name(c); }

class EmissionOrder : public ::testing::TestWithParam<OracleCell> {};

TEST_P(EmissionOrder, MatchesReferenceEnumeratorOnEveryReachableState) {
  const Cluster cluster(GetParam().config());
  const std::vector<State> states = reachable(cluster);
  ASSERT_FALSE(states.empty());
  std::size_t emissions = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const Stream got = successor_stream(cluster, states[i]);
    const Stream want = reference_successors(cluster, states[i]);
    ASSERT_EQ(got, want) << "state #" << i << " of " << states.size();
    emissions += got.size();
  }
  EXPECT_GT(emissions, states.size());
}

INSTANTIATE_TEST_SUITE_P(Grid, EmissionOrder, ::testing::ValuesIn(oracle_grid()),
                         oracle_cell_name);

/// FNV-1a over every word of every emission, in order, over the reachable
/// set in BFS order — an ordered-stream fingerprint.
struct StreamFingerprint {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t emissions = 0;
  std::size_t states = 0;
};

StreamFingerprint fingerprint(const Cluster& cl) {
  StreamFingerprint fp;
  const std::vector<State> states = reachable(cl);
  fp.states = states.size();
  for (const State& s : states) {
    cl.successors(s, [&](const State& t) {
      ++fp.emissions;
      for (std::uint64_t w : t) {
        for (int b = 0; b < 64; b += 8) {
          fp.hash ^= (w >> b) & 0xffu;
          fp.hash *= 0x100000001b3ULL;
        }
      }
    });
  }
  return fp;
}

ClusterConfig fingerprint_cell_a() {
  ClusterConfig cfg;  // fig6 cell, faulty node in the middle of the odometer
  cfg.n = 4;
  cfg.faulty_node = 1;
  cfg.fault_degree = 6;
  cfg.init_window = 4;
  cfg.hub_init_window = 4;
  return cfg;
}

ClusterConfig fingerprint_cell_b() {
  ClusterConfig cfg;  // slowest faulty digit, restarts and the startup counter
  cfg.n = 4;
  cfg.faulty_node = 3;
  cfg.fault_degree = 3;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  cfg.timeliness_bound = 6;
  cfg.transient_restarts = 1;
  return cfg;
}

ClusterConfig fingerprint_cell_c() {
  ClusterConfig cfg;  // faulty hub: per-port deliveries and the frozen pattern
  cfg.n = 4;
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  return cfg;
}

// The reduced streams have no reference enumerator of their own: the set of
// a reduced cluster's emissions is checked against the raw emissions below
// (ReducedEmissions), and their order is pinned here to the values the
// per-emission kernel produced.
TEST(EmissionOrderFingerprint, SymmetryAndSymPorStreamsArePinned) {
  struct Pin {
    ClusterConfig cfg;
    Reduction reduction;
    StreamFingerprint want;
  };
  const Pin pins[] = {
      {fingerprint_cell_a(), Reduction::kSymmetry, {0xd25405a28fb0a10dULL, 56440, 3944}},
      {fingerprint_cell_a(), Reduction::kSymPor, {0xc0c19f41ea27d87eULL, 40699, 2738}},
      {fingerprint_cell_b(), Reduction::kSymmetry, {0x850b8ce0621be64fULL, 400624, 25671}},
      {fingerprint_cell_b(), Reduction::kSymPor, {0x8b8f85e8033abb85ULL, 349823, 21649}},
      {fingerprint_cell_c(), Reduction::kSymmetry, {0xbef76f67e163cb66ULL, 148381, 57053}},
  };
  for (const Pin& pin : pins) {
    const StreamFingerprint got = fingerprint(Cluster(pin.cfg, pin.reduction));
    SCOPED_TRACE(pin.cfg.summary() + " reduction=" + to_string(pin.reduction));
    EXPECT_EQ(got.states, pin.want.states);
    EXPECT_EQ(got.emissions, pin.want.emissions);
    EXPECT_EQ(got.hash, pin.want.hash);
  }
}

/// Every raw emission mapped through the reduced cluster's own reduction map,
/// as a set.
std::unordered_set<State, StateHash> reduced_images(const Cluster& reduced, const Stream& raw) {
  std::unordered_set<State, StateHash> out;
  for (const State& t : raw) out.insert(reduced.reduce(t));
  return out;
}

// An oracle for the reduced paths that does not share their code: from every
// reachable state, the set of reduced emissions is exactly the set of images
// of the raw emissions under Cluster::reduce, and every reduced emission is
// already a fixed point of reduce. The same holds for the initial states.
TEST(ReducedEmissions, SetEqualsReduceOfRawEmissions) {
  ClusterConfig hub3 = fingerprint_cell_c();
  hub3.n = 3;
  const std::pair<ClusterConfig, Reduction> cells[] = {
      {fingerprint_cell_a(), Reduction::kSymmetry},
      {fingerprint_cell_a(), Reduction::kPartialOrder},
      {fingerprint_cell_a(), Reduction::kSymPor},
      {fingerprint_cell_b(), Reduction::kSymmetry},
      {fingerprint_cell_b(), Reduction::kPartialOrder},
      {fingerprint_cell_b(), Reduction::kSymPor},
      {hub3, Reduction::kSymmetry},
      {fingerprint_cell_c(), Reduction::kSymmetry},
  };
  for (const auto& [cfg, mode] : cells) {
    SCOPED_TRACE(cfg.summary() + " reduction=" + to_string(mode));
    const Cluster raw(cfg);
    const Cluster reduced(cfg, mode);
    auto check = [&](const Stream& got, const Stream& raw_stream, const char* what) {
      for (const State& t : got) ASSERT_EQ(reduced.reduce(t), t) << what;
      const std::unordered_set<State, StateHash> got_set(got.begin(), got.end());
      ASSERT_EQ(got_set, reduced_images(reduced, raw_stream)) << what;
    };
    Stream inits;
    Stream raw_inits;
    reduced.initial_states([&](const State& t) { inits.push_back(t); });
    raw.initial_states([&](const State& t) { raw_inits.push_back(t); });
    check(inits, raw_inits, "initial states");
    const std::vector<State> states = reachable(reduced);
    for (std::size_t i = 0; i < states.size(); ++i) {
      check(successor_stream(reduced, states[i]), successor_stream(raw, states[i]),
            ("state #" + std::to_string(i)).c_str());
    }
  }
}

// successors() keeps all of its scratch on the stack of the call, so a call
// made from inside another call's emit callback, or from several threads on
// one const Cluster, sees exactly what a lone top-level call sees.
/// The kernel's sinks: unreduced, sym+por, and sym under a faulty hub.
std::vector<std::pair<ClusterConfig, Reduction>> reentrancy_cells() {
  return {{fingerprint_cell_a(), Reduction::kNone},
          {fingerprint_cell_a(), Reduction::kSymPor},
          {fingerprint_cell_c(), Reduction::kSymmetry}};
}

TEST(ClusterReentrancy, NestedCallFromEmitCallbackMatchesTopLevel) {
  for (const auto& [cfg, reduction] : reentrancy_cells()) {
    SCOPED_TRACE(cfg.summary() + " reduction=" + to_string(reduction));
    const Cluster cluster(cfg, reduction);
    const std::vector<State> states = reachable(cluster);
    for (std::size_t i = 0; i < states.size(); i += 97) {
      // Top-level streams of the state and of every 7th successor, then the
      // same streams again with each successor's enumeration nested inside
      // the enumeration of the state.
      const Stream outer_want = successor_stream(cluster, states[i]);
      std::vector<Stream> inner_want;
      for (std::size_t k = 0; k < outer_want.size(); k += 7) {
        inner_want.push_back(successor_stream(cluster, outer_want[k]));
      }
      Stream outer_got;
      std::vector<Stream> inner_got;
      cluster.successors(states[i], [&](const State& t) {
        if (outer_got.size() % 7 == 0) inner_got.push_back(successor_stream(cluster, t));
        outer_got.push_back(t);
      });
      ASSERT_EQ(outer_got, outer_want) << "state #" << i;
      ASSERT_EQ(inner_got, inner_want) << "state #" << i;
    }
  }
}

TEST(ClusterReentrancy, ConcurrentCallsOnOneClusterMatchTopLevel) {
  for (const auto& [cfg, reduction] : reentrancy_cells()) {
    SCOPED_TRACE(cfg.summary() + " reduction=" + to_string(reduction));
    const Cluster cluster(cfg, reduction);
    const std::vector<State> states = reachable(cluster);
    std::vector<Stream> want;
    want.reserve(states.size());
    for (const State& s : states) want.push_back(successor_stream(cluster, s));
    constexpr int kThreads = 4;
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread walks the states from a different starting point.
        for (std::size_t k = 0; k < states.size(); ++k) {
          const std::size_t i = (k + static_cast<std::size_t>(t) * states.size() / kThreads) %
                                states.size();
          if (successor_stream(cluster, states[i]) != want[i]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0u) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace tt::tta
