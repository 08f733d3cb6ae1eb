// Parameterized sweeps over the experiment grid (cluster size x fault degree
// x feedback x big-bang), asserting the paper's verdicts on every cell the
// CI budget allows. This is the regression net for the whole reproduction:
// any semantic change to the node/guardian automata that breaks a lemma
// anywhere in the grid fails here.
#include <gtest/gtest.h>

#include <tuple>

#include "core/verifier.hpp"
#include "tta/properties.hpp"

namespace tt::core {
namespace {

struct Cell {
  int n;
  int degree;
  bool feedback;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return "n" + std::to_string(info.param.n) + "_deg" + std::to_string(info.param.degree) +
         (info.param.feedback ? "_fb" : "_nofb");
}

tta::ClusterConfig grid_config(const Cell& cell) {
  tta::ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.faulty_node = 0;
  cfg.fault_degree = cell.degree;
  cfg.feedback = cell.feedback;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  return cfg;
}

class FaultyNodeGrid : public ::testing::TestWithParam<Cell> {};

TEST_P(FaultyNodeGrid, SafetyHolds) {
  auto r = verify(grid_config(GetParam()), Lemma::kSafety);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST_P(FaultyNodeGrid, LivenessHolds) {
  auto r = verify(grid_config(GetParam()), Lemma::kLiveness);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST_P(FaultyNodeGrid, TimelinessHoldsAtGenerousBound) {
  auto cfg = grid_config(GetParam());
  cfg.timeliness_bound = 10 * cfg.n;
  auto r = verify(cfg, Lemma::kTimeliness);
  EXPECT_TRUE(r.holds) << r.verdict_text;
}

TEST_P(FaultyNodeGrid, HubAgreementBoundary) {
  // Extension finding (EXPERIMENTS.md): node/guardian schedule agreement is
  // guaranteed only up to fault degree 2. From degree 3 on, the faulty node
  // can fabricate a plausible i-frame during STARTUP and later confirm the
  // resulting ghost tentative round from its own slot, dragging a guardian
  // onto a schedule offset from the nodes'. The paper's lemmas (which do not
  // cover guardian agreement) still hold there — this is an observation our
  // exhaustive fault simulation surfaced beyond the paper's claims.
  auto r = verify(grid_config(GetParam()), Lemma::kHubAgreement);
  EXPECT_TRUE(r.exhausted);
  if (GetParam().degree <= 2) {
    EXPECT_TRUE(r.holds) << r.verdict_text;
  } else {
    EXPECT_FALSE(r.holds) << "ghost-schedule scenario unexpectedly vanished";
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, FaultyNodeGrid,
                         ::testing::Values(Cell{3, 1, true}, Cell{3, 2, true},
                                           Cell{3, 3, true}, Cell{3, 4, true},
                                           Cell{3, 5, true}, Cell{3, 6, true},
                                           Cell{3, 6, false}, Cell{4, 6, true},
                                           Cell{4, 3, false}),
                         cell_name);

class FaultyHubGrid : public ::testing::TestWithParam<int> {};

TEST_P(FaultyHubGrid, Safety2HoldsWithGuardiansFirst) {
  tta::ClusterConfig cfg;
  cfg.n = GetParam();
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;  // guardians power up before nodes (§5.2/§5.4)
  cfg.timeliness_bound = 8 * cfg.n;
  auto r = verify(cfg, Lemma::kSafety2);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST_P(FaultyHubGrid, LivenessBoundaryUnderFaultyHub) {
  // Documented boundary (EXPERIMENTS.md): full liveness under a faulty
  // guardian fails through the residual clique class of §5.2 (the paper
  // excludes those scenarios by the power-on arrangement and accordingly
  // only claims safety_2 for the faulty-hub configuration — Fig. 6(d)).
  // A faulty hub can split the cold-starting nodes onto offset schedules
  // and then keep one node "colliding" between the two ghosts forever.
  tta::ClusterConfig cfg;
  cfg.n = GetParam();
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;
  auto r = verify(cfg, Lemma::kLiveness);
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.holds) << "residual §5.2 clique scenario unexpectedly vanished";
}

INSTANTIATE_TEST_SUITE_P(Sizes, FaultyHubGrid, ::testing::Values(3, 4));

// The wake-up-window boundary of Lemma 1 under a degree-6 faulty node: safety
// holds up to a window of 2n+2 slots and fails from 2n+3 on, well below the
// paper's δ_init of 8 rounds. Pinned as it stands so the finding cannot
// vanish silently; every violation must replay through the raw cluster.
struct WindowCell {
  int n;
  int window;
  std::size_t states;       ///< holds-cells: exact reachable count
  std::size_t transitions;  ///< holds-cells: exact transition count
  int depth;                ///< violated cells: counterexample depth; -1 = holds
};

std::string window_cell_name(const ::testing::TestParamInfo<WindowCell>& info) {
  return "n" + std::to_string(info.param.n) + "_w" + std::to_string(info.param.window) +
         (info.param.depth < 0 ? "_holds" : "_violated");
}

class SafetyWindowBoundary : public ::testing::TestWithParam<WindowCell> {};

TEST_P(SafetyWindowBoundary, SeqVerdictCountsAndReplay) {
  const WindowCell& cell = GetParam();
  tta::ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.init_window = cell.window;
  cfg.hub_init_window = cell.window;
  VerifyOptions opts;
  opts.engine = mc::EngineKind::kSequential;
  const auto r = verify(cfg, Lemma::kSafety, opts);
  ASSERT_TRUE(r.exhausted);
  if (cell.depth < 0) {
    EXPECT_TRUE(r.holds) << r.verdict_text;
    EXPECT_EQ(r.stats.states, cell.states);
    EXPECT_EQ(r.stats.transitions, cell.transitions);
    return;
  }
  ASSERT_FALSE(r.holds);
  ASSERT_EQ(r.trace.size(), static_cast<std::size_t>(cell.depth) + 1);
  EXPECT_EQ(r.stats.depth, cell.depth);

  const tta::ClusterConfig pcfg = prepare_config(cfg, Lemma::kSafety);
  const tta::Cluster raw(pcfg);
  bool initial = false;
  raw.initial_states([&](const tta::Cluster::State& s) { initial |= s == r.trace.front(); });
  EXPECT_TRUE(initial) << "trace must start in an initial state";
  for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
    bool connected = false;
    raw.successors(r.trace[i], [&](const tta::Cluster::State& s) { connected |= s == r.trace[i + 1]; });
    EXPECT_TRUE(connected) << "step " << i << " does not replay";
  }
  EXPECT_FALSE(tta::holds_safety(pcfg, raw.unpack(r.trace.back())))
      << "final state must violate safety";
}

INSTANTIATE_TEST_SUITE_P(Fig6Degree6, SafetyWindowBoundary,
                         ::testing::Values(WindowCell{3, 8, 5'103, 269'672, -1},
                                           WindowCell{3, 9, 0, 0, 10},
                                           WindowCell{4, 10, 87'643, 7'314'756, -1},
                                           WindowCell{4, 11, 0, 0, 12}),
                         window_cell_name);

TEST(BigBangGrid, CliqueDepthStrictlyLaterWithBigBang) {
  // The §5.2 result in regression form: under a faulty guardian the earliest
  // agreement violation (clique) sits strictly deeper with the big-bang
  // than without it, for every cluster size we can afford here.
  for (int n : {3, 4}) {
    int depth[2] = {0, 0};
    for (bool bb : {false, true}) {
      tta::ClusterConfig cfg;
      cfg.n = n;
      cfg.faulty_hub = 0;
      cfg.big_bang = bb;
      cfg.init_window = 3;
      cfg.hub_init_window = 1;
      auto r = verify(cfg, Lemma::kSafety);
      ASSERT_FALSE(r.holds) << "expected a residual clique scenario, n=" << n;
      depth[bb ? 1 : 0] = static_cast<int>(r.trace.size()) - 1;
    }
    EXPECT_GT(depth[1], depth[0]) << "n=" << n;
  }
}

}  // namespace
}  // namespace tt::core
