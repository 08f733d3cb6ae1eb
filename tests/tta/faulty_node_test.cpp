#include "tta/faulty_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace tt::tta {
namespace {

ClusterConfig faulty_cfg(int n, int degree, bool feedback = true) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = 1;
  cfg.fault_degree = degree;
  cfg.feedback = feedback;
  return cfg;
}

TEST(FaultyNodeOutputs, ChannelOptionCountsPerDegree) {
  // Per-channel option counts: 1, 2, 2+n, 3+n, 2n+2, 2n+3 for degrees 1..6.
  const int n = 4;
  EXPECT_EQ(FaultyNodeOutputs::channel_options(n, 1, 1).size(), 1u);
  EXPECT_EQ(FaultyNodeOutputs::channel_options(n, 1, 2).size(), 2u);
  EXPECT_EQ(FaultyNodeOutputs::channel_options(n, 1, 3).size(), 6u);
  EXPECT_EQ(FaultyNodeOutputs::channel_options(n, 1, 4).size(), 7u);
  EXPECT_EQ(FaultyNodeOutputs::channel_options(n, 1, 5).size(), 10u);
  EXPECT_EQ(FaultyNodeOutputs::channel_options(n, 1, 6).size(), 11u);
}

TEST(FaultyNodeOutputs, RankMatchesFigure3) {
  EXPECT_EQ(FaultyNodeOutputs::rank_of(Frame::quiet(), 1), FaultRank::kQuiet);
  EXPECT_EQ(FaultyNodeOutputs::rank_of(Frame::cs(1), 1), FaultRank::kCsGood);
  EXPECT_EQ(FaultyNodeOutputs::rank_of(Frame::cs(2), 1), FaultRank::kCsBad);
  EXPECT_EQ(FaultyNodeOutputs::rank_of(Frame::i(0), 1), FaultRank::kIGood);
  EXPECT_EQ(FaultyNodeOutputs::rank_of(Frame::noise(), 1), FaultRank::kNoise);
  EXPECT_EQ(FaultyNodeOutputs::rank_of(Frame::i_bad(), 1), FaultRank::kIBad);
}

class FaultDegreeMatrix : public ::testing::TestWithParam<int> {};

TEST_P(FaultDegreeMatrix, PairsRespectMaxRankRule) {
  // Fig. 3: a pair is admitted iff max(rank_a, rank_b) <= degree, and every
  // such pair is present exactly once (exhaustiveness of the dial).
  const int degree = GetParam();
  const auto cfg = faulty_cfg(4, degree);
  const FaultyNodeOutputs outputs(cfg);
  const auto& pairs = outputs.pairs(0);

  const auto all6 = FaultyNodeOutputs::channel_options(cfg.n, cfg.faulty_node, 6);
  std::size_t expected = 0;
  for (const Frame& a : all6) {
    for (const Frame& b : all6) {
      const int ra = static_cast<int>(FaultyNodeOutputs::rank_of(a, cfg.faulty_node));
      const int rb = static_cast<int>(FaultyNodeOutputs::rank_of(b, cfg.faulty_node));
      if (std::max(ra, rb) <= degree) ++expected;
    }
  }
  EXPECT_EQ(pairs.size(), expected);
  for (const auto& [a, b] : pairs) {
    const int ra = static_cast<int>(FaultyNodeOutputs::rank_of(a, cfg.faulty_node));
    const int rb = static_cast<int>(FaultyNodeOutputs::rank_of(b, cfg.faulty_node));
    EXPECT_LE(std::max(ra, rb), degree);
  }
  // No duplicates.
  auto sorted = pairs;
  std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
    auto key = [](const Frame& f) {
      return (static_cast<int>(f.kind) << 8) | (f.time << 1) | (f.ok ? 1 : 0);
    };
    return std::pair(key(x.first), key(x.second)) < std::pair(key(y.first), key(y.second));
  });
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, FaultDegreeMatrix, ::testing::Range(1, 7));

TEST(FaultyNodeOutputs, Degree6CountIsExhaustive) {
  // (2n+3)^2 pairs at degree 6: the paper's "36 combinations" generalized to
  // concrete time values.
  const auto cfg = faulty_cfg(4, 6);
  const FaultyNodeOutputs outputs(cfg);
  EXPECT_EQ(outputs.pairs(0).size(), 11u * 11u);
}

TEST(FaultyNodeOutputs, FeedbackForcesLockedChannelsQuiet) {
  const auto cfg = faulty_cfg(4, 6, /*feedback=*/true);
  const FaultyNodeOutputs outputs(cfg);
  for (const auto& [a, b] : outputs.pairs(1)) EXPECT_TRUE(a.is_quiet());
  for (const auto& [a, b] : outputs.pairs(2)) EXPECT_TRUE(b.is_quiet());
  for (const auto& [a, b] : outputs.pairs(3)) {
    EXPECT_TRUE(a.is_quiet());
    EXPECT_TRUE(b.is_quiet());
  }
  EXPECT_EQ(outputs.pairs(3).size(), 1u);
  EXPECT_EQ(outputs.pairs(1).size(), 11u);
}

TEST(FaultyNodeOutputs, WithoutFeedbackLocksAreIgnored) {
  const auto cfg = faulty_cfg(4, 6, /*feedback=*/false);
  const FaultyNodeOutputs outputs(cfg);
  EXPECT_EQ(outputs.pairs(3).size(), outputs.pairs(0).size());
}

TEST(FaultyNodeOutputs, PairOrderIsChannelZeroOuterInRankOrder) {
  // The successor kernel's emission order follows this pair order: channel
  // 0's frame is the outer loop, both in Fig. 3 rank order, and a channel
  // whose guardian locked the node offers quiet only.
  for (bool feedback : {true, false}) {
    for (int degree = 1; degree <= 6; ++degree) {
      const auto cfg = faulty_cfg(4, degree, feedback);
      const FaultyNodeOutputs outputs(cfg);
      const auto opts = FaultyNodeOutputs::channel_options(cfg.n, cfg.faulty_node, degree);
      for (std::uint8_t locks = 0; locks < 4; ++locks) {
        const bool l0 = feedback && (locks & 1u) != 0;
        const bool l1 = feedback && (locks & 2u) != 0;
        std::vector<std::pair<Frame, Frame>> want;
        for (const Frame& a : opts) {
          if (l0 && !a.is_quiet()) continue;
          for (const Frame& b : opts) {
            if (!l1 || b.is_quiet()) want.emplace_back(a, b);
          }
        }
        EXPECT_EQ(outputs.pairs(locks), want) << "degree " << degree << " locks " << int{locks};
      }
    }
  }
}

TEST(FaultyNodeVars, FeedbackTracksLockStatus) {
  const auto cfg = faulty_cfg(4, 6, /*feedback=*/true);
  EXPECT_EQ(faulty_node_vars(cfg, 0).state, NodeState::kFaulty);
  EXPECT_EQ(faulty_node_vars(cfg, 1).state, NodeState::kFaultyLock0);
  EXPECT_EQ(faulty_node_vars(cfg, 2).state, NodeState::kFaultyLock1);
  EXPECT_EQ(faulty_node_vars(cfg, 3).state, NodeState::kFaultyLock01);
}

TEST(FaultyNodeVars, WithoutFeedbackStateIsFrozen) {
  const auto cfg = faulty_cfg(4, 6, /*feedback=*/false);
  for (std::uint8_t locks = 0; locks < 4; ++locks) {
    EXPECT_EQ(faulty_node_vars(cfg, locks).state, NodeState::kFaulty);
  }
}

TEST(FaultyNodeOutputs, MasqueradeNeverUsesOwnId) {
  const auto opts = FaultyNodeOutputs::channel_options(5, 2, 5);
  for (const Frame& f : opts) {
    if (f.kind == MsgKind::kCs && f.ok) {
      // cs frames are either the node's own id (rank 2) or a foreign id
      // (rank 5); verify the rank-5 entries exclude id 2 exactly once each.
    }
  }
  int own = 0;
  int foreign = 0;
  for (const Frame& f : opts) {
    if (f.kind != MsgKind::kCs) continue;
    if (f.time == 2) {
      ++own;
    } else {
      ++foreign;
    }
  }
  EXPECT_EQ(own, 1);
  EXPECT_EQ(foreign, 4);
}

}  // namespace
}  // namespace tt::tta
