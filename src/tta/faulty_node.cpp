#include "tta/faulty_node.hpp"

#include <utility>

#include "support/assert.hpp"

namespace tt::tta {

std::vector<Frame> FaultyNodeOutputs::channel_options(int n, int id, int degree) {
  TT_REQUIRE(degree >= 1 && degree <= 6, "fault degree must be in [1, 6]");
  std::vector<Frame> out;
  out.push_back(Frame::quiet());                                              // rank 1
  if (degree >= 2) out.push_back(Frame::cs(static_cast<std::uint8_t>(id)));   // rank 2
  if (degree >= 3) {                                                          // rank 3
    for (int t = 0; t < n; ++t) out.push_back(Frame::i(static_cast<std::uint8_t>(t)));
  }
  if (degree >= 4) out.push_back(Frame::noise());                             // rank 4
  if (degree >= 5) {                                                          // rank 5
    for (int t = 0; t < n; ++t) {
      if (t != id) out.push_back(Frame::cs(static_cast<std::uint8_t>(t)));
    }
  }
  if (degree >= 6) out.push_back(Frame::i_bad());                             // rank 6
  return out;
}

FaultRank FaultyNodeOutputs::rank_of(const Frame& f, int id) {
  switch (f.kind) {
    case MsgKind::kQuiet: return FaultRank::kQuiet;
    case MsgKind::kNoise: return FaultRank::kNoise;
    case MsgKind::kCs:
      if (!f.ok || f.time != id) return FaultRank::kCsBad;
      return FaultRank::kCsGood;
    case MsgKind::kI: return f.ok ? FaultRank::kIGood : FaultRank::kIBad;
  }
  return FaultRank::kIBad;
}

FaultyNodeOutputs::FaultyNodeOutputs(const ClusterConfig& cfg, bool collapse_classes)
    : feedback_(cfg.feedback) {
  if (cfg.faulty_node == ClusterConfig::kNone) return;
  frames_ = channel_options(cfg.n, cfg.faulty_node, cfg.fault_degree);
  if (collapse_classes) {
    // Keep the first frame of each observable class in Fig. 3 rank order
    // (quiet, cs(own), i(own), then the cheapest provably-faulty emission).
    std::vector<Frame> reps;
    bool seen[4] = {};
    for (const Frame& f : frames_) {
      const int c = hub_observable_class(f, cfg.faulty_node);
      if (!seen[c]) {
        seen[c] = true;
        reps.push_back(f);
      }
    }
    frames_ = std::move(reps);
  }
  TT_ASSERT(frames_.front().is_quiet());  // what a locked channel keeps (feedback)
}

std::vector<std::pair<Frame, Frame>> FaultyNodeOutputs::pairs(std::uint8_t locks) const {
  std::vector<std::pair<Frame, Frame>> out;
  for (const Frame& a : channel(locks, 0)) {
    for (const Frame& b : channel(locks, 1)) out.emplace_back(a, b);
  }
  return out;
}

NodeVars faulty_node_vars(const ClusterConfig& cfg, std::uint8_t locks) {
  NodeVars v;
  v.counter = 0;
  v.pos = 0;
  v.big_bang = false;
  if (!cfg.feedback) {
    v.state = NodeState::kFaulty;
    return v;
  }
  switch (locks & 3u) {
    case 0: v.state = NodeState::kFaulty; break;
    case 1: v.state = NodeState::kFaultyLock0; break;
    case 2: v.state = NodeState::kFaultyLock1; break;
    default: v.state = NodeState::kFaultyLock01; break;
  }
  return v;
}

}  // namespace tt::tta
