// Exhaustive fault simulation of a faulty node (paper §3.2.1, Fig. 3).
//
// At every slot a faulty node may emit, independently per channel, any output
// admitted by the fault degree δ:
//
//   rank 1  quiet            rank 4  noise
//   rank 2  cs-frame (good)  rank 5  cs-frame (bad: masquerade as any other id)
//   rank 3  i-frame  (good)  rank 6  i-frame  (bad: ill-formed)
//
// A channel pair (a, b) is admitted iff max(rank a, rank b) <= δ — exactly
// the 6x6 matrix of Fig. 3. "Good" i-frames may claim any TDMA position
// (the node is free to lie plausibly); "bad" cs-frames may claim any other
// node's identity. Degree 6 therefore yields (2n+3)^2 choices per slot:
// this is what the paper calls *exhaustive fault simulation*.
//
// The *feedback* optimization (§3.2.1): once guardian h has locked the node's
// port, the node's output on channel h can no longer influence anything, so
// the model collapses it to quiet and records the lock in the state
// (kFaultyLock0/1/01). This prunes clutter states without removing behaviour.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "tta/config.hpp"
#include "tta/node.hpp"
#include "tta/types.hpp"

namespace tt::tta {

/// Precomputed per-step output alternatives of the faulty node, per channel
/// and lock status (bit 0: locked by hub 0, bit 1: locked by hub 1).
class FaultyNodeOutputs {
 public:
  FaultyNodeOutputs() = default;
  /// With `collapse_classes` (symmetry reduction, both guardians correct),
  /// per-channel options are deduplicated to one representative per
  /// correct-guardian observable class (hub_observable_class): every
  /// provably-faulty emission is locked by scan_locks and relayed as noise
  /// identically in every hub state, so class members produce bit-identical
  /// successors — the (2n+3)^2 Fig. 3 matrix shrinks to at most 4x4 without
  /// removing behaviour. Unsound under a faulty hub (it forwards selected
  /// frames verbatim), so the Cluster never enables it there.
  FaultyNodeOutputs(const ClusterConfig& cfg,  // NOLINT: built from config only
                    bool collapse_classes = false);

  /// The frames admitted on channel `h` for the given lock bits, in Fig. 3
  /// rank order: all of them, or quiet alone (the first) once guardian h
  /// has locked the node. Without feedback, lock bits are ignored (the full
  /// list is returned), reproducing the paper's feedback-off state blow-up.
  [[nodiscard]] std::span<const Frame> channel(std::uint8_t locks, int h) const {
    const bool locked = feedback_ && ((locks >> h) & 1u) != 0;
    return {frames_.data(), locked ? std::min<std::size_t>(1, frames_.size()) : frames_.size()};
  }

  /// All admitted (channel0, channel1) output pairs for the given lock bits:
  /// the product of the two channel lists, channel 0 the outer loop, so pair
  /// p is (channel(locks, 0)[p / channel(locks, 1).size()],
  /// channel(locks, 1)[p % channel(locks, 1).size()]).
  [[nodiscard]] std::vector<std::pair<Frame, Frame>> pairs(std::uint8_t locks) const;

  /// Per-channel frames admitted at degree δ for a node `id` (test hook;
  /// also documents the Fig. 3 ranking).
  [[nodiscard]] static std::vector<Frame> channel_options(int n, int id, int degree);

  /// Fig. 3 rank of a single frame as emitted by node `id`.
  [[nodiscard]] static FaultRank rank_of(const Frame& f, int id);

  /// How a *correct* guardian can possibly distinguish a frame transmitted
  /// by node `id` (the collapse classes):
  ///   0 = quiet, 1 = well-formed cs carrying the own id, 2 = well-formed
  ///   i-frame claiming the own slot, 3 = provably faulty (noise, ill-formed
  ///   frames, masquerading cs, foreign-slot i) — locked by scan_locks and
  ///   relayed as noise wherever a port is open.
  [[nodiscard]] static int hub_observable_class(const Frame& f, int id) noexcept {
    if (f.is_quiet()) return 0;
    if (f.is_cs() && f.time == id) return 1;
    if (f.is_i() && f.time == id) return 2;
    return 3;
  }

 private:
  std::vector<Frame> frames_;  ///< one channel's outputs; frames_[0] is quiet
  bool feedback_ = true;
};

/// Successor variables of the faulty node: with feedback the state records
/// the current lock status; without feedback it stays kFaulty forever.
[[nodiscard]] NodeVars faulty_node_vars(const ClusterConfig& cfg, std::uint8_t locks);

}  // namespace tt::tta
