// Symmetry/orbit reduction for the cluster model (DESIGN.md §3.6).
//
// The reduction maps every candidate state to a canonical orbit
// representative *before* the packed state reaches `hash_words`, so the
// hash-once pipeline — recent-seen cache, sharded interning, every explicit
// engine, and the BDD-set symbolic engines (which enumerate successors
// through the same `Cluster::successors`) — explores the quotient for free.
//
// An honest note on the group (the paper's cluster is *less* symmetric than
// it looks): full node-permutation symmetry is UNSOUND for this model. The
// startup algorithm deliberately staggers nodes by identity — per-node
// timeouts LT_TO[i] = 2n+i and CS_TO[i] = n+i, cs-frames carrying the
// sender's id, TDMA slot ownership (`pos == id` transmit rule), and per-port
// guardian locks all break it; even pure rotations shift the timeout ladder.
// tests/tta/symmetry_test.cpp demonstrates the non-commutation. What *is*
// exact — each component below is a strong bisimulation on the reachable
// graph, so verdicts, quotient counts and (re-concretized) counterexamples
// are preserved for every lemma:
//
//  C0  dead big-bang bit: with cfg.big_bang == false the per-node big_bang
//      flag is never read; canonicalize it to false.
//  C1  dead delivered frames: a stored hub output frame is consumed only by
//      `classify_reception`, which treats noise and ill-formed frames
//      exactly like quiet — so (a) any stored frame that is not a
//      well-formed cs/i-frame collapses to quiet, and (b) frames delivered
//      toward nodes that are not correct nodes in LISTEN/COLDSTART are
//      never read at all and collapse to quiet.
//  C2  faulty-hub pattern: with (a) above, a kNoise port mode is
//      behaviourally identical to kQuiet (both deliver nothing usable), and
//      every mode on the faulty *node's* port is dead (a faulty node never
//      reads its inputs) — 3^n frozen patterns shrink toward 2^n.
//  C3  channel swap: with no faulty hub the two channels are interchangeable
//      once both guardians have left INIT (the δ_init wake-up window is the
//      only hub asymmetry, and guardians never return to INIT, so
//      eligibility is absorbing). The orbit representative is the
//      lexicographically smaller of the packed state and its channel-swapped
//      image (hub variables exchanged, faulty-node lock state mirrored).
//  C4  dead faulty-node record: the Byzantine node's stored NodeVars are
//      never read — its next outputs and successor variables are recomputed
//      from the *hub* lock bits every step (step_core's fn_locks), and every
//      property skips the faulty node by configuration index — so the whole
//      per-node record collapses to the constant kFaulty.
//  C5  reception-class frame pairs: what a listener extracts from the two
//      delivered frames is classify_reception's outcome, which is symmetric
//      in the pair and forgets collision details — so the stored pair
//      collapses to its outcome's representative: (quiet, quiet), a single
//      usable frame always placed on channel 0, or one fixed collision pair
//      (any same-kind time-mismatch, of either kind, is THE collision; a
//      cs-frame losing against an i-frame vanishes). Under a faulty hub the
//      same collapse runs per port, holding the correct hub's shared
//      broadcast fixed.
//
// A separate, transition-only collapse rides along in FaultyNodeOutputs:
// through *correct* guardians all provably-faulty emissions of the Byzantine
// node (noise, masquerading cs-frames, foreign/ill-formed i-frames) are
// locked and relayed as noise identically, so one class representative per
// channel replaces the whole (2n+3)-element alphabet tail (~10x fewer
// enumerated transitions at fault degree 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tta/config.hpp"
#include "tta/hub.hpp"
#include "tta/node.hpp"
#include "tta/types.hpp"

namespace tt::tta {

class Cluster;
struct ClusterState;

/// The canonicalization components C0-C3, precomputed per configuration.
/// Pure functions of (config, state); safe to share across threads. Keeps a
/// reference to `cfg`, which must outlive it.
class Canonicalizer {
 public:
  explicit Canonicalizer(const ClusterConfig& cfg);
  explicit Canonicalizer(const ClusterConfig&& cfg) = delete;

  /// C0 and C4 on node i's record, in place. Returns whether node i is a
  /// listener: a correct node in LISTEN/COLDSTART, the only states in which
  /// a node reads its delivered frames next step (C1/C5 depend on this).
  bool canonicalize_node(int i, NodeVars& v) const;

  /// C1/C5 (+ C2 for a faulty hub) on the delivered-frame pair, given the
  /// listener analysis of the *same* state's nodes. Joint over both hubs
  /// because the reception-class collapse is a property of the pair.
  void canonicalize_hubs(HubVars& h0, HubVars& h1, const bool listener[],
                         bool any_listener) const;

  /// C1/C5 on the broadcast pair of two correct hubs (the part of
  /// canonicalize_hubs that reads no other hub variable).
  static void canonicalize_broadcasts(Frame& out0, Frame& out1, bool any_listener);

  /// All of C0-C2, C4, C5 on an unpacked state, in place (test/oracle entry
  /// point; the hot path uses the split functions above).
  void canonicalize_vars(ClusterState& c) const;

  /// C3 is admissible for this configuration at all (no faulty hub, and no
  /// hub-identity-dependent timeliness target).
  [[nodiscard]] bool swap_allowed() const noexcept { return swap_allowed_; }

  /// C3 is applicable to this particular state: both guardians past INIT
  /// (the wake-up window is the only hub asymmetry; absorbing).
  [[nodiscard]] static bool swap_eligible(const HubVars& h0, const HubVars& h1) noexcept {
    return h0.state != HubState::kInit && h1.state != HubState::kInit;
  }

  /// Applies the channel-swap group element: exchanges the hub variables and
  /// mirrors the faulty node's per-channel lock state. Note that on a
  /// *canonicalized* state, C5's pair representative is an unordered-pair
  /// invariant, so the canonical form of the swapped image keeps the frame
  /// fields in place while state/counter/slot/locks exchange channels.
  void swap_channels(ClusterState& c) const;

  /// Lock-state mirror under channel swap (kFaultyLock0 <-> kFaultyLock1).
  [[nodiscard]] static NodeState swap_node_state(NodeState s) noexcept {
    if (s == NodeState::kFaultyLock0) return NodeState::kFaultyLock1;
    if (s == NodeState::kFaultyLock1) return NodeState::kFaultyLock0;
    return s;
  }

 private:
  const ClusterConfig* cfg_;
  bool swap_allowed_ = false;
};

/// A concretized counterexample over the *raw* (unreduced) transition
/// relation; `loop_start` is remapped when lasso unrolling extends the trace.
struct ConcreteTrace {
  std::vector<PackedState> trace;
  std::size_t loop_start = 0;
};

/// Re-concretizes a quotient counterexample produced under `mode`: a trace
/// of the raw cluster whose i-th state reduces to quotient[i] (edge-by-edge,
/// so mc::validate_lasso / validate_deadlock_path replay passes against the
/// raw model). Because every reduction component is a bisimulation, a
/// concrete witness exists from *any* representative; the deterministic
/// replay picks the first matching successor. Under a partial-order mode the
/// raw walk and the quotient may disagree pointwise for a bounded window —
/// the clamp raises LISTEN counters the raw path has not caught up with
/// until the guaranteed broadcast resets both — so the walk keeps a small
/// frontier of counter-dominated candidates and re-synchronizes on the first
/// exact match; endpoints (the violation state, every lasso lap entry) are
/// always exact. With `initial_root` the stem is anchored at a raw initial
/// state whose image is quotient[0]; otherwise (sequential AG AF stems) the
/// representative itself — a legitimate state of the raw model — roots the
/// trace. With `has_loop` the quotient cycle is unrolled until a concrete
/// lap-entry state repeats (image classes are finite, so this terminates),
/// and `loop_start` is remapped accordingly.
[[nodiscard]] ConcreteTrace concretize_trace(const Cluster& raw, Reduction mode,
                                             const std::vector<PackedState>& quotient,
                                             std::size_t loop_start, bool has_loop,
                                             bool initial_root);

}  // namespace tt::tta
