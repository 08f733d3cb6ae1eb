// Partial-order reduction for the cluster model (DESIGN.md §3.8).
//
// The synchronous product in Cluster::successors interleaves three choice
// groups — node wake-up nondeterminism, the faulty node's output alphabet,
// and hub arbitration — whose only interaction during the pre-coldstart
// phase is the *delivery* of a frame through an open guardian. Until the
// first guaranteed delivery, the per-node LISTEN countdowns are pairwise
// independent (they read and write disjoint counters and no shared state),
// so the choice combinations that differ only in how much *unobservable*
// slack those countdowns still carry are commutation-equivalent: any
// interleaving of the remaining quiet steps reaches the same successor set.
//
// The reducer exploits this as an ample-set style state clamp rather than a
// transition filter: every emitted successor whose clock slack provably
// exceeds the *delivery horizon* is redirected to the representative with
// slack exactly at the horizon. The ample conditions map as follows:
//
//  C0 (emptiness)     — the clamp never drops a transition; each emission is
//                       redirected, not suppressed, so ample ≠ ∅ trivially.
//  C1 (dependency)    — the certificate: along EVERY adversary path from a
//                       gated state, some reception event reaches all
//                       clamped nodes strictly before any clamped countdown
//                       could have fired. Deliveries are broadcasts (any
//                       usable frame or frame collision resets every LISTEN
//                       counter), so the skipped slack is unobservable.
//  C2 (invisibility)  — clamped counters are invisible to every property:
//                       lemma labels read node/hub control states, not LISTEN
//                       counters, and the oracle test refines bisimulation
//                       with all lemma labels (safety, activity, timeliness).
//  C3 (cycle proviso) — discharged by construction: the clamp is an
//                       idempotent map applied to every emission — no
//                       transition is deferred to a later state, so no cycle
//                       can starve a deferred action. Emissions where the
//                       gate declines are counted as `proviso_fallbacks`
//                       (full, unreduced expansion).
//
// The horizon certificate (validated against a bisimulation oracle over the
// union graph at n = 4 for the plain, transient-restart, and timeliness
// configurations, and at n = 5 plain — see tests/tta/independence_test.cpp):
//
//   gate    all correct nodes in INIT/LISTEN, all hubs correct and in
//           INIT/LISTEN/STARTUP, no usable broadcast in flight.
//   o*      a slot by which some guardian is certainly arbitrating —
//           max-stay INIT wake plus the LISTEN count, minimized over hubs.
//   merged  the distinct slots (>= o*) at which correct nodes transmit under
//           worst-case (latest) schedules; distinct slots, because one hub
//           arbitration pick masks every simultaneous correct transmission.
//   masks   the faulty node can suppress at most ONE certain-delivery slot
//           (junk on both channels) — and none once a hub that is certainly
//           open by then has already locked its port.
//   cap     merged[masks + remaining transient restarts]: a delivery that
//           survives every masking budget. Reception is classified before
//           the timeout check in node_step, so a LISTEN slack of exactly
//           `cap` is already dead — counters are clamped to slack `cap`.
#pragma once

#include <cstdint>

#include "tta/config.hpp"
#include "tta/hub.hpp"
#include "tta/node.hpp"

namespace tt::tta {

struct ClusterState;

/// Reduction dials. The defaults are the validated certificate; the two
/// knobs exist so the oracle test can demonstrate that deliberately broken
/// relations (per-transmission masking, an off-by-one horizon) are caught.
struct PorTuning {
  /// Added to the horizon. 0 is exact (validated); -1 clamps a slack whose
  /// timeout fires before the guaranteed reception — unsound.
  int margin = 0;
  /// Collapse simultaneous transmissions into one delivery slot. Disabling
  /// this counts each transmission as maskable individually — unsound (a
  /// single hub arbitration pick masks the whole slot).
  bool dedupe_slots = true;
};

/// Statistics of one exploration's clamp decisions (relaxed totals).
struct PorStats {
  std::uint64_t ample_sets = 0;         ///< emissions with the gate open
  std::uint64_t pruned_combos = 0;      ///< emissions redirected to the clamped rep
  std::uint64_t proviso_fallbacks = 0;  ///< emissions expanded in full (gate closed)
};

/// Keeps a reference to its configuration, which must outlive it.
class PartialOrderReducer {
 public:
  explicit PartialOrderReducer(const ClusterConfig& cfg, PorTuning tuning = {});
  explicit PartialOrderReducer(const ClusterConfig&& cfg, PorTuning tuning = {}) = delete;

  /// Configuration-level admissibility: the certificate covers correct-hub
  /// clusters only (a faulty hub invalidates the guaranteed-delivery bound:
  /// it may refuse to relay forever).
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Per-node schedule depth the combo plan carries (first k worst-case
  /// transmission instants; sized to the masking + restart budget).
  [[nodiscard]] int instants() const noexcept { return instants_; }
  /// Bound on instants(): four slots plus one per restart beyond the first.
  static constexpr int kMaxInstants = 4 + kMaxNodes / 2;

  /// One correct node's share of a ComboPlan, a pure function of its next
  /// variables (the symmetry sink caches it per node record).
  struct NodePlan {
    bool gate = false;    ///< in INIT/LISTEN
    bool listen = false;  ///< in LISTEN
    int slack = 0;        ///< LT_TO[j] - counter, when listening
    int tx[kMaxInstants] = {};  ///< first instants() worst-case TX slots, ascending (gate only)
  };
  void plan_node(int j, const NodeVars& v, NodePlan& out) const;

  /// Combo-level precomputation: shared by every hub-phase successor of one
  /// node-choice combination (the prefix-sharing analog of pack_node_prefix).
  struct ComboPlan {
    bool gate = false;  ///< all correct nodes in INIT/LISTEN
    int ntx = 0;        ///< sorted distinct worst-case TX slots
    int tx[kMaxNodes * kMaxInstants] = {};
    int nlisten = 0;  ///< correct LISTEN nodes, with their current slack
    std::uint8_t listen_node[kMaxNodes] = {};
    int listen_slack[kMaxNodes] = {};  ///< LT_TO[j] - counter
  };
  /// Merges the correct nodes' plans (`nodes[j]` for every correct j; the
  /// faulty node's entry is never read) into the combo plan.
  void combine(const NodePlan* const* nodes, ComboPlan& plan) const;
  /// plan_node for every correct node, then combine.
  void prepare(const NodeVars* nodes, ComboPlan& plan) const;

  enum class Outcome : std::uint8_t {
    kDeclined,   ///< gate closed (node or hub side): emit unchanged, full expansion
    kUnchanged,  ///< gate open, no slack beyond the horizon
    kClamped,    ///< gate open, some LISTEN slack exceeds the horizon `cap`
  };

  /// Successor-level decision: hub-side gate + delivery horizon. Pure — the
  /// shared combo node array is never touched; on kClamped the caller clamps
  /// a scratch copy via `clamp` and re-packs the node prefix (hub variables
  /// and the scalar suffix are never affected). `in_flight` is
  /// broadcast_in_flight(h0.out, h1.out); the symmetry sink passes it for the
  /// canonical broadcast pair without materializing canonical HubVars.
  Outcome decide(const ComboPlan& plan, const HubVars& h0, const HubVars& h1, bool in_flight,
                 std::uint8_t restarts_used, int& cap) const;

  /// A usable (well-formed cs or i) frame is broadcast on either channel:
  /// a reception resolves next step, so decide declines.
  [[nodiscard]] static constexpr bool broadcast_in_flight(const Frame& out0,
                                                          const Frame& out1) noexcept {
    return out0.is_cs() || out0.is_i() || out1.is_cs() || out1.is_i();
  }

  /// Rewrites every over-slack LISTEN counter to the horizon representative
  /// (slack exactly `cap`, from a kClamped decision).
  void clamp(const ComboPlan& plan, int cap, NodeVars* nodes) const;

  /// Whole-state entry point (Cluster::reduce, concretization, tests).
  Outcome saturate(ClusterState& c) const;

  /// First `k` worst-case transmission instants of a correct node by direct
  /// simulation of its quiet-input automaton — the oracle the closed-form
  /// schedule in `prepare` is unit-tested against.
  void worst_tx_reference(int id, NodeVars v, int k, int* out) const;

  /// Latest slot by which a correct hub is certainly arbitrating (exposed
  /// for the schedule unit tests).
  [[nodiscard]] int hub_latest_open_bound(int h, const HubVars& v) const;

 private:
  [[nodiscard]] int first_tx_closed_form(int id, const NodeVars& v) const;

  const ClusterConfig* cfg_;
  PorTuning tuning_;
  bool enabled_ = false;
  int instants_ = 4;
};

}  // namespace tt::tta
