// The synchronous cluster model: n nodes x 2 guardians x interlinks,
// exposed as an mc::TransitionSystem over bit-packed 192-bit states.
//
// This is the C++ counterpart of the paper's SAL `system` module (§3.1): at
// every step all nodes move, both hubs arbitrate and relay, and the hubs
// exchange interlink data — with all fault-injection nondeterminism
// enumerated explicitly (exhaustive fault simulation).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "support/function_ref.hpp"
#include "tta/config.hpp"
#include "tta/faulty_node.hpp"
#include "tta/hub.hpp"
#include "tta/independence.hpp"
#include "tta/node.hpp"
#include "tta/symmetry.hpp"

namespace tt::tta {

/// Fully unpacked cluster state (for model code, properties, and printing).
struct ClusterState {
  NodeVars node[kMaxNodes];
  HubVars hub[2];
  /// Timeliness counter (only tracked when cfg.timeliness_bound > 0):
  /// 0 = not started, 1..bound+1 = slots elapsed since ">= 2 correct nodes
  /// in LISTEN/COLDSTART" (bound+1 saturates: the violation value),
  /// bound+2 = timeliness target reached (frozen success).
  std::uint8_t startup_time = 0;
  /// Transient restarts injected so far (cfg.transient_restarts budget).
  std::uint8_t restarts_used = 0;
};

class Cluster {
 public:
  using State = PackedState;
  static constexpr std::size_t kWords = std::tuple_size_v<State>;
  using Emit = FunctionRef<void(const State&)>;
  using EmitUnpacked = FunctionRef<void(const ClusterState&)>;

  explicit Cluster(ClusterConfig cfg, Reduction reduction = Reduction::kNone);

  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Reduction reduction() const noexcept { return reduction_; }

  /// Emits every initial state: all components in INIT (faulty ones in their
  /// fault mode); one initial state per frozen faulty-hub pattern (3^n,
  /// reproducing the SAL model's uninitialized LOCAL arrays, §3.2.2).
  void initial_states(Emit emit) const;

  /// Enumerates all successors of `s` (DESIGN.md §4 defines the two-phase
  /// step semantics and every nondeterminism source).
  void successors(const State& s, Emit emit) const;

  /// Same enumeration over unpacked states (used by the trace printer and
  /// the interactive examples).
  void step_unpacked(const ClusterState& c, EmitUnpacked emit) const;

  [[nodiscard]] State pack(const ClusterState& c) const;
  [[nodiscard]] ClusterState unpack(const State& s) const;

  /// Number of state bits the packed representation uses (the explicit-state
  /// analogue of the paper's "BDD variables" column in Fig. 6).
  [[nodiscard]] int state_bits() const noexcept { return state_bits_; }

  /// The common (pattern-free) part of every initial state.
  [[nodiscard]] ClusterState base_initial_state() const;

  /// Timeliness bookkeeping (exposed for tests).
  [[nodiscard]] std::uint8_t next_startup_time(const ClusterState& next,
                                               std::uint8_t prev) const;

  /// Orbit representative of `s` under the model's exact symmetries
  /// (tta/symmetry.hpp, DESIGN.md §3.6). Independent of the reduction mode
  /// this cluster explores with, so an unreduced cluster can map raw states
  /// into the quotient (trace re-concretization, equivalence tests). With
  /// Reduction::kSymmetry every state the cluster emits is a fixed point.
  [[nodiscard]] State canonicalize(const State& s) const;

  /// This cluster's full reduction map: the image an arbitrary raw state
  /// would be emitted as (orbit representative and/or partial-order clamp,
  /// per the reduction mode; identity for kNone). Every state a reduced
  /// cluster emits is a fixed point of `reduce` — concretization and the
  /// equivalence tests rely on this.
  [[nodiscard]] State reduce(const State& s) const;

  /// Canonicalization instrumentation: states canonicalized on the emission
  /// path, and how many of them picked the channel-swapped image. Relaxed
  /// counters — totals are exact once a run has joined its workers.
  [[nodiscard]] std::uint64_t canon_ops() const noexcept {
    return canon_ops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t canon_swaps() const noexcept {
    return canon_swaps_.load(std::memory_order_relaxed);
  }

  /// Partial-order reduction instrumentation (DESIGN.md §3.8; zero unless
  /// the reduction has a por component): emissions whose independence gate
  /// was open (`ample_sets`), emissions redirected to the clamped horizon
  /// representative (`pruned_combos`), and emissions the gate declined into
  /// full expansion (`proviso_fallbacks`). Relaxed counters, exact at join.
  [[nodiscard]] std::uint64_t ample_sets() const noexcept {
    return por_ample_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pruned_combos() const noexcept {
    return por_pruned_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t proviso_fallbacks() const noexcept {
    return por_declined_.load(std::memory_order_relaxed);
  }

 private:
  /// Node-dependent part of the startup-time update, computed once per node
  /// choice combination (the hub-dependent part varies per emission).
  struct StartupPre {
    bool node_target = false;  ///< a correct node is ACTIVE (kFirstCorrectActive)
    bool awake2 = false;       ///< >= 2 correct nodes in LISTEN/COLDSTART
  };
  [[nodiscard]] StartupPre startup_pre(const NodeVars* nodes) const;
  [[nodiscard]] std::uint8_t startup_from(const StartupPre& pre, const HubVars& h0,
                                          const HubVars& h1, std::uint8_t prev) const;

  /// One hub's share of a successor: its next variables, the frame it
  /// mirrored onto the interlink this step, and the variables packed at the
  /// hub's fixed offset of the layout (every other bit zero).
  struct HubPart {
    HubVars vars;
    Frame interlink;
    State bits{};
  };
  /// Per-call memo of the hub phase (cluster.cpp); lives on the stack of
  /// one successors()/step_unpacked() call.
  struct StepMemo;
  /// The orbit-canonicalizing sink of the sym and sym+por modes
  /// (cluster.cpp, DESIGN.md §3.6); one per successors() call.
  struct CanonPackSink;

  /// The step kernel, generic over how successors leave it. A *group* is a
  /// run of consecutive successors that share one choice for every correct
  /// node (only the faulty node's output pair varies). `Sink` sees
  /// `combo(next_nodes)` once per group, then `successor(p0, p1,
  /// startup_time, restarts_used)` once per successor, in the order of the
  /// per-emission loop nest (node 0 the fastest odometer digit, then relay
  /// options r0, r1, then state options s0, s1). Within a group each
  /// hub's relay phase runs once per distinct frame the faulty node puts on
  /// its channel, and each hub part is computed once per (own frame, relay
  /// option, other hub's interlink, state option) and then reused.
  template <class Sink>
  void step_core(const ClusterState& c, int restart_node, StepMemo& memo, Sink& sink) const;

  /// Runs step_core for the fault-free step plus every transient-restart
  /// variant (paper §2.1 restart dimension).
  template <class Sink>
  void step_all(const ClusterState& c, Sink& sink) const;

  /// Word-wise minimum of a canonical state and its channel-swapped image
  /// (the C3 orbit representative); shared by canonicalize and reduce.
  [[nodiscard]] State min_swap_pack(const ClusterState& c) const;

  /// The partial-order reducer when the reduction has a por component,
  /// else null.
  [[nodiscard]] const PartialOrderReducer* por() const noexcept {
    return reduction_has_por(reduction_) ? &reducer_ : nullptr;
  }

  /// Adds one exploration call's clamp decisions to the relaxed counters.
  void flush_por_stats(const PorStats& stats) const;

  /// Serializes the per-node prefix of the packed layout (the bits of `s`
  /// before hub 0; the rest must be zero).
  void pack_node_prefix(State& s, const NodeVars* nodes) const;
  /// A node record's node_bits_ bits, as pack_node_prefix places them.
  [[nodiscard]] std::uint64_t node_value(const NodeVars& v) const noexcept;
  /// A frame's frame_bits_ bits, as pack_hub places them.
  [[nodiscard]] std::uint64_t frame_value(const Frame& f) const noexcept;
  /// Serializes hub `h` at its fixed offset (its bits of `s` must be zero).
  void pack_hub(State& s, int h, const HubVars& v) const;
  /// Serializes startup_time and restarts_used, the last fields of the
  /// layout (their bits of `s` must be zero).
  void pack_tail(State& s, std::uint8_t startup_time, std::uint8_t restarts_used) const;

  static int pow3(int n) noexcept {
    int r = 1;
    for (int i = 0; i < n; ++i) r *= 3;
    return r;
  }

  ClusterConfig cfg_;
  Reduction reduction_ = Reduction::kNone;
  FaultyNodeOutputs faulty_outputs_;
  /// The orbit canonicalizer (every mode: canonicalize() serves unreduced
  /// clusters too) and the partial-order reducer, built once per cluster
  /// over cfg_.
  const Canonicalizer canon_;
  const PartialOrderReducer reducer_;
  /// Every successors() call bumps these from every worker. The padding
  /// keeps them off the cache lines of reducer_ and the layout fields below
  /// wherever the Cluster lands (sharing a line would make each bump evict
  /// what every pack reads). Padding, not alignas: an over-aligned Cluster
  /// needs an aligned operator new, which measurably slowed cell set-up.
  char counters_pad_front_[64] = {};
  mutable std::atomic<std::uint64_t> canon_ops_{0};
  mutable std::atomic<std::uint64_t> canon_swaps_{0};
  mutable std::atomic<std::uint64_t> por_ample_{0};
  mutable std::atomic<std::uint64_t> por_pruned_{0};
  mutable std::atomic<std::uint64_t> por_declined_{0};
  char counters_pad_back_[64] = {};
  int counter_bits_ = 0;
  int pos_bits_ = 0;
  int node_bits_ = 0;  ///< one node record: state, counter, pos, big_bang
  int frame_bits_ = 0;
  int st_bits_ = 0;
  int restart_bits_ = 0;
  /// Bit offsets of hub 0 (the end of the per-node prefix), hub 1 and the
  /// startup/restart tail.
  int hub_off_[3] = {};
  int state_bits_ = 0;
};

}  // namespace tt::tta
