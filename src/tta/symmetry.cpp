#include "tta/symmetry.hpp"

#include <utility>

#include "support/assert.hpp"
#include "tta/cluster.hpp"
#include "tta/faulty_node.hpp"

namespace tt::tta {

namespace {

/// The full reception outcome C5 must preserve.
bool same_reception(const NodeReception& a, const NodeReception& b) {
  return a.i_frame == b.i_frame && a.cs_frame == b.cs_frame && a.collision == b.collision &&
         a.time == b.time;
}

}  // namespace

Canonicalizer::Canonicalizer(const ClusterConfig& cfg) : cfg_(&cfg) {
  // C3 admissibility. A faulty hub pins channel identity (the fault lives on
  // one channel), and the kCorrectHubSynced timeliness target names "the
  // first correct hub" by index — both break the swap globally. The δ_init
  // wake-up asymmetry (hub 0 is the delayed guardian) is handled per state
  // by swap_eligible: it only exists while a hub is still in INIT.
  swap_allowed_ = cfg_->faulty_hub == ClusterConfig::kNone &&
                  !(cfg_->timeliness_bound > 0 &&
                    cfg_->timeliness_target == TimelinessTarget::kCorrectHubSynced);
}

bool Canonicalizer::canonicalize_node(int i, NodeVars& v) const {
  // C4: the Byzantine node's stored record is write-only — step_core
  // recomputes its successor variables and admitted output pairs from the
  // *hub* lock bits every step, and every property skips it by
  // configuration index — so the record collapses to the lock-free constant.
  if (cfg_->node_is_faulty(i)) {
    v = faulty_node_vars(*cfg_, 0);
    return false;
  }
  if (!cfg_->big_bang) v.big_bang = false;  // C0: bit never read
  return v.state == NodeState::kListen || v.state == NodeState::kColdstart;
}

void Canonicalizer::canonicalize_broadcasts(Frame& out0, Frame& out1, bool any_listener) {
  // C1/C5 on the broadcast pair: stored frames are consumed only by
  // classify_reception — symmetric in the pair, blind to collision
  // details, and only run by correct nodes in LISTEN/COLDSTART — so the
  // pair collapses to its reception outcome's fixed representative.
  if (any_listener) {
    const NodeReception r = classify_reception(out0, out1);
    if (r.collision) {  // any same-kind time-mismatch, of either kind
      out0 = Frame::cs(0);
      out1 = Frame::cs(1);
      return;
    }
    if (r.i_frame) {  // a cs-frame losing against an i-frame vanishes
      out0 = Frame::i(r.time);
      out1 = Frame::quiet();
      return;
    }
    if (r.cs_frame) {
      out0 = Frame::cs(r.time);
      out1 = Frame::quiet();
      return;
    }
  }
  out0 = Frame::quiet();
  out1 = Frame::quiet();
}

void Canonicalizer::canonicalize_hubs(HubVars& h0, HubVars& h1, const bool listener[],
                                      bool any_listener) const {
  if (cfg_->faulty_hub == ClusterConfig::kNone) {
    canonicalize_broadcasts(h0.out, h1.out, any_listener);
    return;
  }

  HubVars& cv = cfg_->faulty_hub == 0 ? h1 : h0;  // the correct hub
  HubVars& fv = cfg_->faulty_hub == 0 ? h0 : h1;  // the faulty hub
  // C1 on the correct hub's shared broadcast; it cannot be rewritten per
  // receiver, so only the unusable/unread collapse applies.
  if (!any_listener || !(cv.out.is_cs() || cv.out.is_i())) cv.out = Frame::quiet();
  for (int j = 0; j < cfg_->n; ++j) {
    Frame& f = fv.out_per_port[j];
    if (!listener[j]) {
      f = Frame::quiet();  // C1: never read
    } else {
      // C5 per port, holding the shared broadcast fixed: replace the
      // delivered frame by the canonical one yielding the same reception
      // outcome at node j (subsumes C1's noise/ill-formed collapse).
      const NodeReception r = classify_reception(f, cv.out);
      if (same_reception(r, classify_reception(Frame::quiet(), cv.out))) {
        f = Frame::quiet();
      } else if (r.collision) {
        // Collisions are same-kind time-mismatches against the broadcast
        // (cross-kind pairs resolve in the i-frame's favour); any
        // mismatching slot collides, so shift the broadcast's by one.
        const auto t = static_cast<std::uint8_t>((cv.out.time + 1) % cfg_->n);
        f = cv.out.is_cs() ? Frame::cs(t) : Frame::i(t);
      } else if (r.i_frame) {
        f = Frame::i(r.time);
      } else {
        f = Frame::cs(r.time);
      }
    }
    // C2 on the frozen pattern: a kNoise port delivers noise, which every
    // receiver treats exactly like kQuiet's silence (and C1/C5 store both
    // as quiet); the faulty node's own port is never read at all.
    if (fv.port_mode(j) == HubPortMode::kNoise || cfg_->node_is_faulty(j)) {
      fv.set_port_mode(j, HubPortMode::kQuiet);
    }
  }
}

void Canonicalizer::canonicalize_vars(ClusterState& c) const {
  bool listener[kMaxNodes] = {};
  bool any_listener = false;
  for (int i = 0; i < cfg_->n; ++i) {
    listener[i] = canonicalize_node(i, c.node[i]);
    any_listener = any_listener || listener[i];
  }
  canonicalize_hubs(c.hub[0], c.hub[1], listener, any_listener);
}

void Canonicalizer::swap_channels(ClusterState& c) const {
  std::swap(c.hub[0], c.hub[1]);
  if (cfg_->faulty_node != ClusterConfig::kNone) {
    NodeVars& v = c.node[cfg_->faulty_node];
    v.state = swap_node_state(v.state);
  }
}

namespace {

/// Concrete walker through the quotient trace. For the symmetry-only
/// quotient every step has an exact witness (strong bisimulation, matched
/// pointwise). Under a partial-order mode the clamp can outrun the raw walk
/// for a bounded window: the quotient representative carries LISTEN counters
/// raised to the horizon while the raw path still holds the original slack —
/// until the guaranteed broadcast resets both sides to identical counters.
/// The walker therefore keeps a small frontier of *counter-dominated*
/// candidates (equal everywhere except correct LISTEN counters, raw <=
/// quotient) and collapses it to the first exact match; every consumer-
/// visible anchor (trace end, lasso lap entries) is required to be exact.
class ConcreteWalker {
 public:
  ConcreteWalker(const Cluster& raw, Reduction mode)
      : raw_(raw), red_(raw.config(), mode), canon_(raw.config()) {}

  const Cluster& reduced() const { return red_; }

  /// Starts a walk at a single concrete state.
  void reset(const Cluster::State& s) {
    arena_.clear();
    arena_.push_back({s, -1, 0});
    frontier_ = {0};
  }

  /// Advances one quotient edge. Returns false when no candidate has any
  /// (exact or dominated) witness.
  bool advance(const Cluster::State& target) {
    // Exact pass first: the common case, and the resynchronization point —
    // deterministic first-match keeps replays reproducible.
    for (const int fi : frontier_) {
      int found = -1;
      raw_.successors(arena_[static_cast<std::size_t>(fi)].s, [&](const Cluster::State& t) {
        if (found < 0 && red_.reduce(t) == target) {
          arena_.push_back({t, fi, 0});
          found = static_cast<int>(arena_.size()) - 1;
        }
      });
      if (found >= 0) {
        frontier_ = {found};
        return true;
      }
    }
    // Divergence window: keep dominated candidates, bounded in width and
    // run length (the clamp certificate guarantees reconvergence within a
    // delivery round; the bounds only guard against pathological blowup).
    std::vector<int> next;
    for (const int fi : frontier_) {
      const int run = arena_[static_cast<std::size_t>(fi)].diverged;
      if (run >= kMaxDivergence) continue;
      raw_.successors(arena_[static_cast<std::size_t>(fi)].s, [&](const Cluster::State& t) {
        if (next.size() < kMaxCandidates && dominated(t, target)) {
          arena_.push_back({t, fi, run + 1});
          next.push_back(static_cast<int>(arena_.size()) - 1);
        }
      });
    }
    if (next.empty()) return false;
    frontier_ = std::move(next);
    return true;
  }

  /// The walk is currently at a single exact state.
  [[nodiscard]] bool exact() const {
    return frontier_.size() == 1 && arena_[static_cast<std::size_t>(frontier_[0])].diverged == 0;
  }

  [[nodiscard]] const Cluster::State& head() const {
    return arena_[static_cast<std::size_t>(frontier_[0])].s;
  }

  /// Reconstructs the concrete states of the last `steps` edges (oldest
  /// first) from the current (single) head.
  void path_tail(std::size_t steps, std::vector<Cluster::State>& out) const {
    TT_ASSERT(frontier_.size() == 1);
    std::vector<Cluster::State> rev;
    int at = frontier_[0];
    for (std::size_t k = 0; k < steps; ++k) {
      const PathNode& nd = arena_[static_cast<std::size_t>(at)];
      rev.push_back(nd.s);
      at = nd.parent;
      TT_ASSERT(at >= 0 || k + 1 == steps);
    }
    out.insert(out.end(), rev.rbegin(), rev.rend());
  }

 private:
  static constexpr int kMaxDivergence = 4;
  static constexpr std::size_t kMaxCandidates = 64;

  struct PathNode {
    Cluster::State s;
    int parent;
    int diverged;  ///< consecutive non-exact steps up to this node
  };

  /// `t`'s image equals `target` everywhere except correct LISTEN counters,
  /// which it may undercut (the raw slack the clamp skipped ahead of).
  bool dominated(const Cluster::State& t, const Cluster::State& target) const {
    const ClusterState img = raw_.unpack(red_.reduce(t));
    const ClusterState tgt = raw_.unpack(target);
    if (dominated_vars(img, tgt)) return true;
    if (!canon_.swap_allowed()) return false;
    // The differing counters can flip the swap minimum between the image
    // and the target; try the mirrored orientation too.
    ClusterState mir = img;
    canon_.swap_channels(mir);
    std::swap(mir.hub[0].out, mir.hub[1].out);
    return dominated_vars(mir, tgt);
  }

  bool dominated_vars(const ClusterState& a, const ClusterState& b) const {
    const ClusterConfig& cfg = raw_.config();
    for (int i = 0; i < cfg.n; ++i) {
      const NodeVars& x = a.node[i];
      const NodeVars& y = b.node[i];
      if (x.state != y.state || x.pos != y.pos || x.big_bang != y.big_bang) return false;
      const bool slack_ok = !cfg.node_is_faulty(i) && x.state == NodeState::kListen &&
                            x.counter <= y.counter;
      if (x.counter != y.counter && !slack_ok) return false;
    }
    for (int h = 0; h < 2; ++h) {
      const HubVars& x = a.hub[h];
      const HubVars& y = b.hub[h];
      if (x.state != y.state || x.counter != y.counter || x.slot_pos != y.slot_pos ||
          x.locks != y.locks || x.pattern != y.pattern || !(x.out == y.out)) {
        return false;
      }
      for (int j = 0; j < cfg.n; ++j) {
        if (!(x.out_per_port[j] == y.out_per_port[j])) return false;
      }
    }
    return a.startup_time == b.startup_time && a.restarts_used == b.restarts_used;
  }

  const Cluster& raw_;
  Cluster red_;
  Canonicalizer canon_;
  std::vector<PathNode> arena_;
  std::vector<int> frontier_;
};

}  // namespace

ConcreteTrace concretize_trace(const Cluster& raw, Reduction mode,
                               const std::vector<Cluster::State>& quotient,
                               std::size_t loop_start, bool has_loop, bool initial_root) {
  ConcreteTrace out;
  out.loop_start = loop_start;
  if (quotient.empty()) return out;
  TT_REQUIRE(raw.reduction() == Reduction::kNone, "concretization needs the raw cluster");

  ConcreteWalker walker(raw, mode);
  Cluster::State root{};
  if (initial_root) {
    bool found = false;
    raw.initial_states([&](const Cluster::State& s) {
      if (!found && walker.reduced().reduce(s) == quotient.front()) {
        root = s;
        found = true;
      }
    });
    TT_REQUIRE(found, "no raw initial state in the quotient root's orbit");
  } else {
    // Representatives are themselves legitimate states of the raw model, so
    // a stem that need not start at an initial state (sequential AG AF roots
    // anywhere in the reachable set) can start at the representative.
    root = quotient.front();
  }
  walker.reset(root);
  out.trace.push_back(root);

  for (std::size_t i = 1; i < quotient.size(); ++i) {
    TT_REQUIRE(walker.advance(quotient[i]), "quotient edge has no concrete witness");
    if (walker.exact()) {
      // Flush everything since the last exact anchor (no-op in the common
      // pointwise-exact walk).
      walker.path_tail(i - (out.trace.size() - 1), out.trace);
    }
  }
  TT_REQUIRE(out.trace.size() == quotient.size(),
             "concrete walk did not resynchronize by the end of the stem");
  if (!has_loop) return out;

  // Lasso: the quotient cycle closes back to quotient[loop_start], but the
  // concrete walk may land on a different member of that image class each
  // lap. Unroll whole laps, recording the concrete lap-entry state; the walk
  // is deterministic, so as soon as an entry repeats, the concrete cycle
  // closes at that earlier lap. Image classes are finite, so this
  // terminates.
  TT_REQUIRE(loop_start < quotient.size(), "loop start outside the trace");
  const std::size_t cycle_len = quotient.size() - loop_start;
  std::vector<Cluster::State> entries = {out.trace[loop_start]};
  while (true) {
    walker.reset(out.trace.back());
    TT_REQUIRE(walker.advance(quotient[loop_start]) && walker.exact(),
               "quotient cycle does not close concretely");
    const Cluster::State next = walker.head();
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (entries[e] == next) {
        out.loop_start = loop_start + e * cycle_len;
        return out;
      }
    }
    entries.push_back(next);
    out.trace.push_back(next);
    std::size_t flushed = 1;
    for (std::size_t j = 1; j < cycle_len; ++j) {
      TT_REQUIRE(walker.advance(quotient[loop_start + j]),
                 "quotient edge has no concrete witness in the unrolled lap");
      if (walker.exact()) {
        walker.path_tail(j + 1 - flushed, out.trace);
        flushed = j + 1;
      }
    }
    TT_REQUIRE(flushed == cycle_len, "lap walk did not resynchronize before the next entry");
  }
}

}  // namespace tt::tta
