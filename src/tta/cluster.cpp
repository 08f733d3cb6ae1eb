#include "tta/cluster.hpp"

#include <algorithm>
#include <new>
#include <span>
#include <type_traits>

#include "support/assert.hpp"
#include "support/bitpack.hpp"
#include "tta/independence.hpp"
#include "tta/symmetry.hpp"

namespace tt::tta {

namespace {

ClusterConfig validated(const ClusterConfig& cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg, Reduction reduction)
    : cfg_(validated(cfg)),
      reduction_(reduction),
      canon_(cfg_),
      reducer_(cfg_) {
  // Under symmetry reduction the faulty node's provably-faulty emissions are
  // collapsed to one class representative per channel — exact only when both
  // guardians are correct (a faulty hub forwards raw frames verbatim, so
  // receivers could distinguish class members). See FaultyNodeOutputs.
  const bool collapse = reduction_has_symmetry(reduction_) &&
                        cfg_.faulty_hub == ClusterConfig::kNone;
  faulty_outputs_ = FaultyNodeOutputs(cfg_, collapse);

  counter_bits_ = bits_for(static_cast<std::uint64_t>(cfg_.max_count()) + 1);
  pos_bits_ = bits_for(static_cast<std::uint64_t>(cfg_.n));
  frame_bits_ = 2 + pos_bits_ + 1;
  st_bits_ = cfg_.timeliness_bound > 0
                 ? bits_for(static_cast<std::uint64_t>(cfg_.timeliness_bound) + 3)
                 : 0;
  restart_bits_ = cfg_.transient_restarts > 0
                      ? bits_for(static_cast<std::uint64_t>(cfg_.transient_restarts) + 1)
                      : 0;

  node_bits_ = 3 + counter_bits_ + pos_bits_ + 1;
  int bits = cfg_.n * node_bits_;
  for (int h = 0; h < 2; ++h) {
    hub_off_[h] = bits;
    if (cfg_.hub_is_faulty(h)) {
      bits += 3 + 2 * cfg_.n + cfg_.n * frame_bits_;
    } else {
      bits += 3 + counter_bits_ + pos_bits_ + cfg_.n + frame_bits_;
    }
  }
  hub_off_[2] = bits;
  bits += st_bits_;
  bits += restart_bits_;
  TT_REQUIRE(bits <= static_cast<int>(kWords * 64), "state exceeds packed capacity");
  state_bits_ = bits;
}

void Cluster::pack_node_prefix(State& s, const NodeVars* nodes) const {
  BitWriter w(s.data(), kWords);
  for (int i = 0; i < cfg_.n; ++i) w.put_fast(node_value(nodes[i]), node_bits_);
  TT_ASSERT(w.bits_written() == hub_off_[0]);
}

std::uint64_t Cluster::node_value(const NodeVars& v) const noexcept {
  // Field order of the layout: state, counter, pos, big_bang (LSB first).
  return static_cast<std::uint64_t>(v.state) | (std::uint64_t{v.counter} << 3) |
         (std::uint64_t{v.pos} << (3 + counter_bits_)) |
         (std::uint64_t{v.big_bang} << (3 + counter_bits_ + pos_bits_));
}

std::uint64_t Cluster::frame_value(const Frame& f) const noexcept {
  // Field order of the layout: kind, time, ok (LSB first).
  return static_cast<std::uint64_t>(f.kind) | (std::uint64_t{f.time} << 2) |
         (std::uint64_t{f.ok} << (2 + pos_bits_));
}

void Cluster::pack_hub(State& s, int h, const HubVars& v) const {
  BitWriter w(s.data(), kWords, hub_off_[h]);
  w.put_fast(static_cast<std::uint64_t>(v.state), 3);
  if (cfg_.hub_is_faulty(h)) {
    w.put_fast(v.pattern, 2 * cfg_.n);
    for (int j = 0; j < cfg_.n; ++j) w.put_fast(frame_value(v.out_per_port[j]), frame_bits_);
  } else {
    w.put_fast(v.counter, counter_bits_);
    w.put_fast(v.slot_pos, pos_bits_);
    w.put_fast(v.locks, cfg_.n);
    w.put_fast(frame_value(v.out), frame_bits_);
  }
  TT_ASSERT(w.bits_written() == hub_off_[h + 1]);
}

void Cluster::pack_tail(State& s, std::uint8_t startup_time, std::uint8_t restarts_used) const {
  BitWriter w(s.data(), kWords, hub_off_[2]);
  if (st_bits_ > 0) w.put_fast(startup_time, st_bits_);
  if (restart_bits_ > 0) w.put_fast(restarts_used, restart_bits_);
  TT_ASSERT(w.bits_written() == state_bits_);
}

Cluster::State Cluster::pack(const ClusterState& c) const {
  // The emission sinks write whole node records unchecked; this reference
  // path (reduce, canonicalize, initial states, concretization) checks that
  // every field fits its width, so a record cannot spill into the next one.
  for (int i = 0; i < cfg_.n; ++i) {
    const NodeVars& v = c.node[i];
    TT_ASSERT(static_cast<unsigned>(v.state) < 8u);
    TT_ASSERT((std::uint64_t{v.counter} >> counter_bits_) == 0);
    TT_ASSERT((std::uint64_t{v.pos} >> pos_bits_) == 0);
  }
  State s{};
  pack_node_prefix(s, c.node);
  pack_hub(s, 0, c.hub[0]);
  pack_hub(s, 1, c.hub[1]);
  pack_tail(s, c.startup_time, c.restarts_used);
  return s;
}

ClusterState Cluster::unpack(const State& s) const {
  ClusterState c;
  BitReader r(s.data(), kWords);
  auto get_frame = [&]() {
    Frame f;
    f.kind = static_cast<MsgKind>(r.get(2));
    f.time = static_cast<std::uint8_t>(r.get(pos_bits_));
    f.ok = r.get(1) != 0;
    return f;
  };
  for (int i = 0; i < cfg_.n; ++i) {
    NodeVars& v = c.node[i];
    v.state = static_cast<NodeState>(r.get(3));
    v.counter = static_cast<std::uint8_t>(r.get(counter_bits_));
    v.pos = static_cast<std::uint8_t>(r.get(pos_bits_));
    v.big_bang = r.get(1) != 0;
  }
  for (int h = 0; h < 2; ++h) {
    HubVars& v = c.hub[h];
    v = HubVars{};
    v.state = static_cast<HubState>(r.get(3));
    if (cfg_.hub_is_faulty(h)) {
      v.counter = 0;
      v.pattern = static_cast<std::uint16_t>(r.get(2 * cfg_.n));
      for (int j = 0; j < cfg_.n; ++j) v.out_per_port[j] = get_frame();
    } else {
      v.counter = static_cast<std::uint8_t>(r.get(counter_bits_));
      v.slot_pos = static_cast<std::uint8_t>(r.get(pos_bits_));
      v.locks = static_cast<std::uint8_t>(r.get(cfg_.n));
      v.out = get_frame();
    }
  }
  c.startup_time = st_bits_ > 0 ? static_cast<std::uint8_t>(r.get(st_bits_)) : 0;
  c.restarts_used = restart_bits_ > 0 ? static_cast<std::uint8_t>(r.get(restart_bits_)) : 0;
  TT_ASSERT(r.bits_read() == state_bits_);
  return c;
}

ClusterState Cluster::base_initial_state() const {
  ClusterState c;
  for (int i = 0; i < cfg_.n; ++i) {
    if (cfg_.node_is_faulty(i)) {
      c.node[i] = faulty_node_vars(cfg_, 0);
    } else {
      c.node[i] = NodeVars{};  // INIT, counter 1, big-bang armed
    }
  }
  for (int h = 0; h < 2; ++h) {
    c.hub[h] = HubVars{};
    if (cfg_.hub_is_faulty(h)) {
      c.hub[h].state = HubState::kFaulty;
      c.hub[h].counter = 0;
    }
  }
  c.startup_time = 0;
  return c;
}

void Cluster::initial_states(Emit emit) const {
  // The partial-order clamp is the identity on every initial state (no
  // correct node is in LISTEN yet, so there is no slack to clamp), so only
  // the symmetry component matters here and each emission stays a fixed
  // point of `reduce` in every mode.
  ClusterState c = base_initial_state();
  if (reduction_has_symmetry(reduction_)) {
    // Emit canonical representatives directly, so the emissions stay
    // pairwise distinct and the hash-once invariant (hash_ops ==
    // transitions + initial emissions) is preserved. The base state is
    // already canonical except for C0 (big-bang bits) and the faulty-hub
    // pattern dimension: C2 restricts each port to {kRelay, kQuiet}, with
    // the faulty node's own port pinned to kQuiet.
    canon_.canonicalize_vars(c);
    std::uint64_t emitted = 0;
    if (cfg_.faulty_hub == ClusterConfig::kNone) {
      emit(pack(c));
      emitted = 1;
    } else {
      int free_ports[kMaxNodes];
      int free_count = 0;
      HubVars& fh = c.hub[cfg_.faulty_hub];
      for (int j = 0; j < cfg_.n; ++j) {
        fh.set_port_mode(j, HubPortMode::kQuiet);
        if (!cfg_.node_is_faulty(j)) free_ports[free_count++] = j;
      }
      for (std::uint32_t bits = 0; bits < (1u << free_count); ++bits) {
        for (int k = 0; k < free_count; ++k) {
          fh.set_port_mode(free_ports[k], ((bits >> k) & 1u) != 0 ? HubPortMode::kRelay
                                                                  : HubPortMode::kQuiet);
        }
        emit(pack(c));
        ++emitted;
      }
    }
    canon_ops_.fetch_add(emitted, std::memory_order_relaxed);
    return;
  }
  if (cfg_.faulty_hub == ClusterConfig::kNone) {
    emit(pack(c));
    return;
  }
  const int total = pow3(cfg_.n);
  for (int p = 0; p < total; ++p) {
    HubVars& fh = c.hub[cfg_.faulty_hub];
    fh.pattern = 0;
    int rest = p;
    for (int j = 0; j < cfg_.n; ++j) {
      fh.set_port_mode(j, static_cast<HubPortMode>(rest % 3));
      rest /= 3;
    }
    emit(pack(c));
  }
}

namespace {

/// Faulty-node frames on one channel, at most (Fig. 3 degree 6: 2n + 3).
constexpr int kMaxFrames = 2 * kMaxNodes + 3;
/// Relay options of one hub, at most: one per eligible port for a correct
/// hub; no source, interlink replay and one per active port for a faulty one.
constexpr int kMaxRelay = kMaxNodes + 2;
/// Sets of the direct-mapped hub-part cache of one hub. A set holds the two
/// state options of one (frame, relay option, interlink) key, so the parts
/// a single (r0, r1) step looks up never evict each other.
constexpr int kPartSets = 64;
static_assert(kMaxFrames <= 32 && (2 * kPartSets) % 64 == 0, "fill masks are too narrow");

/// Storage the memo writes before it reads: default-constructing its
/// arrays on every call would cost more than a small step saves.
template <class T>
union Uninit {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
  Uninit() noexcept {}
  T& emplace() noexcept { return *::new (&value) T{}; }
  T value;
};

/// Six bits that identify a frame: kind, time (< kMaxNodes), ok.
constexpr unsigned frame_code(const Frame& f) noexcept {
  return static_cast<unsigned>(f.kind) | (static_cast<unsigned>(f.time) << 2) |
         (f.ok ? 32u : 0u);
}

}  // namespace

/// An entry is valid while its bit is set in the fill masks, and starting a
/// group clears the masks, so a call initializes only those few words.
struct Cluster::StepMemo {
  /// Relay phase per (hub, index of the faulty node's frame on its channel):
  /// option count, and for a correct hub every decision.
  std::uint32_t relay_filled[2] = {};
  std::uint8_t relay_count[2][kMaxFrames];
  Uninit<RelayDecision> relay[2][kMaxFrames][kMaxNodes];
  /// Hub parts per (hub, cache slot) with the key they were computed for.
  std::uint64_t part_filled[2][2 * kPartSets / 64] = {};
  std::uint16_t part_key[2][2 * kPartSets];
  Uninit<HubPart> part[2][2 * kPartSets];

  void begin_group() noexcept {
    for (int h = 0; h < 2; ++h) {
      relay_filled[h] = 0;
      for (std::uint64_t& m : part_filled[h]) m = 0;
    }
  }
};

namespace {

/// Flips the `width`-bit field at bit `off` of a packed state by `value`.
void xor_field(Cluster::State& s, int off, int width, std::uint64_t value) noexcept {
  const int word = off >> 6;
  const int bit = off & 63;
  s[static_cast<std::size_t>(word)] ^= value << bit;
  if (bit + width > 64) s[static_cast<std::size_t>(word) + 1] ^= value >> (64 - bit);
}

/// Every bit of `s` moved `d` positions up the layout (0 < d < 64).
Cluster::State shift_up(const Cluster::State& s, int d) noexcept {
  return {s[0] << d, (s[1] << d) | (s[0] >> (64 - d)), (s[2] << d) | (s[1] >> (64 - d))};
}

/// Every bit of `s` moved `d` positions down the layout (0 < d < 64).
Cluster::State shift_down(const Cluster::State& s, int d) noexcept {
  return {(s[0] >> d) | (s[1] << (64 - d)), (s[1] >> d) | (s[2] << (64 - d)), s[2] >> d};
}

}  // namespace

// Orbit-canonicalizing packer (DESIGN.md §3.6): what the sym and sym+por
// modes emit is the word-wise minimum of a state's canonical form and its
// channel-swapped image, so the whole downstream pipeline (cache, interning,
// engines) sees only orbit representatives. Each piece of that form is
// computed once for the inputs it depends on:
//  - per node record: C0/C4, the listener flag, the packed record and the
//    POR transmit schedule, when the node's next variables change. A node
//    keeps its two latest records, so a digit flipping between its two
//    options recomputes nothing;
//  - per group: the node prefix, updated by XOR-ing the changed records in
//    and out (C4 pins the faulty node's, so the prefix is swap-invariant),
//    and the POR combo plan, merged from the cached schedules. Groups that
//    differ only in the fast digits below the faulty node recur once per
//    faulty output pair, so plans are memoized on the records they merge
//    (DESIGN.md §3.2 gives the measured hit rate);
//  - per (group, cap): the clamped prefix;
//  - per emission: C1/C5's canonical broadcast pair and the POR decision.
//    The state is the OR of the prefix, the memoized hub parts with their
//    broadcast-frame fields masked off, the canonical pair and the tail. The
//    C3 image moves the two hub cores between their offsets; the frame
//    fields stay, since C5's pair representative is an unordered-pair
//    invariant.
// Under a faulty hub (no C3) each emission runs canonicalize_hubs on copies
// of the two hubs' variables; the correct hub contributes its memoized core
// bits and its canonical broadcast frame, the faulty hub its whole field.
struct Cluster::CanonPackSink {
  struct NodeRecord {
    NodeVars vars;       ///< the next variables this record was computed for
    std::uint64_t bits;  ///< the canonical record (node_value)
    bool listener;
    PartialOrderReducer::NodePlan plan;
  };
  struct PlanEntry {
    unsigned records;  ///< key: which of its two records each node uses
    PartialOrderReducer::ComboPlan plan;
  };
  static constexpr int kPlanSets = 16;

  const Cluster& cl;
  const Canonicalizer& canon;
  const PartialOrderReducer* por;  ///< null = no por component
  Emit& emit;
  const int fh;
  const bool swap;
  int frame_off[2] = {};  ///< bit offset of each hub's broadcast frame
  State frame_mask{};     ///< the correct hubs' broadcast-frame fields
  State prefix{};
  // Node records: rec[i][bit i of `records`] is node i's, valid while its
  // bit in filled[i] is set.
  std::uint8_t filled[kMaxNodes] = {};
  unsigned records = 0;
  Uninit<NodeRecord> rec[kMaxNodes][2];
  bool listener[kMaxNodes] = {};  ///< the listener set (the faulty node never is one)
  bool any_listener = false;
  const PartialOrderReducer::NodePlan* node_plan[kMaxNodes] = {};
  // Combo plans per `records` value, valid while their bit in plan_filled
  // is set; computing any record clears the mask.
  std::uint32_t plan_filled = 0;
  Uninit<PlanEntry> plans[kPlanSets];
  const PartialOrderReducer::ComboPlan* plan = nullptr;
  int clamped_cap = -1;  ///< the cap `clamped` was built for, -1 = none
  State clamped{};
  std::uint64_t ops = 0;
  std::uint64_t swaps = 0;
  PorStats stats = {};

  CanonPackSink(const Cluster& c, Emit& e)
      : cl(c), canon(c.canon_), por(c.por()), emit(e), fh(c.cfg_.faulty_hub),
        swap(canon.swap_allowed()) {
    for (int h = 0; h < 2; ++h) {
      frame_off[h] = cl.hub_off_[h + 1] - cl.frame_bits_;
      if (h != fh) xor_field(frame_mask, frame_off[h], cl.frame_bits_, (1u << cl.frame_bits_) - 1);
    }
    TT_ASSERT(!swap || cl.hub_off_[1] - cl.hub_off_[0] < 64);
    if (cl.cfg_.faulty_node != ClusterConfig::kNone) {
      NodeVars v;
      canon.canonicalize_node(cl.cfg_.faulty_node, v);
      xor_field(prefix, cl.cfg_.faulty_node * cl.node_bits_, cl.node_bits_, cl.node_value(v));
    }
  }

  [[nodiscard]] const NodeRecord& record(int i) const {
    return rec[i][(records >> i) & 1u].value;
  }

  void combo(const NodeVars* nodes) {
    bool changed = false;
    for (int i = 0; i < cl.cfg_.n; ++i) {
      if (cl.cfg_.node_is_faulty(i)) continue;
      const unsigned cur = (records >> i) & 1u;
      const bool have = ((filled[i] >> cur) & 1u) != 0;
      if (have && rec[i][cur].value.vars == nodes[i]) continue;
      changed = true;
      const unsigned next = cur ^ 1u;
      if (((filled[i] >> next) & 1u) == 0 || !(rec[i][next].value.vars == nodes[i])) {
        filled[i] = static_cast<std::uint8_t>(filled[i] | (1u << next));
        plan_filled = 0;
        NodeRecord& r = rec[i][next].emplace();
        r.vars = nodes[i];
        NodeVars v = nodes[i];
        r.listener = canon.canonicalize_node(i, v);
        r.bits = cl.node_value(v);
        if (por != nullptr) por->plan_node(i, v, r.plan);
      }
      const NodeRecord& r = rec[i][next].value;
      xor_field(prefix, i * cl.node_bits_, cl.node_bits_,
                r.bits ^ (have ? rec[i][cur].value.bits : 0));
      records ^= 1u << i;
      listener[i] = r.listener;
      node_plan[i] = &r.plan;
    }
    if (!changed) return;
    any_listener = false;
    for (int i = 0; i < cl.cfg_.n; ++i) any_listener = any_listener || listener[i];
    clamped_cap = -1;
    // The clamp plan reads the canonical records, so the horizon certificate
    // and the emitted representative agree with what Cluster::reduce
    // computes for the same orbit.
    if (por == nullptr) return;
    const unsigned slot = records % kPlanSets;
    if (((plan_filled >> slot) & 1u) == 0 || plans[slot].value.records != records) {
      plan_filled |= 1u << slot;
      PlanEntry& fresh = plans[slot].emplace();
      fresh.records = records;
      por->combine(node_plan, fresh.plan);
    }
    plan = &plans[slot].value.plan;
  }

  /// The node prefix this emission is packed over: the group's, or its
  /// partial-order clamp. Both swap images share it (C4 pins the faulty
  /// record) and the horizon is channel-symmetric, so one decision covers
  /// the pair and the swap minimum is taken over clamped images.
  const State& node_prefix(const HubVars& h0, const HubVars& h1, bool in_flight,
                           std::uint8_t restarts_used) {
    if (por == nullptr) return prefix;
    int cap = 0;
    const auto o = por->decide(*plan, h0, h1, in_flight, restarts_used, cap);
    if (o == PartialOrderReducer::Outcome::kDeclined) {
      ++stats.proviso_fallbacks;
      return prefix;
    }
    ++stats.ample_sets;
    if (o != PartialOrderReducer::Outcome::kClamped) return prefix;
    ++stats.pruned_combos;
    if (cap != clamped_cap) {
      NodeVars nodes[kMaxNodes];
      for (int k = 0; k < plan->nlisten; ++k) {
        const int j = plan->listen_node[k];
        nodes[j] = record(j).vars;
      }
      por->clamp(*plan, cap, nodes);
      // The clamp rewrites counters only, so the records' difference is the
      // same before and after C0.
      clamped = prefix;
      for (int k = 0; k < plan->nlisten; ++k) {
        const int j = plan->listen_node[k];
        xor_field(clamped, j * cl.node_bits_, cl.node_bits_,
                  cl.node_value(nodes[j]) ^ cl.node_value(record(j).vars));
      }
      clamped_cap = cap;
    }
    return clamped;
  }

  void successor(const HubPart& p0, const HubPart& p1, std::uint8_t startup_time,
                 std::uint8_t restarts_used) {
    ++ops;
    State t{};
    cl.pack_tail(t, startup_time, restarts_used);
    if (fh != ClusterConfig::kNone) {
      HubVars h[2] = {p0.vars, p1.vars};
      canon.canonicalize_hubs(h[0], h[1], listener, any_listener);
      const State& base = node_prefix(
          p0.vars, p1.vars, PartialOrderReducer::broadcast_in_flight(h[0].out, h[1].out),
          restarts_used);
      const int ch = 1 - fh;
      cl.pack_hub(t, fh, h[fh]);
      BitWriter(t.data(), kWords, frame_off[ch])
          .put_fast(cl.frame_value(h[ch].out), cl.frame_bits_);
      const State& correct = ch == 0 ? p0.bits : p1.bits;
      for (std::size_t w = 0; w < kWords; ++w) t[w] |= base[w] | (correct[w] & ~frame_mask[w]);
      emit(t);
      return;
    }
    Frame c0 = p0.vars.out;
    Frame c1 = p1.vars.out;
    Canonicalizer::canonicalize_broadcasts(c0, c1, any_listener);
    const State& base = node_prefix(
        p0.vars, p1.vars, PartialOrderReducer::broadcast_in_flight(c0, c1), restarts_used);
    BitWriter(t.data(), kWords, frame_off[0]).put_fast(cl.frame_value(c0), cl.frame_bits_);
    BitWriter(t.data(), kWords, frame_off[1]).put_fast(cl.frame_value(c1), cl.frame_bits_);
    State core0{};
    State core1{};
    State norm{};
    for (std::size_t w = 0; w < kWords; ++w) {
      t[w] |= base[w];
      core0[w] = p0.bits[w] & ~frame_mask[w];
      core1[w] = p1.bits[w] & ~frame_mask[w];
      norm[w] = t[w] | core0[w] | core1[w];
    }
    if (swap && Canonicalizer::swap_eligible(p0.vars, p1.vars)) {
      // The swapped image: hub 1's core at hub 0's offset and vice versa.
      const int d = cl.hub_off_[1] - cl.hub_off_[0];
      const State up = shift_up(core0, d);
      const State down = shift_down(core1, d);
      State sw{};
      for (std::size_t w = 0; w < kWords; ++w) sw[w] = t[w] | up[w] | down[w];
      if (sw < norm) {
        ++swaps;
        emit(sw);
        return;
      }
    }
    emit(norm);
  }
};

void Cluster::successors(const State& s, Emit emit) const {
  // Prefix-sharing packer: the node fields occupy a fixed prefix of the bit
  // layout and each hub a fixed field after it, so the node prefix is packed
  // once per group and every unreduced emission is the OR of the prefix,
  // two memoized hub parts and the startup/restart tail.
  struct PackSink {
    const Cluster& cl;
    Emit& emit;
    const PartialOrderReducer* por = nullptr;  ///< null = no por component
    State prefix{};
    NodeVars nodes[kMaxNodes] = {};
    PartialOrderReducer::ComboPlan plan = {};
    PorStats stats = {};

    void combo(const NodeVars* next_nodes) {
      prefix = State{};
      cl.pack_node_prefix(prefix, next_nodes);
      if (por != nullptr) {
        for (int i = 0; i < cl.cfg_.n; ++i) nodes[i] = next_nodes[i];
        por->prepare(nodes, plan);
      }
    }

    void successor(const HubPart& h0, const HubPart& h1, std::uint8_t startup_time,
                   std::uint8_t restarts_used) {
      const State* base = &prefix;
      State clamped_prefix;
      if (por != nullptr) {
        int cap = 0;
        const auto o = por->decide(
            plan, h0.vars, h1.vars,
            PartialOrderReducer::broadcast_in_flight(h0.vars.out, h1.vars.out), restarts_used,
            cap);
        if (o == PartialOrderReducer::Outcome::kDeclined) {
          ++stats.proviso_fallbacks;
        } else {
          ++stats.ample_sets;
          if (o == PartialOrderReducer::Outcome::kClamped) {
            ++stats.pruned_combos;
            NodeVars clamped[kMaxNodes];
            for (int i = 0; i < cl.cfg_.n; ++i) clamped[i] = nodes[i];
            por->clamp(plan, cap, clamped);
            clamped_prefix = State{};
            cl.pack_node_prefix(clamped_prefix, clamped);
            base = &clamped_prefix;
          }
        }
      }
      State t;
      for (std::size_t w = 0; w < kWords; ++w) t[w] = (*base)[w] | h0.bits[w] | h1.bits[w];
      cl.pack_tail(t, startup_time, restarts_used);
      emit(t);
    }
  };

  const ClusterState c = unpack(s);
  if (!reduction_has_symmetry(reduction_)) {
    PackSink sink{*this, emit, por()};
    step_all(c, sink);
    if (sink.por != nullptr) flush_por_stats(sink.stats);
    return;
  }
  CanonPackSink sink(*this, emit);
  step_all(c, sink);
  canon_ops_.fetch_add(sink.ops, std::memory_order_relaxed);
  canon_swaps_.fetch_add(sink.swaps, std::memory_order_relaxed);
  if (sink.por != nullptr) flush_por_stats(sink.stats);
}

void Cluster::flush_por_stats(const PorStats& stats) const {
  por_ample_.fetch_add(stats.ample_sets, std::memory_order_relaxed);
  por_pruned_.fetch_add(stats.pruned_combos, std::memory_order_relaxed);
  por_declined_.fetch_add(stats.proviso_fallbacks, std::memory_order_relaxed);
}

Cluster::State Cluster::min_swap_pack(const ClusterState& c) const {
  State a = pack(c);
  if (canon_.swap_allowed() && Canonicalizer::swap_eligible(c.hub[0], c.hub[1])) {
    ClusterState swapped = c;
    canon_.swap_channels(swapped);
    // Restore C5's frame placement (an unordered-pair invariant), which is
    // what re-canonicalizing the swapped image would produce; all other
    // fields are already canonical.
    std::swap(swapped.hub[0].out, swapped.hub[1].out);
    const State b = pack(swapped);
    if (b < a) return b;
  }
  return a;
}

Cluster::State Cluster::canonicalize(const State& s) const {
  ClusterState c = unpack(s);
  canon_.canonicalize_vars(c);
  return min_swap_pack(c);
}

Cluster::State Cluster::reduce(const State& s) const {
  switch (reduction_) {
    case Reduction::kNone:
      return s;
    case Reduction::kSymmetry:
      return canonicalize(s);
    case Reduction::kPartialOrder: {
      ClusterState c = unpack(s);
      reducer_.saturate(c);
      return pack(c);
    }
    case Reduction::kSymPor: {
      ClusterState c = unpack(s);
      canon_.canonicalize_vars(c);
      // The clamp touches only canonical LISTEN counters, which both swap
      // images share, so deciding before the swap minimum matches the
      // emission path exactly.
      reducer_.saturate(c);
      return min_swap_pack(c);
    }
  }
  return s;
}

void Cluster::step_unpacked(const ClusterState& c, EmitUnpacked emit) const {
  // Materializes a full ClusterState per emission, for the trace printer and
  // the interactive examples.
  struct UnpackSink {
    const ClusterConfig& cfg;
    EmitUnpacked& emit;
    const NodeVars* nodes = nullptr;

    void combo(const NodeVars* next_nodes) { nodes = next_nodes; }

    void successor(const HubPart& h0, const HubPart& h1, std::uint8_t startup_time,
                   std::uint8_t restarts_used) {
      ClusterState t;
      for (int i = 0; i < cfg.n; ++i) t.node[i] = nodes[i];
      t.hub[0] = h0.vars;
      t.hub[1] = h1.vars;
      t.startup_time = startup_time;
      t.restarts_used = restarts_used;
      emit(t);
    }
  };
  UnpackSink sink{cfg_, emit};
  step_all(c, sink);
}

Cluster::StartupPre Cluster::startup_pre(const NodeVars* nodes) const {
  StartupPre pre;
  if (cfg_.timeliness_bound == 0) return pre;
  int awake = 0;
  for (int i = 0; i < cfg_.n; ++i) {
    if (cfg_.node_is_faulty(i)) continue;
    if (nodes[i].state == NodeState::kActive) pre.node_target = true;
    if (nodes[i].state == NodeState::kListen || nodes[i].state == NodeState::kColdstart) {
      ++awake;
    }
  }
  pre.awake2 = awake >= 2;
  return pre;
}

std::uint8_t Cluster::startup_from(const StartupPre& pre, const HubVars& h0, const HubVars& h1,
                                   std::uint8_t prev) const {
  const int bound = cfg_.timeliness_bound;
  if (bound == 0) return 0;
  const auto done = static_cast<std::uint8_t>(bound + 2);
  if (prev == done) return done;

  bool target;
  if (cfg_.timeliness_target == TimelinessTarget::kFirstCorrectActive) {
    target = pre.node_target;
  } else {
    const HubVars& hc = cfg_.faulty_hub == 0 ? h1 : h0;  // first correct hub
    target = hc.state == HubState::kTentative || hc.state == HubState::kActive;
  }
  if (target) return done;

  if (prev == 0) return pre.awake2 ? 1 : 0;
  return static_cast<std::uint8_t>(std::min<int>(prev + 1, bound + 1));
}

std::uint8_t Cluster::next_startup_time(const ClusterState& next, std::uint8_t prev) const {
  // Delegates to the split hot-path pieces so the two can never diverge.
  return startup_from(startup_pre(next.node), next.hub[0], next.hub[1], prev);
}

template <class Sink>
void Cluster::step_all(const ClusterState& c, Sink& sink) const {
  StepMemo memo;
  step_core(c, -1, memo, sink);
  // The restart dimension (paper §2.1): while budget remains, any one
  // correct node may be reset to INIT by a transient fault this step.
  if (cfg_.transient_restarts > 0 && c.restarts_used < cfg_.transient_restarts) {
    for (int r = 0; r < cfg_.n; ++r) {
      if (!cfg_.node_is_faulty(r)) step_core(c, r, memo, sink);
    }
  }
}

template <class Sink>
void Cluster::step_core(const ClusterState& c, int restart_node, StepMemo& memo,
                        Sink& sink) const {
  const int n = cfg_.n;

  // Frames delivered to each node in the previous slot.
  Frame node_in[kMaxNodes][kNumChannels];
  for (int i = 0; i < n; ++i) {
    for (int h = 0; h < kNumChannels; ++h) {
      node_in[i][h] = c.hub[h].delivered(i, cfg_.hub_is_faulty(h));
    }
  }

  // Lock status fed back to the faulty node (guardian -> node "feedback").
  std::uint8_t fn_locks = 0;
  if (cfg_.faulty_node != ClusterConfig::kNone) {
    for (int h = 0; h < kNumChannels; ++h) {
      if (!cfg_.hub_is_faulty(h) && ((c.hub[h].locks >> cfg_.faulty_node) & 1u)) {
        fn_locks = static_cast<std::uint8_t>(fn_locks | (1u << h));
      }
    }
  }
  // The faulty node's admitted frames per channel; its output pairs are
  // their product, channel 0 the outer loop.
  const std::span<const Frame> fchan0 = faulty_outputs_.channel(fn_locks, 0);
  const std::span<const Frame> fchan1 = faulty_outputs_.channel(fn_locks, 1);

  // --- Node phase: precompute each node's options. Correct nodes have at
  // most two (INIT wake-up nondeterminism); the faulty node has one per
  // admitted output pair.
  int nopt[kMaxNodes];
  NodeVars copt_vars[kMaxNodes][2];
  Frame copt_out[kMaxNodes][2];
  const NodeVars faulty_next =
      cfg_.faulty_node != ClusterConfig::kNone ? faulty_node_vars(cfg_, fn_locks) : NodeVars{};
  for (int i = 0; i < n; ++i) {
    if (i == restart_node) {
      // Transient fault: the node powers up afresh and transmits nothing.
      nopt[i] = 1;
      copt_vars[i][0] = NodeVars{};
      copt_out[i][0] = Frame::quiet();
    } else if (cfg_.node_is_faulty(i)) {
      TT_ASSERT(fchan0.size() <= kMaxFrames && fchan1.size() <= kMaxFrames);
      nopt[i] = static_cast<int>(fchan0.size() * fchan1.size());
    } else {
      nopt[i] = node_option_count(cfg_, c.node[i]);
      TT_ASSERT(nopt[i] <= 2);
      for (int o = 0; o < nopt[i]; ++o) {
        const NodeStep st = node_step(cfg_, i, c.node[i], node_in[i], o);
        copt_vars[i][o] = st.next;
        copt_out[i][o] = st.out;
      }
    }
  }

  // State-phase option counts for the hubs (INIT wake-up nondeterminism).
  const int sopt[2] = {hub_state_option_count(cfg_, 0, c.hub[0]),
                       hub_state_option_count(cfg_, 1, c.hub[1])};

  const auto restarts_used =
      static_cast<std::uint8_t>(c.restarts_used + (restart_node >= 0 ? 1 : 0));

  int choice[kMaxNodes] = {};
  NodeVars next_node[kMaxNodes];
  Frame outs[kNumChannels][kMaxNodes];  // per-channel view of node outputs
  int frame[kNumChannels] = {};         // the faulty node's frame index per channel
  // Odometer-incremental refresh: only nodes whose choice digit changed are
  // recomputed — the faulty node's digit, with its ~(2n+3)^2 output pairs,
  // is usually the only one that moves. A digit only ever steps by one or
  // resets to 0, so the faulty node's two frame indices advance like a
  // two-digit odometer, channel 1 the fast digit.
  auto refresh = [&](int i) {
    if (cfg_.node_is_faulty(i)) {
      if (choice[i] == 0) {
        frame[0] = frame[1] = 0;
      } else if (++frame[1] == static_cast<int>(fchan1.size())) {
        frame[1] = 0;
        ++frame[0];
      }
      outs[0][i] = fchan0[static_cast<std::size_t>(frame[0])];
      outs[1][i] = fchan1[static_cast<std::size_t>(frame[1])];
      next_node[i] = faulty_next;
    } else {
      next_node[i] = copt_vars[i][choice[i]];
      outs[0][i] = outs[1][i] = copt_out[i][choice[i]];
    }
  };
  for (int i = 0; i < n; ++i) refresh(i);

  // Relay phase of hub h for the faulty node's current frame on channel h,
  // once per group and frame. Within a group every other node's output is
  // fixed, so the option count and a correct hub's decisions depend on that
  // frame alone. A faulty hub's decision also depends on the interlink it
  // may replay, so only its option count is kept here.
  auto relay_options = [&](int h) -> int {
    const int f = frame[h];
    if (((memo.relay_filled[h] >> f) & 1u) == 0) {
      memo.relay_filled[h] |= 1u << f;
      const int count = hub_relay_option_count(cfg_, h, c.hub[h], outs[h]);
      TT_ASSERT(count <= (cfg_.hub_is_faulty(h) ? kMaxRelay : kMaxNodes));
      memo.relay_count[h][f] = static_cast<std::uint8_t>(count);
      if (!cfg_.hub_is_faulty(h)) {
        for (int r = 0; r < count; ++r) {
          memo.relay[h][f][r].emplace() = hub_relay(cfg_, h, c.hub[h], outs[h], r);
        }
      }
    }
    return memo.relay_count[h][f];
  };
  // Hub h's part for relay option r, the other hub's interlink `il_in` and
  // state option `s`: a pure function of (frame, r, il_in, s) within a group.
  auto hub_part = [&](int h, int r, const Frame& il_in, int s) -> const HubPart& {
    const auto key = static_cast<std::uint16_t>(
        (static_cast<unsigned>(frame[h] * kMaxRelay + r) << 6) | frame_code(il_in));
    const int slot =
        static_cast<int>(((key * 2654435761u) >> 16) & (kPartSets - 1)) * 2 + s;
    std::uint64_t& filled = memo.part_filled[h][slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    if ((filled & bit) == 0 || memo.part_key[h][slot] != key) {
      filled |= bit;
      memo.part_key[h][slot] = key;
      HubPart& p = memo.part[h][slot].emplace();
      if (cfg_.hub_is_faulty(h)) {
        const RelayDecision d = faulty_hub_relay(cfg_, c.hub[h], outs[h], il_in, r);
        p.vars = faulty_hub_state_step(cfg_, c.hub[h], d);
        p.interlink = d.interlink;
      } else {
        const RelayDecision& d = memo.relay[h][frame[h]][r].value;
        p.vars = hub_state_step(cfg_, h, c.hub[h], d, il_in, s);
        p.interlink = d.interlink;
      }
      pack_hub(p.bits, h, p.vars);
    }
    return memo.part[h][slot].value;
  };

  const int fh = cfg_.faulty_hub;
  TT_ASSERT(fh == ClusterConfig::kNone || sopt[fh] == 1);  // a faulty hub never wakes late
  StartupPre pre;
  bool new_group = true;
  while (true) {
    if (new_group) {
      memo.begin_group();
      sink.combo(next_node);
      pre = startup_pre(next_node);
    }

    // --- Hub phase. A correct hub's interlink is fixed by its relay
    // decision; a faulty hub may replay the correct hub's, so its part comes
    // first and its own interlink is then known to the correct hub.
    const int ropt0 = relay_options(0);
    const int ropt1 = relay_options(1);
    for (int r0 = 0; r0 < ropt0; ++r0) {
      for (int r1 = 0; r1 < ropt1; ++r1) {
        const int r[2] = {r0, r1};
        Frame il[2];
        const HubPart* part[2][2];
        for (int h = 0; h < 2; ++h) {
          if (h != fh) il[h] = memo.relay[h][frame[h]][r[h]].value.interlink;
        }
        if (fh != ClusterConfig::kNone) {
          part[fh][0] = &hub_part(fh, r[fh], il[1 - fh], 0);
          il[fh] = part[fh][0]->interlink;
        }
        for (int h = 0; h < 2; ++h) {
          if (h == fh) continue;
          for (int so = 0; so < sopt[h]; ++so) part[h][so] = &hub_part(h, r[h], il[1 - h], so);
        }
        for (int s0 = 0; s0 < sopt[0]; ++s0) {
          for (int s1 = 0; s1 < sopt[1]; ++s1) {
            const HubPart& p0 = *part[0][s0];
            const HubPart& p1 = *part[1][s1];
            sink.successor(p0, p1, startup_from(pre, p0.vars, p1.vars, c.startup_time),
                           restarts_used);
          }
        }
      }
    }

    // Advance the odometer, refreshing the digits that moved; a new group
    // starts unless only the faulty node's digit moved.
    int k = 0;
    new_group = false;
    while (k < n && ++choice[k] == nopt[k]) {
      choice[k] = 0;
      if (nopt[k] > 1) {
        refresh(k);
        if (!cfg_.node_is_faulty(k)) new_group = true;
      }
      ++k;
    }
    if (k == n) break;
    refresh(k);
    if (!cfg_.node_is_faulty(k)) new_group = true;
  }
}

}  // namespace tt::tta
