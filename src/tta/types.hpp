// Core vocabulary of the TTA startup model: message kinds, frames, node and
// guardian automaton states (paper Fig. 2), and the fault-degree ranking of
// faulty-node outputs (paper Fig. 3).
#pragma once

#include <array>
#include <cstdint>

namespace tt::tta {

/// Signal kinds observable on a channel during one slot (paper `msgs` type).
enum class MsgKind : std::uint8_t {
  kQuiet = 0,  ///< no transmission
  kNoise = 1,  ///< syntactically invalid signal (fails CRC at every receiver)
  kCs = 2,     ///< cold-start frame; `time` names the proposed TDMA position
  kI = 3,      ///< integration frame; `time` names the current TDMA position
};

[[nodiscard]] constexpr const char* to_string(MsgKind k) noexcept {
  switch (k) {
    case MsgKind::kQuiet: return "quiet";
    case MsgKind::kNoise: return "noise";
    case MsgKind::kCs: return "cs";
    case MsgKind::kI: return "i";
  }
  return "?";
}

/// One slot's worth of signal on one channel.
///
/// `ok` models frame well-formedness (CRC etc.): a guardian cannot *create*
/// an ok frame (fault hypothesis, paper §2.2), and every receiver discards
/// !ok frames like noise. Quiet/noise are canonicalized to time=0, ok=true so
/// that equal packed states compare equal.
struct Frame {
  MsgKind kind = MsgKind::kQuiet;
  std::uint8_t time = 0;
  bool ok = true;

  [[nodiscard]] constexpr bool operator==(const Frame&) const = default;

  [[nodiscard]] constexpr bool is_quiet() const noexcept { return kind == MsgKind::kQuiet; }
  /// Well-formed cs-frame (may still carry a masquerading id).
  [[nodiscard]] constexpr bool is_cs() const noexcept { return kind == MsgKind::kCs && ok; }
  /// Well-formed i-frame.
  [[nodiscard]] constexpr bool is_i() const noexcept { return kind == MsgKind::kI && ok; }
  /// Anything a receiver treats as unusable activity.
  [[nodiscard]] constexpr bool is_noise_like() const noexcept {
    return kind == MsgKind::kNoise || ((kind == MsgKind::kCs || kind == MsgKind::kI) && !ok);
  }

  [[nodiscard]] static constexpr Frame quiet() noexcept { return {}; }
  [[nodiscard]] static constexpr Frame noise() noexcept { return {MsgKind::kNoise, 0, true}; }
  [[nodiscard]] static constexpr Frame cs(std::uint8_t time) noexcept {
    return {MsgKind::kCs, time, true};
  }
  [[nodiscard]] static constexpr Frame i(std::uint8_t time) noexcept {
    return {MsgKind::kI, time, true};
  }
  /// Ill-formed i-frame (fault degree 6); time canonicalized to 0.
  [[nodiscard]] static constexpr Frame i_bad() noexcept { return {MsgKind::kI, 0, false}; }

  /// Canonical representation for packing (enforces the quiet/noise rule).
  [[nodiscard]] constexpr Frame canonical() const noexcept {
    if (kind == MsgKind::kQuiet || kind == MsgKind::kNoise) return {kind, 0, true};
    return *this;
  }
};

/// Node automaton states, paper Fig. 2(a) plus the faulty family used by the
/// feedback optimization (§3.2.1).
enum class NodeState : std::uint8_t {
  kInit = 0,
  kListen = 1,
  kColdstart = 2,  ///< paper "(COLD)START"
  kActive = 3,
  kFaulty = 4,
  kFaultyLock0 = 5,   ///< locked out by guardian of channel 0
  kFaultyLock1 = 6,   ///< locked out by guardian of channel 1
  kFaultyLock01 = 7,  ///< locked out by both guardians
};

[[nodiscard]] constexpr const char* to_string(NodeState s) noexcept {
  switch (s) {
    case NodeState::kInit: return "INIT";
    case NodeState::kListen: return "LISTEN";
    case NodeState::kColdstart: return "COLDSTART";
    case NodeState::kActive: return "ACTIVE";
    case NodeState::kFaulty: return "FAULTY";
    case NodeState::kFaultyLock0: return "FAULTY/lock0";
    case NodeState::kFaultyLock1: return "FAULTY/lock1";
    case NodeState::kFaultyLock01: return "FAULTY/lock01";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_faulty_state(NodeState s) noexcept {
  return s >= NodeState::kFaulty;
}

/// Guardian automaton states, paper Fig. 2(b), plus the faulty-hub mode.
enum class HubState : std::uint8_t {
  kInit = 0,
  kListen = 1,
  kStartup = 2,
  kTentative = 3,  ///< "Tentative ROUND"
  kSilence = 4,    ///< "Silence ROUND"
  kProtected = 5,  ///< "Protected STARTUP"
  kActive = 6,
  kFaulty = 7,
};

[[nodiscard]] constexpr const char* to_string(HubState s) noexcept {
  switch (s) {
    case HubState::kInit: return "hub_init";
    case HubState::kListen: return "hub_listen";
    case HubState::kStartup: return "hub_startup";
    case HubState::kTentative: return "hub_tentative";
    case HubState::kSilence: return "hub_silence";
    case HubState::kProtected: return "hub_protected";
    case HubState::kActive: return "hub_active";
    case HubState::kFaulty: return "hub_FAULTY";
  }
  return "?";
}

/// Which state-space reduction a Cluster applies on its successor path
/// (see tta/symmetry.hpp for the orbit construction / DESIGN.md §3.6, and
/// tta/independence.hpp for the partial-order clamp / DESIGN.md §3.8).
enum class Reduction : std::uint8_t {
  kNone = 0,          ///< explore the raw state space (bit-exact PR-2 pipeline)
  kSymmetry = 1,      ///< canonicalize every emitted state to its orbit representative
  kPartialOrder = 2,  ///< clamp commuting pre-delivery clock slack (ample horizon)
  kSymPor = 3,        ///< both: clamp over the symmetry quotient (the big win)
};

[[nodiscard]] constexpr const char* to_string(Reduction r) noexcept {
  switch (r) {
    case Reduction::kNone: return "none";
    case Reduction::kSymmetry: return "sym";
    case Reduction::kPartialOrder: return "por";
    case Reduction::kSymPor: return "sym+por";
  }
  return "?";
}

/// The symmetry component is active (orbit canonicalization on emission).
[[nodiscard]] constexpr bool reduction_has_symmetry(Reduction r) noexcept {
  return r == Reduction::kSymmetry || r == Reduction::kSymPor;
}

/// The partial-order component is active (clock-slack clamp on emission).
[[nodiscard]] constexpr bool reduction_has_por(Reduction r) noexcept {
  return r == Reduction::kPartialOrder || r == Reduction::kSymPor;
}

/// Fault-degree ranks of faulty-node per-channel outputs (paper Fig. 3).
/// A pair (a, b) of per-channel outputs is admitted at degree d iff
/// max(rank(a), rank(b)) <= d.
enum class FaultRank : std::uint8_t {
  kQuiet = 1,
  kCsGood = 2,  ///< well-formed cs carrying the faulty node's true id
  kIGood = 3,   ///< well-formed i-frame, arbitrary claimed position
  kNoise = 4,
  kCsBad = 5,   ///< well-formed cs masquerading as another node
  kIBad = 6,    ///< ill-formed i-frame
};

constexpr int kNumChannels = 2;

/// A bit-packed cluster state (Cluster::State): every variable of one
/// ClusterState in three 64-bit words.
using PackedState = std::array<std::uint64_t, 3>;

}  // namespace tt::tta
