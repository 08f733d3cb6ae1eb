// The engine layer: which exploration engine runs a property, with how many
// threads, under which limits. Shared by the frontier BFS engines
// (reachability.hpp, parallel_liveness.hpp), the lasso DFS (liveness.hpp) and
// the symbolic engines; core/verifier plumbs these options through the lemma
// facade.
#pragma once

#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "mc/run_stats.hpp"

namespace tt::mc {

/// Which exploration engine to use. kAuto resolves to the parallel engine
/// for every property class: frontier BFS for invariant lemmas
/// (reachability.hpp) and OWCTY goal-free-cycle trimming for the liveness
/// lemmas (parallel_liveness.hpp). kSequential runs the invariant lemmas on
/// the frontier BFS at one thread and the liveness lemmas on the
/// single-threaded colored-DFS lasso search. kSymbolic keeps the
/// reached set as a BDD — reachability for invariants
/// (mc/symbolic_reachability.hpp) and a backward EG(¬goal) greatest
/// fixpoint for liveness (mc/symbolic_liveness.hpp).
///
/// kKInduction and kIc3 are the SAT-based *proof* engines (bmc/, DESIGN.md
/// §3.10): they run on the star-cluster guarded-command IR (tta/star_ir.hpp)
/// instead of enumerating states, and — unlike every bounded or exploratory
/// engine — can return a PROVED verdict that holds at every depth. Invariant
/// lemmas only.
enum class EngineKind {
  kAuto,
  kSequential,
  kParallel,
  kSymbolic,
  kKInduction,
  kIc3,
};

/// Canonical engine name ("auto"/"seq"/"par"/"sym"/"kind"/"ic3"). The
/// pointer has static storage duration, so it is safe to keep (CLI output,
/// bench records, obs::Span names all rely on this).
[[nodiscard]] constexpr const char* to_string(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::kAuto: return "auto";
    case EngineKind::kSequential: return "seq";
    case EngineKind::kParallel: return "par";
    case EngineKind::kSymbolic: return "sym";
    case EngineKind::kKInduction: return "kind";
    case EngineKind::kIc3: return "ic3";
  }
  return "?";
}

/// Parses an engine name ("auto", "seq", "par", "sym", "kind", "ic3");
/// returns false and leaves `out` untouched on unknown names.
[[nodiscard]] inline bool parse_engine(std::string_view name, EngineKind& out) noexcept {
  for (const EngineKind k : {EngineKind::kAuto, EngineKind::kSequential,
                             EngineKind::kParallel, EngineKind::kSymbolic,
                             EngineKind::kKInduction, EngineKind::kIc3}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// True for the SAT-based proof engines (k-induction, IC3/PDR), which can
/// prove invariants outright instead of exploring states.
[[nodiscard]] constexpr bool is_proof_engine(EngineKind k) noexcept {
  return k == EngineKind::kKInduction || k == EngineKind::kIc3;
}

/// Which state-space reduction the model applies below the engines (the
/// engines themselves are generic over the TransitionSystem and never see
/// it: with kSymmetry every emitted successor is already an orbit
/// representative, so the hash-once pipeline explores the quotient).
enum class ReductionKind {
  kNone,
  kSymmetry,
  kPartialOrder,
  kSymPor,
};

/// Canonical reduction name ("none"/"sym"/"por"/"sym+por"); static storage
/// duration.
[[nodiscard]] constexpr const char* to_string(ReductionKind k) noexcept {
  switch (k) {
    case ReductionKind::kNone: return "none";
    case ReductionKind::kSymmetry: return "sym";
    case ReductionKind::kPartialOrder: return "por";
    case ReductionKind::kSymPor: return "sym+por";
  }
  return "?";
}

/// Parses a reduction name ("none", "sym", "por", "sym+por"); returns false
/// and leaves `out` untouched on unknown names.
[[nodiscard]] inline bool parse_reduction(std::string_view name, ReductionKind& out) noexcept {
  for (const ReductionKind k : {ReductionKind::kNone, ReductionKind::kSymmetry,
                                ReductionKind::kPartialOrder, ReductionKind::kSymPor}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// Which state-store implementation backs the explicit-state engines.
/// kShardedLocked is the owner-sharded ShardedStateIndexMap (no lock: each
/// shard has one writer at a time); kLockFree is LockFreeStateIndexMap, with
/// the same insert contract plus delta compression of the closed set and the
/// synchronous out-of-core spill tier (DESIGN.md §3.9). Both encode ids
/// identically, so verdicts, counts and traces are bit-identical between
/// them at any thread count.
enum class StoreKind {
  kShardedLocked,
  kLockFree,
};

/// Canonical store name ("locked"/"lockfree"); static storage duration.
[[nodiscard]] constexpr const char* to_string(StoreKind k) noexcept {
  switch (k) {
    case StoreKind::kShardedLocked: return "locked";
    case StoreKind::kLockFree: return "lockfree";
  }
  return "?";
}

/// Parses a store name ("locked", "lockfree"); returns false and leaves
/// `out` untouched on unknown names.
[[nodiscard]] inline bool parse_store(std::string_view name, StoreKind& out) noexcept {
  for (const StoreKind k : {StoreKind::kShardedLocked, StoreKind::kLockFree}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// State-store dials, plumbed from VerifyOptions/the CLI down to the engines.
struct StoreOptions {
  StoreKind kind = StoreKind::kShardedLocked;
  /// Resident-memory budget for the state store in bytes; 0 = unlimited.
  /// Only the lock-free store honors it (sealed pages spill to disk at
  /// quiescent points while the store exceeds the budget).
  std::size_t mem_budget_bytes = 0;
  /// Spill directory override (--spill-dir); empty = TTSTART_SPILL_DIR,
  /// then TMPDIR, then /tmp. An unwritable requested directory is a hard
  /// error, never a silent /tmp fallback.
  std::string spill_dir;
};

/// Options common to every exploration engine.
struct EngineOptions {
  EngineOptions() = default;
  EngineOptions(const SearchLimits& l) : limits(l) {}  // NOLINT: deliberate implicit lift

  /// Worker threads. 0 = resolve from the TTSTART_THREADS environment
  /// variable, falling back to std::thread::hardware_concurrency().
  int threads = 0;
  SearchLimits limits;
  StoreOptions store;
};

/// Resolves a requested thread count: explicit > TTSTART_THREADS > hardware.
/// Always returns >= 1. Reads the environment, so call it once per run, not
/// per state.
[[nodiscard]] inline int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("TTSTART_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace tt::mc
