// The exhaustive-fault-simulation facade: one call = one model-checking run
// of one lemma against one cluster configuration, mirroring how the paper's
// experiments are organized (a lemma x configuration grid, Figs. 4 and 6).
//
// Engine selection: every lemma runs on the parallel engine by default —
// frontier BFS for invariants (mc/reachability.hpp), OWCTY
// goal-free-cycle trimming for the liveness lemmas
// (mc/parallel_liveness.hpp). EngineKind kSymbolic routes invariants to the
// BDD-set engine (mc/symbolic_reachability.hpp) and liveness to the
// backward EG(¬goal) fixpoint (mc/symbolic_liveness.hpp); kSequential
// runs invariants on the frontier BFS at one thread and liveness on the
// colored-DFS lasso search. kKInduction and
// kIc3 route invariant lemmas to the SAT-based proof engines over the
// star-cluster IR (tta/star_ir.hpp, DESIGN.md §3.10) — the only engines
// that can return PROVED (verdict_text "PROVED@k") rather than merely
// exhausting a finite search. VerifyOptions overrides the engine and thread
// count; the TTSTART_THREADS environment variable sets the default thread
// count (see mc::resolve_threads).
#pragma once

#include <string>
#include <vector>

#include "mc/engine.hpp"
#include "mc/run_stats.hpp"
#include "tta/cluster.hpp"
#include "tta/config.hpp"

namespace tt::core {

enum class Lemma {
  kSafety,      ///< Lemma 1: agreement among active correct nodes (invariant)
  kLiveness,    ///< Lemma 2: all correct nodes eventually active (F-property)
  kTimeliness,  ///< Lemma 3: active within cfg.timeliness_bound slots (invariant)
  kSafety2,     ///< Lemma 4: correct guardian synced within bound (invariant)
  kHubAgreement,   ///< extension: active nodes agree with active guardians
  kReintegration,  ///< extension (§2.1 restart problem): AG AF all-correct-active
};

[[nodiscard]] constexpr const char* to_string(Lemma l) noexcept {
  switch (l) {
    case Lemma::kSafety: return "safety";
    case Lemma::kLiveness: return "liveness";
    case Lemma::kTimeliness: return "timeliness";
    case Lemma::kSafety2: return "safety_2";
    case Lemma::kHubAgreement: return "hub_agreement";
    case Lemma::kReintegration: return "reintegration";
  }
  return "?";
}

/// True for the lemmas checked by reachability (BFS engines); false for the
/// lasso-based liveness lemmas.
[[nodiscard]] constexpr bool is_invariant_lemma(Lemma l) noexcept {
  return l != Lemma::kLiveness && l != Lemma::kReintegration;
}

/// How to run a verification. Implicitly constructible from SearchLimits so
/// limit-only call sites stay terse.
struct VerifyOptions {
  VerifyOptions() = default;
  VerifyOptions(const mc::SearchLimits& l) : limits(l) {}  // NOLINT: deliberate implicit lift

  mc::SearchLimits limits;
  /// kAuto = the parallel engine for every lemma class.
  mc::EngineKind engine = mc::EngineKind::kAuto;
  int threads = 0;  ///< 0 = TTSTART_THREADS env, then hardware concurrency
  /// kSymmetry explores the orbit quotient (tta/symmetry.hpp): the cluster
  /// canonicalizes every emitted state below the engines. kPartialOrder
  /// explores the ample-set clamp quotient (tta/independence.hpp, DESIGN.md
  /// §3.8): independent pre-startup LISTEN timer ticks are saturated to the
  /// guaranteed-broadcast horizon. kSymPor composes both (clamp over the
  /// orbit quotient — the fig. 6 workhorse). In every reduced mode verify()
  /// re-concretizes any counterexample against the raw model before
  /// returning it, so traces replay edge-by-edge either way.
  mc::ReductionKind reduction = mc::ReductionKind::kNone;
  /// Explicit-state storage backend (DESIGN.md §3.7). kShardedLocked is the
  /// owner-sharded store (one writer per shard, no lock); kLockFree is the
  /// CAS-based store that also compresses sealed BFS levels and, with
  /// store.mem_budget_bytes set, spills them to disk so beyond-RAM runs
  /// complete with exact counts.
  /// Ignored by the symbolic engine. A nonzero budget on a run that cannot
  /// spill (any store but lockfree, the seq liveness DFS, the sym/kind/ic3
  /// engines) throws std::invalid_argument. Verdicts, counts and traces are
  /// bit-identical across backends.
  mc::StoreOptions store;
};

struct VerificationResult {
  bool holds = false;
  bool exhausted = true;  ///< false when a search limit stopped exploration
  mc::RunStats stats;
  std::vector<tta::Cluster::State> trace;  ///< counterexample when !holds
  std::size_t loop_start = 0;              ///< lasso entry for liveness cycles
  std::string verdict_text;
  /// Engine that actually ran (kAuto resolved per VerifyOptions::engine).
  mc::EngineKind engine_used = mc::EngineKind::kSequential;
};

/// Runs one lemma against one configuration. For kTimeliness/kSafety2 the
/// configuration must carry a positive timeliness_bound (and the matching
/// TimelinessTarget); `prepare_config` sets these up.
[[nodiscard]] VerificationResult verify(const tta::ClusterConfig& cfg, Lemma lemma,
                                        const VerifyOptions& opts = {});

/// Normalizes a configuration for a lemma: picks the timeliness target and
/// asserts bound preconditions. Returns the adjusted copy.
[[nodiscard]] tta::ClusterConfig prepare_config(tta::ClusterConfig cfg, Lemma lemma);

/// Copies the reduction-layer counters off the cluster into a run's stats
/// and marks the reduction section (and the por section when the reduction
/// has a por component). verify() applies it to every reduced run.
void annotate_reduction_stats(const tta::Cluster& cluster, mc::RunStats& stats);

}  // namespace tt::core
