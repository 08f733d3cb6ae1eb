// Statistics every engine run reports; benches render these into the
// paper-vs-measured tables (cpu time and state counts mirror Fig. 4/6) and
// into the machine-readable BENCH_results.json.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace tt::mc {

/// The reported groups of layer counters. A run carries a section when the
/// layer that produces its counters ran, and that code marks it: the kind
/// and ic3 engines (proof), bdd::copy_bdd_stats (bdd), copy_store_stats
/// (store), OWCTY (owcty), core::annotate_reduction_stats (reduction, and
/// por when the reduction has a por component). Every report shows exactly
/// the carried sections, in this order.
enum class Section : std::uint8_t { kProof, kBdd, kStore, kOwcty, kReduction, kPor };
inline constexpr std::array<Section, 6> kSections = {Section::kProof, Section::kBdd,
                                                     Section::kStore, Section::kOwcty,
                                                     Section::kReduction, Section::kPor};

[[nodiscard]] constexpr const char* to_string(Section s) noexcept {
  constexpr const char* kNames[] = {"proof", "bdd", "store", "owcty", "reduction", "por"};
  return kNames[static_cast<std::size_t>(s)];
}

struct RunStats {
  std::size_t states = 0;        ///< distinct states interned
  std::size_t transitions = 0;   ///< transitions enumerated
  /// BFS depth reached (on a violated invariant: the violating state's
  /// depth, the trace length - 1) / max DFS stack depth.
  int depth = 0;
  double seconds = 0.0;          ///< wall-clock time of the run
  std::size_t memory_bytes = 0;  ///< state store footprint
  /// False when a search limit stopped exploration before the frontier
  /// emptied — a state/transition count from such a run undercounts and must
  /// never be reported as exhaustive (Fig. 5 reachable-state columns).
  bool exhausted = true;
  int threads = 1;  ///< worker threads the engine ran with
  /// Hot-path instrumentation (the hash-once contract, DESIGN.md §3.2):
  /// `hash_ops` counts hash_words invocations on the candidate path — exactly
  /// one per enumerated transition plus one per emitted initial state, which
  /// a regression test asserts. `dup_transitions` counts candidates that were
  /// already interned; `cache_hits` counts those killed by the direct-mapped
  /// recently-seen cache before touching the interning table.
  std::size_t hash_ops = 0;
  std::size_t dup_transitions = 0;
  std::size_t cache_hits = 0;
  /// Per-BFS-level frontier sizes (index = depth). Filled by the frontier
  /// core: the invariant BFS at any thread count (`seq` included) and the
  /// OWCTY liveness engine's materialization phase; empty for the lasso DFS
  /// runs (`seq` on liveness lemmas).
  std::vector<std::size_t> frontier_sizes;
  /// OWCTY liveness instrumentation (parallel engine only; zero elsewhere):
  /// trimming rounds until the zero-out-degree deletion reached its fixpoint,
  /// and the residue size at that fixpoint — nonzero residue is exactly a
  /// goal-free-cycle violation (DESIGN.md §3.4).
  std::size_t trim_rounds = 0;
  std::size_t residue_states = 0;
  /// Symmetry-reduction instrumentation (zero for unreduced runs):
  /// `canon_ops` counts states canonicalized on the emission path (one per
  /// enumerated transition plus one per emitted initial state), `canon_swaps`
  /// counts emissions whose channel-swapped image won the orbit minimum
  /// (DESIGN.md §3.6).
  std::size_t canon_ops = 0;
  std::size_t canon_swaps = 0;
  /// Partial-order reduction instrumentation (zero unless the reduction has
  /// a por component, DESIGN.md §3.8): `ample_sets` counts emissions whose
  /// independence gate was open, `pruned_combos` those redirected to the
  /// clamped horizon representative, and `proviso_fallbacks` those the gate
  /// declined into full expansion.
  std::size_t ample_sets = 0;
  std::size_t pruned_combos = 0;
  std::size_t proviso_fallbacks = 0;
  /// Always zero and not in TT_RUN_COUNTERS. Kept only because
  /// benchmark/ttbench.cpp, its only reader, writes it as a column.
  std::size_t cas_retries = 0;
  /// Lock-free store instrumentation (zero under the locked store):
  /// `pages_compressed` counts the arena pages sealed to delta form,
  /// `spill_bytes` the compressed bytes evicted to the spill file, and
  /// `spill_sync_waits` the maintain steps that wrote pages, each of which
  /// blocks until its writes finish (DESIGN.md §3.9).
  std::size_t pages_compressed = 0;
  std::size_t spill_bytes = 0;
  std::size_t spill_sync_waits = 0;
  /// Proof-engine instrumentation (zero for every exploratory engine):
  /// `solver_calls` counts SAT solve() invocations on the run's single
  /// incremental solver (for bounded BMC exactly one per depth probed),
  /// `clauses_reused` the learned clauses carried across those calls,
  /// `frames` the IC3 frame count / k-induction unrolling
  /// depth, and `proof_obligations` the IC3 obligation-queue pops (zero for
  /// k-induction).
  std::size_t solver_calls = 0;
  std::size_t clauses_reused = 0;
  std::size_t frames = 0;
  std::size_t proof_obligations = 0;
  /// Symbolic-engine instrumentation (all zero for explicit-state runs):
  /// peak live BDD nodes, mark-and-sweep collections, unique-table and
  /// persistent op-cache hit fractions, and image/BFS iterations to the
  /// fixpoint.
  std::size_t bdd_peak_live_nodes = 0;
  std::size_t bdd_gc_collections = 0;
  double bdd_unique_hit_rate = 0.0;
  double bdd_op_cache_hit_rate = 0.0;
  int bdd_iterations = 0;
  std::uint8_t sections = 0;  ///< the carried sections, bit i = Section i

  void mark(Section s) noexcept { sections |= static_cast<std::uint8_t>(1u << bit(s)); }
  [[nodiscard]] bool carries(Section s) const noexcept { return (sections >> bit(s)) & 1u; }

  [[nodiscard]] double states_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(states) / seconds : 0.0;
  }

 private:
  static constexpr unsigned bit(Section s) noexcept { return static_cast<unsigned>(s); }
};

/// The reported counters, each listed once as X(section, RunStats member),
/// in Section order. A counter's name in the CLI, the bench row and the
/// Chrome trace is its member name.
#define TT_RUN_COUNTERS(X)                                                                \
  X(kProof, solver_calls) X(kProof, clauses_reused) X(kProof, frames)                     \
  X(kProof, proof_obligations)                                                            \
  X(kBdd, bdd_peak_live_nodes) X(kBdd, bdd_gc_collections) X(kBdd, bdd_unique_hit_rate)   \
  X(kBdd, bdd_op_cache_hit_rate) X(kBdd, bdd_iterations)                                  \
  X(kStore, pages_compressed) X(kStore, spill_bytes) X(kStore, spill_sync_waits)          \
  X(kOwcty, trim_rounds) X(kOwcty, residue_states)                                        \
  X(kReduction, canon_ops) X(kReduction, canon_swaps)                                     \
  X(kPor, ample_sets) X(kPor, pruned_combos) X(kPor, proviso_fallbacks)

/// Calls f(section, name, value) for each counter of every section `st`
/// carries, in table order; `value` keeps the member's type.
template <class F>
void for_each_counter(const RunStats& st, F&& f) {
#define TT_VISIT_COUNTER(section, member) \
  if (st.carries(Section::section)) f(Section::section, #member, st.member);
  TT_RUN_COUNTERS(TT_VISIT_COUNTER)
#undef TT_VISIT_COUNTER
}

/// Resource bounds for a search; engines stop with Verdict::kLimit when hit.
struct SearchLimits {
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  int max_depth = std::numeric_limits<int>::max();  ///< BFS level / path length

  [[nodiscard]] bool states_bounded() const noexcept {
    return max_states != std::numeric_limits<std::size_t>::max();
  }
};

}  // namespace tt::mc
