// BDD-based symbolic model checking over kernel::System — the rebuild of
// the paper's primary engine (SAL's `sal-smc`).
//
// Variables are binary-encoded; current-state bit i sits at BDD level 2i and
// its next-state partner at 2i+1 (interleaving keeps the transition
// relation's equality ladders small).
//
// The transition relation is kept *partitioned*: one conjunct per choice
// group (the disjunction over that group's commands of guard & assignments
// & frame) plus one conjunct freezing unassigned variables. The image step
// never builds the monolithic relation — it threads the frontier through
// the partitions with Manager::and_exists, quantifying each current-state
// bit at the earliest partition after which it no longer occurs (early
// quantification, the classic conjunctive-partitioning schedule). Reachability
// is the standard image fixpoint; invariants are checked by intersecting
// with the negated property, and reachable-state counts (paper Fig. 5's
// "reachable states") come from exact BDD model counting.
#pragma once

#include <vector>

#include "bdd/bdd.hpp"
#include "kernel/system.hpp"
#include "mc/run_stats.hpp"
#include "support/biguint.hpp"

namespace tt::bdd {

struct SymbolicResult {
  bool holds = false;
  /// Exact reachable-state count (Fig. 5-scale sets exceed 2^53).
  BigUint reachable_exact;
  /// Double rendering of reachable_exact (kept for report plumbing).
  double reachable_states = 0.0;
  int bdd_vars = 0;  ///< state bits x 2 (the paper's Fig. 6 column)
  /// The run's report: states (reachable_exact, saturated at the size_t
  /// maximum), seconds and the bdd section, which counts the image steps to
  /// the fixpoint as bdd_iterations.
  mc::RunStats stats;
  /// A violating state valuation (empty when the invariant holds).
  std::vector<int> violating_state;
};

class SymbolicEngine {
 public:
  explicit SymbolicEngine(const kernel::System& system);

  /// Computes the reachable set and checks G(property). Pass property = -1
  /// to skip the property check (pure reachability / counting run).
  [[nodiscard]] SymbolicResult check_invariant(kernel::ExprId property);

  /// Reachable-state count only (property = true).
  [[nodiscard]] SymbolicResult count_reachable();

 private:
  /// One conjunct of the partitioned transition relation, with the positive
  /// cube of current-state bits to quantify right after conjoining it.
  struct Partition {
    NodeId relation = kTrue;
    NodeId cube = kTrue;
  };

  [[nodiscard]] NodeId encode_bool(kernel::ExprId e, bool next_frame);
  [[nodiscard]] NodeId encode_int_eq(kernel::ExprId e, int val, bool next_frame);
  [[nodiscard]] NodeId var_equals(kernel::VarId v, int val, bool next_frame);
  [[nodiscard]] NodeId var_unchanged(kernel::VarId v);
  [[nodiscard]] int expr_domain(kernel::ExprId e) const;
  [[nodiscard]] NodeId build_initial();
  void build_partitions();
  [[nodiscard]] NodeId image(NodeId frontier);
  [[nodiscard]] std::vector<int> decode(const std::vector<bool>& bits) const;

  const kernel::System& system_;
  Manager manager_;
  std::vector<int> width_;       ///< bits per system variable
  std::vector<int> bit_base_;    ///< first bit index per system variable
  int total_bits_ = 0;
  std::vector<Partition> parts_; ///< pinned via ref() for GC safety
  int rename_next_to_cur_ = -1;  ///< interned 2i+1 -> 2i map
  bool built_ = false;
};

}  // namespace tt::bdd
