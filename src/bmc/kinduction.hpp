// k-induction over kernel::System (DESIGN.md §3.10): the cheap unbounded
// upgrade of BMC. Two incremental unrollings share the run — the *base*
// instance (with initial-state constraints) refutes violations at each
// depth exactly like BMC, while the *step* instance (initial states free)
// asks whether a path of k P-satisfying frames can end in ¬P. When the step
// query is UNSAT the invariant is inductive at depth k: PROVED for every
// reachable state, at any depth.
//
// Simple-path constraints (all frames pairwise distinct) keep the method
// complete in the limit; because the recurrence diameter is astronomically
// larger than the reachability diameter for these models, the engine also
// carries a *completeness threshold*: when pure induction has not closed by
// `diameter_after_k`, it runs one explicit BFS sweep of the (exact, finite)
// reachable state graph, evaluating P on every state. A clean sweep of
// diameter D certifies the invariant on every reachable state — PROVED at
// D, the classical bounded-diameter argument collapsed to its explicit
// witness. A sweep that meets a violating state instead pins the minimal
// violating depth, and the base instance probes up to exactly that depth so
// the counterexample stays SAT-derived and minimal-length.
#pragma once

#include "bmc/proof.hpp"
#include "kernel/system.hpp"

namespace tt::bmc {

struct KindOptions {
  int max_k = 4096;              ///< cap on the induction depth
  /// State budget for the lazily computed explicit reachability diameter
  /// (the completeness threshold). 0 disables the fallback entirely.
  std::size_t diameter_state_budget = 4'000'000;
  /// Depth at which the diameter computation kicks in (pure induction gets
  /// a head start; shallow proofs never pay for the BFS).
  int diameter_after_k = 6;
};

/// Proves or refutes G(property) over `system`. `property` is a boolean
/// expression in the system's pool.
[[nodiscard]] ProofResult check_invariant_kind(const kernel::System& system,
                                               kernel::ExprId property,
                                               const KindOptions& options = {});

}  // namespace tt::bmc
