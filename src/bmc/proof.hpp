// Shared result vocabulary of the unbounded SAT-based proof engines
// (k-induction and IC3/PDR, DESIGN.md §3.10). Unlike plain BMC, these
// engines can return PROVED — an unbounded guarantee — rather than merely
// failing to refute within a depth bound.
#pragma once

#include <vector>

#include "mc/run_stats.hpp"

namespace tt::bmc {

enum class ProofVerdict {
  kProved,    ///< the invariant holds on every reachable state
  kViolated,  ///< a concrete counterexample trace was found
  kUnknown,   ///< resource cap hit before either answer
};

[[nodiscard]] constexpr const char* to_string(ProofVerdict v) noexcept {
  switch (v) {
    case ProofVerdict::kProved: return "PROVED";
    case ProofVerdict::kViolated: return "VIOLATED";
    case ProofVerdict::kUnknown: return "UNKNOWN";
  }
  return "?";
}

struct ProofResult {
  ProofVerdict verdict = ProofVerdict::kUnknown;
  /// kProved: the k (induction depth / converged frame) closing the proof.
  /// kViolated: depth of the counterexample (trace length - 1).
  int depth = -1;
  std::vector<std::vector<int>> trace;  ///< valuations, only for kViolated
  /// k-induction only: the proof was closed by the explicit reachability
  /// diameter (completeness threshold) rather than a pure inductive step.
  bool via_diameter = false;
  /// The run's report, filled by the engine: the proof section (marked),
  /// depth (max(depth, 0), in IR steps), exhausted (verdict != kUnknown) and
  /// seconds. states and transitions stay 0: no engine here interns states.
  mc::RunStats stats;
};

}  // namespace tt::bmc
