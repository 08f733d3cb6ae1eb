// IC3/PDR over kernel::System (DESIGN.md §3.10): unbounded invariant proofs
// without unrolling. The engine maintains a sequence of frames F_0 = Init,
// F_1, F_2, ... — each a set of blocked cubes (clauses over the one-hot
// state literals) over-approximating the states reachable in at most i
// steps — and drives a priority queue of proof obligations: concrete bad
// (or bad-reaching) states to be excluded frame by frame. A blocked cube is
// *generalized* by relative induction: the solver's assumption core names
// which literals the refutation actually used, the rest are dropped (with a
// syntactic repair that keeps the cube disjoint from the initial states,
// which form a product set thanks to init_any). When a whole frame's cubes
// propagate forward, two consecutive frames coincide: the clauses of that
// frame are an inductive strengthening of the property — PROVED.
//
// Everything runs on ONE incremental sat::Solver holding a single two-frame
// transition encoding; frame membership is switched per query through
// activation-literal assumptions.
#pragma once

#include "bmc/proof.hpp"
#include "kernel/system.hpp"

namespace tt::bmc {

/// Proves or refutes G(property) over `system`. `property` is a boolean
/// expression in the system's pool. Gives up with kUnknown past 4096 frames
/// or 50M proof obligations.
[[nodiscard]] ProofResult check_invariant_ic3(const kernel::System& system,
                                              kernel::ExprId property);

}  // namespace tt::bmc
