// SAT-based bounded model checking over kernel::System — the rebuild of the
// paper's "bounded (using a SAT solver)" SAL engine (§3, §5.2).
//
// Encoding: one-hot per finite-domain variable and time frame (domains are
// small, so one-hot beats bit-blasting: comparisons become single literals
// and modular increments become per-value implications). Each choice group
// gets exactly-one selector variables per frame; a selector implies its
// command's guard at frame t and its assignments at frame t+1; unassigned
// variables are framed. Integer expressions are encoded through the
// "expr == value" recursion, boolean ones through Tseitin definitions.
//
// Every gate is built once (DESIGN.md §3.10): "expr == value" literals are
// memoized per (expression, value, frame), ORs are negated ANDs, and an AND
// is looked up by its sorted input literals after constant inputs,
// duplicates and complementary pairs are folded away. Kernel expressions
// are interned, so one subterm shared by many guards costs one gate.
//
// The unrolling is *incremental* (DESIGN.md §3.10): one `Unroller` owns one
// `sat::Solver` for the whole run, depth k+1 extends the k-frame formula
// instead of re-encoding it, the per-depth goal `¬P@k` is passed as an
// assumption (never asserted), and learned clauses carry across depths. The
// check iterates depths 0, 1, 2, ...: at depth k the property must be
// violated in frame k. Because shallower depths were already refuted, the
// first SAT answer yields a minimal-length counterexample — mirroring how
// the paper "explores to increasing depths with a bounded model checker".
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "kernel/system.hpp"
#include "sat/solver.hpp"

namespace tt::bmc {

struct BmcResult {
  bool violation_found = false;
  int depth = -1;  ///< frame of the violation (trace length - 1)
  std::vector<std::vector<int>> trace;  ///< valuations, frame 0 .. depth
  std::uint64_t total_conflicts = 0;
  std::uint64_t total_clauses = 0;
  std::uint64_t solver_calls = 0;    ///< solve() invocations (== depths probed)
  std::uint64_t clauses_reused = 0;  ///< learned clauses carried across depths
  double seconds = 0.0;
};

/// An incremental unrolling of a kernel::System into one persistent SAT
/// instance. `ensure_frames(k)` extends the encoding to at least k frames
/// (allocating one-hot state bits and the transition k-2 -> k-1 on demand);
/// everything already encoded — including the solver's learned clauses — is
/// reused. Shared by plain BMC, the k-induction engine (which disables the
/// initial-state constraint for its step instance) and IC3's two-frame
/// transition queries.
class Unroller {
 public:
  struct Options {
    bool constrain_initial = true;  ///< assert init values at frame 0
  };

  explicit Unroller(const kernel::System& system) : Unroller(system, Options{}) {}
  Unroller(const kernel::System& system, Options opts);

  Unroller(const Unroller&) = delete;
  Unroller& operator=(const Unroller&) = delete;

  /// Extends the encoding to at least `frames` frames (frame indices
  /// 0 .. frames-1, with transitions between all consecutive pairs).
  void ensure_frames(int frames);

  [[nodiscard]] int frames() const noexcept { return frames_; }
  [[nodiscard]] sat::Solver& solver() noexcept { return solver_; }
  [[nodiscard]] const kernel::System& system() const noexcept { return system_; }

  /// Literal of "variable v has value val in frame t".
  [[nodiscard]] sat::Lit var_bit(int t, kernel::VarId v, int val) const;

  /// Literal equivalent to the boolean expression `e` at frame `t`
  /// (Tseitin definitions are full equivalences, so the literal may be
  /// assumed in either polarity).
  [[nodiscard]] sat::Lit bool_expr(kernel::ExprId e, int t);

  /// Literal that is true iff frames i and j assign some variable
  /// differently — the building block of k-induction's simple-path
  /// ("all frames pairwise distinct") constraint.
  [[nodiscard]] sat::Lit frames_differ(int i, int j);

  /// The constant-true literal of this instance.
  [[nodiscard]] sat::Lit true_lit() const noexcept { return true_lit_; }

  /// Reads frame `t` of the last satisfying assignment as a valuation.
  [[nodiscard]] std::vector<int> decode_frame(int t) const;

 private:
  void add_frame();
  void encode_initial();
  void encode_transition(int t);
  void frame_equal(sat::Lit cond, kernel::VarId v, int t);
  /// Literal of "e == val at frame t", memoized per (e, val, t).
  [[nodiscard]] sat::Lit int_eq(kernel::ExprId e, int val, int t);
  [[nodiscard]] sat::Lit encode_eq(kernel::ExprId e, int val, int t);
  [[nodiscard]] int expr_domain(kernel::ExprId e) const;
  /// The AND of `xs`: constants, duplicates and complementary pairs fold,
  /// and an AND of the same input set returns its existing literal.
  [[nodiscard]] sat::Lit define_and(std::vector<sat::Lit> xs);
  [[nodiscard]] sat::Lit define_or(std::vector<sat::Lit> xs);

  struct LitsHash {
    std::size_t operator()(const std::vector<sat::Lit>& xs) const noexcept;
  };

  const kernel::System& system_;
  Options opts_;
  sat::Solver solver_;
  std::vector<std::vector<std::vector<int>>> bits_;  // [frame][var][value]
  int frames_ = 0;
  sat::Lit true_lit_;
  std::unordered_map<std::uint64_t, sat::Lit> eq_lits_;  // (expr, value, frame) -> literal
  std::unordered_map<std::vector<sat::Lit>, sat::Lit, LitsHash> and_gates_;  // sorted inputs
};

/// Checks the invariant G(property) of `system` up to `max_depth` frames.
/// `property` is a boolean expression in the system's pool. Incremental:
/// one solver instance across all depths (result.solver_calls counts the
/// depths probed, result.clauses_reused the learned-clause carry-over).
[[nodiscard]] BmcResult check_invariant_bounded(const kernel::System& system,
                                                kernel::ExprId property, int max_depth);

}  // namespace tt::bmc
