// An incremental CDCL SAT solver — the substrate behind the bounded model
// checker and the unbounded proof engines (paper §5.2: "Bounded model
// checkers, which are based on propositional satisfiability (SAT) solvers,
// are specialized for detecting bugs"; DESIGN.md §3.10 for the incremental
// interface).
//
// Feature set: two-watched-literal propagation over a flat clause arena with
// blocker literals and watcher-only binary clauses, first-UIP conflict analysis
// with recursive clause minimization, EVSIDS branching over an indexed binary
// heap, phase saving, Luby restarts, lazy clause-database reduction, and
// incremental solving under assumptions: `solve(assumptions)` may be called
// any number of times, clauses may be added between calls, learned clauses
// are retained across calls, and an UNSAT answer under assumptions yields a
// conflict core (the subset of assumptions the refutation used). Per-call
// constraints are expressed through activation literals: add `C ∨ ¬a`, pass
// `a` in the assumptions to activate `C`, and add the unit `¬a` to retire it.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace tt::sat {

/// A literal: variable index v with sign. Encoded as 2v (positive) or 2v+1
/// (negated), the classic MiniSat representation.
class Lit {
 public:
  Lit() = default;
  static Lit make(int var, bool negated) { return Lit((var << 1) | (negated ? 1 : 0)); }

  [[nodiscard]] int var() const noexcept { return code_ >> 1; }
  [[nodiscard]] bool negated() const noexcept { return (code_ & 1) != 0; }
  [[nodiscard]] Lit operator~() const noexcept { return Lit(code_ ^ 1); }
  [[nodiscard]] int code() const noexcept { return code_; }
  [[nodiscard]] bool operator==(const Lit&) const = default;

 private:
  friend class Solver;  // rebuilds literals from the codes its clause arena stores
  explicit Lit(int code) : code_(code) {}
  int code_ = -2;
};

enum class Result { kSat, kUnsat };

class Solver {
 public:
  /// Creates a fresh variable; returns its index.
  int new_var();
  [[nodiscard]] int num_vars() const noexcept { return static_cast<int>(assign_.size()); }

  /// Adds a clause (empty clause makes the instance trivially unsat).
  /// Clauses may be added at any point between `solve` calls.
  void add_clause(std::vector<Lit> lits);

  /// Solves the current formula (no assumptions).
  [[nodiscard]] Result solve() { return solve({}); }

  /// Solves the current formula under the given assumption literals. The
  /// assumptions act as pseudo-decisions: a kSat answer satisfies all of
  /// them, a kUnsat answer means the formula together with the assumptions
  /// is unsatisfiable, and `conflict_core()` names the culpable subset.
  /// Learned clauses (which derive from the formula alone, never from the
  /// assumptions) are retained for later calls.
  [[nodiscard]] Result solve(const std::vector<Lit>& assumptions);

  /// Value of `var` in the most recent satisfying assignment (only after a
  /// kSat answer; stable until the next `solve` call).
  [[nodiscard]] bool value(int var) const {
    TT_ASSERT(model_[static_cast<std::size_t>(var)] != 0);
    return model_[static_cast<std::size_t>(var)] > 0;
  }

  /// After a kUnsat answer from `solve(assumptions)`: a subset of the
  /// assumptions that the refutation actually used (empty when the formula
  /// is unsatisfiable on its own). The proof engines use this as an
  /// unsatisfiable core for IC3 cube generalization.
  [[nodiscard]] const std::vector<Lit>& conflict_core() const noexcept { return core_; }

  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    std::uint64_t solve_calls = 0;    ///< number of `solve` invocations
    std::uint64_t clauses_reused = 0; ///< learned clauses carried into later calls (cumulative)
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Clause-database size: every clause of two or more literals stored so
  /// far, problem and learned (a learned clause dropped by database
  /// reduction still counts). Units: clause count. Used by BMC telemetry to
  /// report formula growth per unrolling depth.
  [[nodiscard]] std::size_t num_clauses() const noexcept { return num_clauses_; }

 private:
  // Every clause of two or more literals lives in one flat arena of 32-bit
  // words: a header (size << 2 | deleted << 1 | learned), the activity (a
  // float's bits), then the literal codes inline. A ClauseRef is the offset
  // of the header, so a clause visit reads one buffer instead of a clause
  // record and then the record's own literal vector.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = ~ClauseRef{0};
  static constexpr std::uint32_t kLearnedBit = 1;
  static constexpr std::uint32_t kDeletedBit = 2;
  static constexpr std::uint32_t kHeaderWords = 2;

  [[nodiscard]] std::uint32_t clause_size(ClauseRef cr) const { return arena_[cr] >> 2; }
  [[nodiscard]] bool is_learned(ClauseRef cr) const { return (arena_[cr] & kLearnedBit) != 0; }
  [[nodiscard]] bool is_deleted(ClauseRef cr) const { return (arena_[cr] & kDeletedBit) != 0; }
  [[nodiscard]] std::span<std::uint32_t> lits(ClauseRef cr) {
    return {&arena_[cr + kHeaderWords], clause_size(cr)};
  }
  [[nodiscard]] float activity(ClauseRef cr) const { return std::bit_cast<float>(arena_[cr + 1]); }
  void set_activity(ClauseRef cr, float a) { arena_[cr + 1] = std::bit_cast<std::uint32_t>(a); }
  [[nodiscard]] static Lit lit(std::uint32_t code) { return Lit(static_cast<int>(code)); }
  [[nodiscard]] static std::uint32_t code(Lit l) { return static_cast<std::uint32_t>(l.code()); }

  // A watcher of clause `cr` in the list of a literal that became true. The
  // blocker is another literal of the clause: when it is true the clause is
  // satisfied and is not visited. A binary clause's blocker is its other
  // literal, so the watcher alone decides it (`binary` is the low bit).
  struct Watcher {
    std::uint32_t word;  // cr << 1 | binary
    Lit blocker;
    [[nodiscard]] ClauseRef cref() const { return word >> 1; }
    [[nodiscard]] bool binary() const { return (word & 1) != 0; }
  };

  [[nodiscard]] std::int8_t lit_value(Lit l) const {
    const std::int8_t v = assign_[static_cast<std::size_t>(l.var())];
    return l.negated() ? static_cast<std::int8_t>(-v) : v;
  }

  void enqueue(Lit l, ClauseRef reason);
  [[nodiscard]] ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& backtrack_level);
  void analyze_final(Lit failed);
  [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  [[nodiscard]] int pick_branch_var();
  void bump_var(int var);
  [[nodiscard]] ClauseRef alloc(const std::vector<Lit>& lits, bool learned);
  void bump_clause(ClauseRef cr);
  void decay_activities();
  void attach(ClauseRef cr);
  void reduce_learned();
  [[nodiscard]] static int luby(int i);

  // Indexed binary max-heap over activity_ (the MiniSat order heap): O(log n)
  // decisions instead of an O(n) scan, which matters once one incremental
  // solver carries a deep unrolling across many solve calls.
  void heap_insert(int var);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  [[nodiscard]] bool heap_less(int a, int b) const {
    return activity_[static_cast<std::size_t>(a)] < activity_[static_cast<std::size_t>(b)];
  }

  std::vector<std::uint32_t> arena_;
  std::size_t num_clauses_ = 0;                // clauses allocated in arena_
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal code
  std::vector<std::int8_t> assign_;            // 0 unassigned, +1 true, -1 false
  std::vector<std::int8_t> phase_;             // saved phases
  std::vector<std::int8_t> model_;             // snapshot of the last kSat assignment
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<int> heap_;       // binary max-heap of candidate decision vars
  std::vector<int> heap_pos_;   // var -> index in heap_, -1 if absent
  std::vector<std::uint8_t> seen_;
  std::vector<int> to_clear_;  ///< vars whose seen_ mark analyze() must reset
  std::vector<Lit> minimize_stack_;
  std::vector<Lit> core_;  ///< failed-assumption core of the last kUnsat

  std::uint64_t live_learned_ = 0;  ///< learned clauses currently retained
  std::uint64_t reduce_at_ = 4000;
  bool unsat_ = false;
  Stats stats_;
};

}  // namespace tt::sat
