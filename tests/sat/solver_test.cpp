#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/rng.hpp"

namespace tt::sat {
namespace {

Lit pos(int v) { return Lit::make(v, false); }
Lit neg(int v) { return Lit::make(v, true); }

TEST(Solver, TrivialSatAndUnsat) {
  {
    Solver s;
    const int a = s.new_var();
    s.add_clause({pos(a)});
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_TRUE(s.value(a));
  }
  {
    Solver s;
    const int a = s.new_var();
    s.add_clause({pos(a)});
    s.add_clause({neg(a)});
    EXPECT_EQ(s.solve(), Result::kUnsat);
  }
  {
    Solver s;
    s.add_clause({});  // empty clause
    EXPECT_EQ(s.solve(), Result::kUnsat);
  }
}

TEST(Solver, UnitPropagationChains) {
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  const int c = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({neg(a), pos(b)});
  s.add_clause({neg(b), pos(c)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(a));
  EXPECT_TRUE(s.value(b));
  EXPECT_TRUE(s.value(c));
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): 3 pigeons, 2 holes. Classic small UNSAT requiring real search.
  Solver s;
  int x[3][2];
  for (auto& row : x) {
    for (int& v : row) v = s.new_var();
  }
  for (int p = 0; p < 3; ++p) s.add_clause({pos(x[p][0]), pos(x[p][1])});
  for (int h = 0; h < 2; ++h) {
    for (int p1 = 0; p1 < 3; ++p1) {
      for (int p2 = p1 + 1; p2 < 3; ++p2) {
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, PigeonHole5Into4IsUnsat) {
  Solver s;
  constexpr int P = 5;
  constexpr int H = 4;
  int x[P][H];
  for (auto& row : x) {
    for (int& v : row) v = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < H; ++h) clause.push_back(pos(x[p][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, TautologicalClauseIgnored) {
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  s.add_clause({pos(a), neg(a)});  // tautology: no constraint
  s.add_clause({pos(b)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(b));
}

/// Brute-force reference: checks satisfiability by enumeration.
bool brute_force_sat(int nvars, const std::vector<std::vector<int>>& clauses) {
  for (int m = 0; m < (1 << nvars); ++m) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (int lit : clause) {
        const int v = std::abs(lit) - 1;
        const bool val = ((m >> v) & 1) != 0;
        if ((lit > 0) == val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

/// The clause in the solver's literals (DIMACS-style ±(var+1) input).
std::vector<Lit> to_lits(const std::vector<int>& clause) {
  std::vector<Lit> lits;
  for (int lit : clause) lits.push_back(Lit::make(std::abs(lit) - 1, lit < 0));
  return lits;
}

/// Whether the solver's last model satisfies every clause.
bool model_satisfies(const Solver& s, const std::vector<std::vector<int>>& clauses) {
  for (const auto& clause : clauses) {
    bool any = false;
    for (int lit : clause) {
      if ((lit > 0) == s.value(std::abs(lit) - 1)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

TEST(Solver, RandomInstancesAgreeWithBruteForce) {
  // Random 3-SAT near the phase transition, cross-checked against
  // enumeration. Property-style soundness test for the CDCL loop.
  Rng rng(2026);
  for (int iter = 0; iter < 300; ++iter) {
    const int nvars = 5 + static_cast<int>(rng.below(6));       // 5..10
    const int nclauses = static_cast<int>(4.2 * nvars) + static_cast<int>(rng.below(5));
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < nclauses; ++c) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint32_t>(nvars)));
        clause.push_back(rng.below(2) != 0 ? v : -v);
      }
      clauses.push_back(clause);
    }
    Solver s;
    for (int v = 0; v < nvars; ++v) (void)s.new_var();
    for (const auto& clause : clauses) s.add_clause(to_lits(clause));
    const bool expected = brute_force_sat(nvars, clauses);
    const Result got = s.solve();
    ASSERT_EQ(got == Result::kSat, expected) << "iteration " << iter;
    if (got == Result::kSat) {
      EXPECT_TRUE(model_satisfies(s, clauses)) << "iteration " << iter;
    }
  }
}

TEST(Solver, AssumptionSolveFlipsPerCall) {
  // The same instance answers differently under different assumptions, and
  // the assumptions never leak into the formula.
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  ASSERT_EQ(s.solve({neg(a)}), Result::kSat);
  EXPECT_FALSE(s.value(a));
  EXPECT_TRUE(s.value(b));
  ASSERT_EQ(s.solve({neg(b)}), Result::kSat);
  EXPECT_TRUE(s.value(a));
  EXPECT_FALSE(s.value(b));
  ASSERT_EQ(s.solve({neg(a), neg(b)}), Result::kUnsat);
  ASSERT_EQ(s.solve(), Result::kSat);  // formula itself still satisfiable
}

TEST(Solver, ConflictCoreNamesCulpableAssumptions) {
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  const int c = s.new_var();
  const int unrelated = s.new_var();
  s.add_clause({neg(a), pos(b)});
  s.add_clause({neg(b), pos(c)});
  ASSERT_EQ(s.solve({pos(unrelated), pos(a), neg(c)}), Result::kUnsat);
  const auto& core = s.conflict_core();
  // The core must name a and ~c (the chain a -> b -> c) but never the
  // unrelated assumption.
  bool has_a = false;
  bool has_not_c = false;
  for (const Lit l : core) {
    EXPECT_NE(l.var(), unrelated);
    if (l == pos(a)) has_a = true;
    if (l == neg(c)) has_not_c = true;
  }
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_not_c);
}

TEST(Solver, ActivationLiteralRetractsClause) {
  // The activation-literal pattern behind per-depth BMC constraints:
  // C ∨ ¬act is active while `act` is assumed and dead once ¬act is added.
  Solver s;
  const int x = s.new_var();
  const int act = s.new_var();
  s.add_clause({pos(x), neg(act)});
  ASSERT_EQ(s.solve({pos(act), neg(x)}), Result::kUnsat);
  s.add_clause({neg(act)});  // retire the constraint
  ASSERT_EQ(s.solve({neg(x)}), Result::kSat);
  EXPECT_FALSE(s.value(x));
}

TEST(Solver, LearnedClausesRetainedAcrossCalls) {
  // PHP(5,4) solved twice in one instance: the second refutation reuses the
  // first call's learned clauses (and must be cheaper, not dearer).
  Solver s;
  constexpr int P = 5;
  constexpr int H = 4;
  int x[P][H];
  for (auto& row : x) {
    for (int& v : row) v = s.new_var();
  }
  const int guard = s.new_var();  // keeps the instance satisfiable overall
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> clause{pos(guard)};
    for (int h = 0; h < H; ++h) clause.push_back(pos(x[p][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
  ASSERT_EQ(s.solve({neg(guard)}), Result::kUnsat);
  const std::uint64_t learned_after_first = s.stats().learned;
  EXPECT_GT(learned_after_first, 0u);
  ASSERT_EQ(s.solve({neg(guard)}), Result::kUnsat);
  EXPECT_EQ(s.stats().solve_calls, 2u);
  EXPECT_GT(s.stats().clauses_reused, 0u);
}

TEST(Solver, RandomInstancesUnderAssumptionsAgreeWithBruteForce) {
  // Random 3-SAT plus random assumptions, cross-checked against enumeration
  // (assumptions modeled as unit clauses in the reference). Also validates
  // the conflict core: the formula plus only the core assumptions must
  // still be unsatisfiable.
  Rng rng(4091);
  Solver s;  // ONE instance across all iterations: the incremental path
  constexpr int kVars = 9;
  for (int v = 0; v < kVars; ++v) (void)s.new_var();
  std::vector<std::vector<int>> clauses;
  for (int iter = 0; iter < 200; ++iter) {
    // Grow the formula a little each round (stays mostly satisfiable).
    for (int c = 0; c < 2; ++c) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int v = 1 + static_cast<int>(rng.below(kVars));
        clause.push_back(rng.below(2) != 0 ? v : -v);
      }
      clauses.push_back(clause);
      s.add_clause(to_lits(clause));
    }
    // Random assumptions over distinct vars.
    std::vector<Lit> assumptions;
    std::vector<int> assumed_units;
    for (int v = 0; v < kVars; ++v) {
      if (rng.below(3) == 0) {
        const bool negate = rng.below(2) != 0;
        assumptions.push_back(Lit::make(v, negate));
        assumed_units.push_back(negate ? -(v + 1) : v + 1);
      }
    }
    auto with_units = clauses;
    for (int u : assumed_units) with_units.push_back({u});
    const bool expected = brute_force_sat(kVars, with_units);
    const Result got = s.solve(assumptions);
    if (got == Result::kUnsat && !expected) {
      // Core validity: formula + core alone is already unsat.
      auto with_core = clauses;
      for (const Lit l : s.conflict_core()) {
        with_core.push_back({l.negated() ? -(l.var() + 1) : l.var() + 1});
      }
      EXPECT_FALSE(brute_force_sat(kVars, with_core)) << "iteration " << iter;
    }
    ASSERT_EQ(got == Result::kSat, expected) << "iteration " << iter;
    if (got == Result::kSat) {
      EXPECT_TRUE(model_satisfies(s, with_units)) << "iteration " << iter;
    }
    if (!expected) {
      // Once the formula itself goes unsat, later rounds add nothing.
      if (s.solve() == Result::kUnsat) break;
    }
  }
}

TEST(Solver, BinaryHeavyIncrementalAgreesWithBruteForce) {
  // Clauses of width 1..4, most of them binary, added between solve calls
  // on one instance under random assumptions, cross-checked against
  // enumeration. Binary clauses are decided from their watchers alone, so
  // this drives that path as implication, as conflict, and as a reason in
  // conflict analysis and in the conflict core. A fresh instance starts
  // once the formula alone is unsatisfiable.
  Rng rng(7177);
  constexpr int kVars = 10;
  int binary = 0;
  int added = 0;
  int cores = 0;
  for (int instance = 0; instance < 25; ++instance) {
    Solver s;
    for (int v = 0; v < kVars; ++v) (void)s.new_var();
    std::vector<std::vector<int>> clauses;
    for (int round = 0; round < 40; ++round) {
      for (int c = 0; c < 2; ++c) {
        const std::uint32_t r = rng.below(16);
        const int width = r == 0 ? 1 : r < 11 ? 2 : r < 14 ? 3 : 4;
        std::vector<int> clause;
        for (int k = 0; k < width; ++k) {
          const int v = 1 + static_cast<int>(rng.below(kVars));
          clause.push_back(rng.below(2) != 0 ? v : -v);
        }
        binary += width == 2 ? 1 : 0;
        ++added;
        clauses.push_back(clause);
        s.add_clause(to_lits(clause));
      }
      std::vector<Lit> assumptions;
      auto with_units = clauses;
      for (int v = 0; v < kVars; ++v) {
        if (rng.below(4) == 0) {
          const bool negate = rng.below(2) != 0;
          assumptions.push_back(Lit::make(v, negate));
          with_units.push_back({negate ? -(v + 1) : v + 1});
        }
      }
      const bool expected = brute_force_sat(kVars, with_units);
      const Result got = s.solve(assumptions);
      ASSERT_EQ(got == Result::kSat, expected) << "instance " << instance << " round " << round;
      if (got == Result::kSat) {
        EXPECT_TRUE(model_satisfies(s, with_units)) << "instance " << instance;
        continue;
      }
      // The core is a subset of the assumptions, and the formula with only
      // the core assumptions is already unsatisfiable.
      auto with_core = clauses;
      for (const Lit l : s.conflict_core()) {
        EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l), assumptions.end());
        with_core.push_back({l.negated() ? -(l.var() + 1) : l.var() + 1});
      }
      EXPECT_FALSE(brute_force_sat(kVars, with_core)) << "instance " << instance;
      ++cores;
      if (s.solve() == Result::kUnsat) break;
    }
  }
  EXPECT_GE(2 * binary, added);
  EXPECT_GT(cores, 50);
}

TEST(Solver, ReduceLearnedRoundsKeepAnswersSound) {
  // PHP(9,8) under an assumption learns enough clauses for at least two
  // learned-clause reductions (at 4000 and 6000 learned). The UNSAT answer
  // must survive them, and a later satisfiable query on the same instance
  // must still return a model of every original clause.
  Solver s;
  constexpr int P = 9;
  constexpr int H = 8;
  for (int v = 0; v < P * H + 1; ++v) (void)s.new_var();
  const auto x = [](int p, int h) { return p * H + h + 1; };  // DIMACS-style
  const int guard = P * H + 1;  // frees the last pigeon when true
  std::vector<std::vector<int>> clauses;
  for (int p = 0; p < P; ++p) {
    std::vector<int> clause;
    if (p == P - 1) clause.push_back(guard);
    for (int h = 0; h < H; ++h) clause.push_back(x(p, h));
    clauses.push_back(clause);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) clauses.push_back({-x(p1, h), -x(p2, h)});
    }
  }
  for (const auto& clause : clauses) s.add_clause(to_lits(clause));
  ASSERT_EQ(s.solve({Lit::make(guard - 1, true)}), Result::kUnsat);
  EXPECT_GE(s.stats().learned, 6000u);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(model_satisfies(s, clauses));
}

TEST(Solver, LargeChainedXorUnsat) {
  // x1 ^ x2 ^ ... ^ xn = 0 and = 1 encoded via chain variables: UNSAT.
  // Exercises learned-clause handling and restarts on a bigger instance.
  Solver s;
  constexpr int N = 24;
  std::vector<int> x;
  for (int i = 0; i < N; ++i) x.push_back(s.new_var());
  // chain c_i = x_0 ^ ... ^ x_i
  std::vector<int> c;
  c.push_back(x[0]);
  for (int i = 1; i < N; ++i) {
    const int ci = s.new_var();
    const int prev = c.back();
    // ci <-> prev XOR x[i]
    s.add_clause({neg(ci), pos(prev), pos(x[i])});
    s.add_clause({neg(ci), neg(prev), neg(x[i])});
    s.add_clause({pos(ci), neg(prev), pos(x[i])});
    s.add_clause({pos(ci), pos(prev), neg(x[i])});
    c.push_back(ci);
  }
  s.add_clause({pos(c.back())});
  s.add_clause({neg(c.back())});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

}  // namespace
}  // namespace tt::sat
