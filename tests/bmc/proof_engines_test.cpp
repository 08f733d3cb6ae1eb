// Unit tests for the unbounded proof engines (k-induction and IC3/PDR,
// DESIGN.md §3.10): PROVED verdicts on invariants plain BMC can only fail
// to refute, exact-depth counterexamples, trace validity against the
// interpreter semantics, frame convergence, and the incremental-solver
// statistics the bench schema exposes.
#include <gtest/gtest.h>

#include "bmc/encoder.hpp"
#include "bmc/ic3.hpp"
#include "bmc/kinduction.hpp"
#include "kernel/packed_system.hpp"
#include "kernel/ttalite.hpp"
#include "mc/reachability.hpp"

namespace tt::bmc {
namespace {

kernel::System make_counter(int m, bool can_pause) {
  kernel::System s;
  auto& e = s.exprs();
  const kernel::VarId c = s.add_var("c", m, 0);
  const int g = s.add_group("counter", false);
  const kernel::ExprId always = e.ge_const(e.var(c), 0);
  s.add_command(g, always, {{c, e.add_mod(e.var(c), 1, m)}});
  if (can_pause) s.add_command(g, always, {{c, e.var(c)}});
  return s;
}

/// Counter that saturates at 2 (then stutters): "a != 3" is a true
/// invariant that bounded checking can never certify.
kernel::System make_saturating_counter() {
  kernel::System s;
  auto& e = s.exprs();
  const kernel::VarId a = s.add_var("a", 4, 0);
  const int g = s.add_group("g", /*else_stutter=*/true);
  s.add_command(g, e.lt_const(e.var(a), 2), {{a, e.add_mod(e.var(a), 1, 4)}});
  return s;
}

/// Reachable states {0..3}; the unreachable tail 4..m-1 forms a long chain
/// (c >= 4 keeps incrementing) so pure induction needs many frames while
/// the true reachability diameter stays 3.
kernel::System make_chain_with_unreachable_tail(int m) {
  kernel::System s;
  auto& e = s.exprs();
  const kernel::VarId c = s.add_var("c", m, 0);
  const int g = s.add_group("g", /*else_stutter=*/true);
  s.add_command(g, e.lt_const(e.var(c), 3), {{c, e.add_mod(e.var(c), 1, m)}});
  s.add_command(g, e.ge_const(e.var(c), 4), {{c, e.add_mod(e.var(c), 1, m)}});
  return s;
}

void expect_trace_is_real(const kernel::System& system,
                          const std::vector<std::vector<int>>& trace) {
  for (std::size_t t = 0; t + 1 < trace.size(); ++t) {
    bool found = false;
    system.successor_valuations(trace[t], [&](const std::vector<int>& next) {
      if (next == trace[t + 1]) found = true;
    });
    EXPECT_TRUE(found) << "trace step " << t << " is not a model transition";
  }
}

TEST(KInduction, ProvesSaturatingInvariantByPureInduction) {
  kernel::System s = make_saturating_counter();
  auto& e = s.exprs();
  const kernel::ExprId never3 = e.lnot(e.eq_const(e.var(0), 3));
  KindOptions opt;
  opt.diameter_state_budget = 0;  // no fallback: force the inductive step
  auto r = check_invariant_kind(s, never3, opt);
  EXPECT_EQ(r.verdict, ProofVerdict::kProved);
  EXPECT_FALSE(r.via_diameter);
  EXPECT_LE(r.depth, 2);
  EXPECT_GT(r.stats.solver_calls, 0u);
}

TEST(KInduction, RefutesAtExactMinimalDepth) {
  kernel::System s = make_counter(10, false);
  auto& e = s.exprs();
  const kernel::ExprId never7 = e.lnot(e.eq_const(e.var(0), 7));
  auto r = check_invariant_kind(s, never7);
  ASSERT_EQ(r.verdict, ProofVerdict::kViolated);
  EXPECT_EQ(r.depth, 7);
  ASSERT_EQ(r.trace.size(), 8u);
  for (int t = 0; t <= 7; ++t) EXPECT_EQ(r.trace[static_cast<std::size_t>(t)][0], t);
  expect_trace_is_real(s, r.trace);
}

TEST(KInduction, DiameterFallbackClosesNonInductiveInvariant) {
  // "c != 6" holds (6 is in the unreachable tail) but is not inductive at
  // small k: the tail chain 4 -> 5 -> 6 provides spurious CTI paths. The
  // completeness threshold (BFS diameter = 3) closes the proof.
  kernel::System s = make_chain_with_unreachable_tail(32);
  auto& e = s.exprs();
  const kernel::ExprId never6 = e.lnot(e.eq_const(e.var(0), 6));
  KindOptions opt;
  opt.diameter_after_k = 0;  // compute the threshold immediately
  auto r = check_invariant_kind(s, never6, opt);
  EXPECT_EQ(r.verdict, ProofVerdict::kProved);
  EXPECT_TRUE(r.via_diameter);
  EXPECT_EQ(r.depth, 3);  // == the reachability diameter

  // The same proof closes by pure induction too (the tail chain has a dead
  // end), just without the via_diameter shortcut.
  KindOptions no_fallback;
  no_fallback.diameter_state_budget = 0;
  auto r2 = check_invariant_kind(s, never6, no_fallback);
  EXPECT_EQ(r2.verdict, ProofVerdict::kProved);
  EXPECT_FALSE(r2.via_diameter);
}

TEST(Ic3, ProvesSaturatingInvariantWithConvergedFrames) {
  kernel::System s = make_saturating_counter();
  auto& e = s.exprs();
  const kernel::ExprId never3 = e.lnot(e.eq_const(e.var(0), 3));
  auto r = check_invariant_ic3(s, never3);
  EXPECT_EQ(r.verdict, ProofVerdict::kProved);
  EXPECT_GE(r.stats.frames, 2u);  // convergence needs at least F_0, F_1
  EXPECT_GT(r.stats.solver_calls, 0u);
}

TEST(Ic3, RefutesCounterWithConcreteTrace) {
  kernel::System s = make_counter(10, false);
  auto& e = s.exprs();
  const kernel::ExprId never7 = e.lnot(e.eq_const(e.var(0), 7));
  auto r = check_invariant_ic3(s, never7);
  ASSERT_EQ(r.verdict, ProofVerdict::kViolated);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.depth, static_cast<int>(r.trace.size()) - 1);
  // The counter is deterministic, so the obligation chain is the real run.
  EXPECT_EQ(r.trace.front()[0], 0);
  EXPECT_EQ(r.trace.back()[0], 7);
  expect_trace_is_real(s, r.trace);
}

TEST(Ic3, ViolationInInitialState) {
  kernel::System s = make_counter(4, false);
  auto& e = s.exprs();
  const kernel::ExprId not_zero = e.lnot(e.eq_const(e.var(0), 0));
  auto r = check_invariant_ic3(s, not_zero);
  ASSERT_EQ(r.verdict, ProofVerdict::kViolated);
  EXPECT_EQ(r.depth, 0);
}

TEST(Ic3, ProvesChainInvariantWithoutDiameterCrutch) {
  // The same non-inductive invariant the k-induction fallback needed:
  // IC3's relative induction handles it natively.
  kernel::System s = make_chain_with_unreachable_tail(32);
  auto& e = s.exprs();
  const kernel::ExprId never6 = e.lnot(e.eq_const(e.var(0), 6));
  auto r = check_invariant_ic3(s, never6);
  EXPECT_EQ(r.verdict, ProofVerdict::kProved);
  EXPECT_GT(r.stats.proof_obligations, 0u);
}

TEST(ProofEngines, AgreeWithExplicitSearchOnTtaLite) {
  // Violating configuration (babbling fault): both engines must refute
  // at the minimal depth (k-induction through its per-depth base instance,
  // IC3 because a chain from frame N has exactly N steps) with a real run
  // ending in a bad state.
  kernel::TtaLiteConfig bad;
  bad.n = 3;
  bad.init_window = 2;
  bad.faulty_node = 0;
  bad.fault_degree = 3;
  kernel::TtaLite model(bad);

  const kernel::PackedSystem ps(model.system());
  auto explicit_result = mc::check_invariant(ps, [&](const kernel::PackedSystem::State& s) {
    return model.safety(ps.unpack(s));
  });
  ASSERT_EQ(explicit_result.verdict, mc::Verdict::kViolated);
  const int explicit_depth = static_cast<int>(explicit_result.trace.size()) - 1;

  auto kind = check_invariant_kind(model.system(), model.safety_expr());
  ASSERT_EQ(kind.verdict, ProofVerdict::kViolated);
  EXPECT_EQ(kind.depth, explicit_depth);
  expect_trace_is_real(model.system(), kind.trace);

  auto ic3 = check_invariant_ic3(model.system(), model.safety_expr());
  ASSERT_EQ(ic3.verdict, ProofVerdict::kViolated);
  EXPECT_EQ(ic3.depth, explicit_depth);  // obligations are never forwarded
  ASSERT_FALSE(ic3.trace.empty());
  EXPECT_FALSE(model.safety(ic3.trace.back()));
  expect_trace_is_real(model.system(), ic3.trace);
}

TEST(ProofEngines, ProveFailSilentTtaLiteSafety) {
  // Fail-silent configuration: safety genuinely holds (ttalite tests verify
  // this by exhaustive search); the proof engines must return PROVED, which
  // no bounded run can.
  kernel::TtaLiteConfig safe;
  safe.n = 3;
  safe.init_window = 2;
  safe.faulty_node = 0;
  safe.fault_degree = 1;
  kernel::TtaLite model(safe);

  auto kind = check_invariant_kind(model.system(), model.safety_expr());
  EXPECT_EQ(kind.verdict, ProofVerdict::kProved);

  auto ic3 = check_invariant_ic3(model.system(), model.safety_expr());
  EXPECT_EQ(ic3.verdict, ProofVerdict::kProved);
}

TEST(IncrementalBmc, OneSolverInstanceAcrossDepths) {
  // §5.2 bench contract: the bounded engine probes every depth with a
  // single incremental solver — one solve call per depth, learned clauses
  // carried between them.
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.faulty_node = 0;
  cfg.fault_degree = 3;
  kernel::TtaLite model(cfg);
  auto r = check_invariant_bounded(model.system(), model.safety_expr(), 25);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.solver_calls, static_cast<std::uint64_t>(r.depth) + 1);
  EXPECT_GT(r.clauses_reused, 0u);
}

}  // namespace
}  // namespace tt::bmc
