#include "bdd/symbolic.hpp"

#include <gtest/gtest.h>

#include "kernel/packed_system.hpp"
#include "kernel/ttalite.hpp"
#include "mc/reachability.hpp"

namespace tt::bdd {
namespace {

/// Counter modulo m with an optional pause command.
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

TEST(Symbolic, CountsCounterStates) {
  kernel::System s = make_counter(10, false);
  SymbolicEngine engine(s);
  auto r = engine.count_reachable();
  EXPECT_DOUBLE_EQ(r.reachable_states, 10.0);
  EXPECT_TRUE(r.holds);
  EXPECT_GT(r.stats.bdd_iterations, 0);
}

TEST(Symbolic, InvariantOnCounter) {
  kernel::System s = make_counter(7, true);
  auto& e = s.exprs();
  const kernel::ExprId within = e.lt_const(e.var(0), 7);
  SymbolicEngine within_engine(s);
  EXPECT_TRUE(within_engine.check_invariant(within).holds);

  const kernel::ExprId never5 = e.lnot(e.eq_const(e.var(0), 5));
  SymbolicEngine never5_engine(s);
  auto r = never5_engine.check_invariant(never5);
  EXPECT_FALSE(r.holds);
  ASSERT_EQ(r.violating_state.size(), 1u);
  EXPECT_EQ(r.violating_state[0], 5);
}

TEST(Symbolic, NondeterministicInitialStates) {
  kernel::System s;
  auto& e = s.exprs();
  const kernel::VarId a = s.add_var_nondet("a", 5);
  const int g = s.add_group("g", false);
  s.add_command(g, e.ge_const(e.var(a), 0), {{a, e.var(a)}});
  SymbolicEngine engine(s);
  auto r = engine.count_reachable();
  EXPECT_DOUBLE_EQ(r.reachable_states, 5.0);  // only in-domain encodings
}

TEST(Symbolic, AgreesWithExplicitEngineOnTtaLite) {
  // The crown-jewel cross-check (paper §3: symbolic vs explicit must agree):
  // same model, same property, two independently built engines.
  for (int faulty_degree : {0, 1, 2}) {
    kernel::TtaLiteConfig cfg;
    cfg.n = 3;
    cfg.init_window = 2;
    cfg.faulty_node = faulty_degree == 0 ? -1 : 0;
    cfg.fault_degree = faulty_degree == 0 ? 1 : faulty_degree;
    kernel::TtaLite model(cfg);

    const kernel::PackedSystem ps(model.system());
    auto explicit_stats = mc::count_reachable(ps);

    SymbolicEngine engine(model.system());
    auto symbolic = engine.count_reachable();

    EXPECT_DOUBLE_EQ(symbolic.reachable_states,
                     static_cast<double>(explicit_stats.states))
        << "degree " << faulty_degree;
  }
}

TEST(Symbolic, TtaLiteSafetyVerdictsMatchExplicit) {
  for (int degree : {1, 2}) {
    kernel::TtaLiteConfig cfg;
    cfg.n = 3;
    cfg.init_window = 2;
    cfg.faulty_node = 0;
    cfg.fault_degree = degree;
    kernel::TtaLite model(cfg);

    const kernel::PackedSystem ps(model.system());
    auto explicit_result = mc::check_invariant(ps, [&](const kernel::PackedSystem::State& s) {
      return model.safety(ps.unpack(s));
    });

    SymbolicEngine engine(model.system());
    auto symbolic = engine.check_invariant(model.safety_expr());

    EXPECT_EQ(symbolic.holds, explicit_result.verdict == mc::Verdict::kHolds)
        << "degree " << degree;
    if (!symbolic.holds) {
      // The symbolic violating state must really violate the predicate.
      EXPECT_FALSE(model.safety(symbolic.violating_state));
    }
  }
}

}  // namespace
}  // namespace tt::bdd
