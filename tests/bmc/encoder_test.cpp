#include "bmc/encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "kernel/packed_system.hpp"
#include "kernel/ttalite.hpp"
#include "mc/reachability.hpp"
#include "tta/star_ir.hpp"

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

TEST(Bmc, FindsShallowViolationAtExactDepth) {
  kernel::System s = make_counter(10, false);
  auto& e = s.exprs();
  const kernel::ExprId never7 = e.lnot(e.eq_const(e.var(0), 7));
  auto r = check_invariant_bounded(s, never7, 20);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, 7);  // counter reaches 7 after exactly 7 steps
  ASSERT_EQ(r.trace.size(), 8u);
  for (int t = 0; t <= 7; ++t) EXPECT_EQ(r.trace[static_cast<std::size_t>(t)][0], t);
}

TEST(Bmc, ReportsNoViolationWithinBound) {
  kernel::System s = make_counter(10, false);
  auto& e = s.exprs();
  const kernel::ExprId never7 = e.lnot(e.eq_const(e.var(0), 7));
  auto r = check_invariant_bounded(s, never7, 5);  // too shallow
  EXPECT_FALSE(r.violation_found);
  EXPECT_EQ(r.depth, -1);
}

TEST(Bmc, ViolationInInitialState) {
  kernel::System s = make_counter(4, false);
  auto& e = s.exprs();
  const kernel::ExprId not_zero = e.lnot(e.eq_const(e.var(0), 0));
  auto r = check_invariant_bounded(s, not_zero, 3);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, 0);
}

TEST(Bmc, NondeterministicChoicesExplored) {
  // With the pause command the counter can dawdle; the shortest route to 3
  // is still 3 steps, and BMC must find exactly that.
  kernel::System s = make_counter(6, true);
  auto& e = s.exprs();
  const kernel::ExprId never3 = e.lnot(e.eq_const(e.var(0), 3));
  auto r = check_invariant_bounded(s, never3, 10);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, 3);
}

TEST(Bmc, TraceStepsAreRealTransitions) {
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.faulty_node = 0;
  cfg.fault_degree = 2;  // babbling node: safety is violated (see ttalite tests)
  kernel::TtaLite model(cfg);
  auto r = check_invariant_bounded(model.system(), model.safety_expr(), 25);
  ASSERT_TRUE(r.violation_found);
  EXPECT_FALSE(model.safety(r.trace.back()));
  // Validate every step against the interpreter semantics.
  for (std::size_t t = 0; t + 1 < r.trace.size(); ++t) {
    bool found = false;
    model.system().successor_valuations(r.trace[t], [&](const std::vector<int>& next) {
      if (next == r.trace[t + 1]) found = true;
    });
    EXPECT_TRUE(found) << "BMC trace step " << t << " is not a model transition";
  }
}

TEST(Bmc, DepthAgreesWithExplicitBfs) {
  // The explicit BFS produces minimal counterexamples; BMC's first SAT depth
  // must coincide (paper §5.2 compares exactly these two engines).
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.faulty_node = 0;
  cfg.fault_degree = 3;
  kernel::TtaLite model(cfg);

  const kernel::PackedSystem ps(model.system());
  auto explicit_result = mc::check_invariant(ps, [&](const kernel::PackedSystem::State& s) {
    return model.safety(ps.unpack(s));
  });
  ASSERT_EQ(explicit_result.verdict, mc::Verdict::kViolated);
  const int explicit_depth = static_cast<int>(explicit_result.trace.size()) - 1;

  auto r = check_invariant_bounded(model.system(), model.safety_expr(), explicit_depth + 3);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, explicit_depth);
}

TEST(Bmc, StutterSemantics) {
  // A group whose guard dies must stutter (else_stutter) and keep its
  // variable; BMC must model that frame rule.
  kernel::System s;
  auto& e = s.exprs();
  const kernel::VarId a = s.add_var("a", 4, 0);
  const int g = s.add_group("g", /*else_stutter=*/true);
  s.add_command(g, e.lt_const(e.var(a), 2), {{a, e.add_mod(e.var(a), 1, 4)}});
  // a climbs to 2 then freezes; "a != 3" holds at every depth.
  const kernel::ExprId never3 = e.lnot(e.eq_const(e.var(a), 3));
  auto r = check_invariant_bounded(s, never3, 8);
  EXPECT_FALSE(r.violation_found);
  // But "a != 2" is violated at depth 2.
  const kernel::ExprId never2 = e.lnot(e.eq_const(e.var(a), 2));
  auto r2 = check_invariant_bounded(s, never2, 8);
  ASSERT_TRUE(r2.violation_found);
  EXPECT_EQ(r2.depth, 2);
}

/// Up to `limit` reachable valuations of `sys`, in BFS order.
std::vector<std::vector<int>> reachable_sample(const kernel::System& sys, std::size_t limit) {
  std::set<std::vector<int>> seen;
  std::deque<std::vector<int>> frontier;
  std::vector<std::vector<int>> out;
  auto visit = [&](const std::vector<int>& v) {
    if (out.size() < limit && seen.insert(v).second) {
      frontier.push_back(v);
      out.push_back(v);
    }
  };
  sys.initial_valuations(visit);
  while (!frontier.empty()) {
    const std::vector<int> v = frontier.front();
    frontier.pop_front();
    sys.successor_valuations(v, visit);
  }
  return out;
}

/// Oracle for the transition encoding: from each sampled state pinned at
/// frame 0, enumerating the frame-1 models of a two-frame Unroller (one
/// blocking clause per model) yields exactly the system's successor set.
void expect_frame_successors_match(const kernel::System& sys,
                                   const std::vector<std::vector<int>>& states) {
  Unroller u(sys, {.constrain_initial = false});
  u.ensure_frames(2);
  for (const auto& s : states) {
    std::set<std::vector<int>> expected;
    sys.successor_valuations(s, [&](const std::vector<int>& next) { expected.insert(next); });

    // The blocking clauses of this state live behind one activation literal.
    const sat::Lit act = sat::Lit::make(u.solver().new_var(), false);
    std::vector<sat::Lit> assumptions{act};
    for (std::size_t v = 0; v < s.size(); ++v) {
      assumptions.push_back(u.var_bit(0, static_cast<kernel::VarId>(v), s[v]));
    }
    std::set<std::vector<int>> encoded;
    while (u.solver().solve(assumptions) == sat::Result::kSat) {
      const std::vector<int> next = u.decode_frame(1);
      ASSERT_TRUE(encoded.insert(next).second) << "blocked model returned again";
      ASSERT_LE(encoded.size(), expected.size()) << "encoding admits a non-successor";
      std::vector<sat::Lit> block{~act};
      for (std::size_t v = 0; v < next.size(); ++v) {
        block.push_back(~u.var_bit(1, static_cast<kernel::VarId>(v), next[v]));
      }
      u.solver().add_clause(std::move(block));
    }
    EXPECT_EQ(encoded, expected);
    u.solver().add_clause({~act});
  }
}

TEST(Encoder, FrameSuccessorsMatchTtaLite) {
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.faulty_node = 0;
  cfg.fault_degree = 3;
  kernel::TtaLite model(cfg);
  const auto states = reachable_sample(model.system(), 40);
  ASSERT_EQ(states.size(), 40u);
  expect_frame_successors_match(model.system(), states);
}

TEST(Encoder, FrameSuccessorsMatchStarIr) {
  // Both IR phases occur among the sampled states (two IR steps per
  // cluster step).
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 3;
  cfg.init_window = 2;
  cfg.hub_init_window = 1;
  cfg.timeliness_bound = 0;
  const tta::StarIr ir(cfg);
  const auto states = reachable_sample(ir.system(), 64);
  ASSERT_EQ(states.size(), 64u);
  const auto cluster_frames = std::count_if(
      states.begin(), states.end(), [&](const auto& v) { return ir.is_cluster_frame(v); });
  EXPECT_GT(cluster_frames, 0);
  EXPECT_LT(cluster_frames, 64);
  expect_frame_successors_match(ir.system(), states);
}

TEST(Encoder, FoldsConstantsAndReusesGates) {
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  kernel::TtaLite model(cfg);
  Unroller u(model.system());
  u.ensure_frames(2);
  // Frame 0 against itself: every per-value AND is x & ~x, which folds.
  EXPECT_EQ(u.frames_differ(0, 0), ~u.true_lit());
  const sat::Lit d = u.frames_differ(0, 1);
  const int vars = u.solver().num_vars();
  EXPECT_EQ(u.frames_differ(0, 1), d);
  EXPECT_EQ(u.solver().num_vars(), vars);  // the repeat allocated nothing
}

TEST(Encoder, CliqueTransitionFrameStaysSmall) {
  // The §5.2 clique star IR: 29 state variables, 151 one-hot bits a frame.
  // Sharing every gate keeps a transition frame at 5,812 solver variables
  // (33,836 with one fresh variable per Tseitin gate).
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_hub = 0;
  cfg.big_bang = false;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;
  cfg.timeliness_bound = 0;
  const tta::StarIr ir(cfg);
  Unroller u(ir.system());
  u.ensure_frames(2);
  const int before = u.solver().num_vars();
  u.ensure_frames(3);
  EXPECT_LE(u.solver().num_vars() - before, 8000);
}

}  // namespace
}  // namespace tt::bmc
