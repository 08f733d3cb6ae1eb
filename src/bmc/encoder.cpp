#include "bmc/encoder.hpp"

#include <algorithm>
#include <utility>

#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/timer.hpp"

namespace tt::bmc {

using kernel::ExprId;
using kernel::ExprNode;
using kernel::Op;
using kernel::VarId;
using sat::Lit;

Unroller::Unroller(const kernel::System& system, Options opts)
    : system_(system), opts_(opts) {
  true_lit_ = Lit::make(solver_.new_var(), false);
  solver_.add_clause({true_lit_});
  ensure_frames(1);
  if (opts_.constrain_initial) encode_initial();
}

void Unroller::ensure_frames(int frames) {
  while (frames_ < frames) {
    add_frame();
    if (frames_ >= 2) encode_transition(frames_ - 2);
  }
}

void Unroller::add_frame() {
  // Allocate one-hot bits for the new frame and add the one-hot axioms.
  bits_.emplace_back();
  auto& frame = bits_.back();
  frame.resize(system_.vars().size());
  for (std::size_t v = 0; v < system_.vars().size(); ++v) {
    const int domain = system_.vars()[v].domain;
    for (int val = 0; val < domain; ++val) {
      frame[v].push_back(solver_.new_var());
    }
    // At least one value...
    std::vector<Lit> alo;
    for (int bit : frame[v]) alo.push_back(Lit::make(bit, false));
    solver_.add_clause(alo);
    // ... and at most one.
    for (int a = 0; a < domain; ++a) {
      for (int b = a + 1; b < domain; ++b) {
        solver_.add_clause({Lit::make(frame[v][static_cast<std::size_t>(a)], true),
                            Lit::make(frame[v][static_cast<std::size_t>(b)], true)});
      }
    }
  }
  ++frames_;
}

Lit Unroller::var_bit(int t, VarId v, int val) const {
  return Lit::make(
      bits_[static_cast<std::size_t>(t)][static_cast<std::size_t>(v)][static_cast<std::size_t>(val)],
      false);
}

Lit Unroller::bool_expr(ExprId e, int t) {
  const Op op = system_.exprs().node(e).op;
  TT_REQUIRE(op != Op::kConst && op != Op::kVar && op != Op::kAddMod,
             "integer expression used as boolean in BMC encoding");
  return int_eq(e, 1, t);
}

Lit Unroller::int_eq(ExprId e, int val, int t) {
  TT_ASSERT(t < frames_);
  if (val < 0 || val >= expr_domain(e)) return ~true_lit_;
  TT_ASSERT(e >= 0 && val < (1 << 16) && t < (1 << 16));
  const std::uint64_t key = static_cast<std::uint64_t>(e) << 32 |
                            static_cast<std::uint64_t>(val) << 16 |
                            static_cast<std::uint64_t>(t);
  if (const auto it = eq_lits_.find(key); it != eq_lits_.end()) return it->second;
  const Lit out = encode_eq(e, val, t);
  eq_lits_.emplace(key, out);
  return out;
}

Lit Unroller::encode_eq(ExprId e, int val, int t) {
  const ExprNode& n = system_.exprs().node(e);
  switch (n.op) {
    case Op::kConst: return n.k == val ? true_lit_ : ~true_lit_;
    case Op::kVar: return var_bit(t, n.var, val);
    case Op::kAddMod: {
      // e.a may take any value w with (w + k) mod m == val.
      std::vector<Lit> alts;
      for (int w = 0; w < expr_domain(n.a); ++w) {
        if (((w + n.k) % n.m + n.m) % n.m == val) alts.push_back(int_eq(n.a, w, t));
      }
      return define_or(std::move(alts));
    }
    case Op::kIte: {
      const Lit c = bool_expr(n.c, t);
      return define_or({define_and({c, int_eq(n.a, val, t)}),
                        define_and({~c, int_eq(n.b, val, t)})});
    }
    default: break;
  }
  // A boolean expression; as a 0/1 integer, "e == 0" is "not e".
  if (val == 0) return ~int_eq(e, 1, t);
  switch (n.op) {
    case Op::kEqC: return int_eq(n.a, n.k, t);
    case Op::kLtC:
    case Op::kGeC: {
      std::vector<Lit> alts;
      for (int w = 0; w < expr_domain(n.a); ++w) {
        if (n.op == Op::kLtC ? (w < n.k) : (w >= n.k)) alts.push_back(int_eq(n.a, w, t));
      }
      return define_or(std::move(alts));
    }
    case Op::kEqV: {
      std::vector<Lit> alts;
      const int dom = std::min(expr_domain(n.a), expr_domain(n.b));
      for (int w = 0; w < dom; ++w) {
        alts.push_back(define_and({int_eq(n.a, w, t), int_eq(n.b, w, t)}));
      }
      return define_or(std::move(alts));
    }
    case Op::kAnd: return define_and({bool_expr(n.a, t), bool_expr(n.b, t)});
    case Op::kOr: return define_or({bool_expr(n.a, t), bool_expr(n.b, t)});
    case Op::kNot: return ~bool_expr(n.a, t);
    default: TT_ASSERT(false); return true_lit_;
  }
}

int Unroller::expr_domain(ExprId e) const {
  const ExprNode& n = system_.exprs().node(e);
  switch (n.op) {
    case Op::kConst: return n.k + 1;
    case Op::kVar: return system_.vars()[static_cast<std::size_t>(n.var)].domain;
    case Op::kAddMod: return n.m;
    case Op::kIte: return std::max(expr_domain(n.a), expr_domain(n.b));
    default: return 2;  // boolean
  }
}

Lit Unroller::frames_differ(int i, int j) {
  TT_ASSERT(i < frames_ && j < frames_);
  std::vector<Lit> any_diff;
  for (std::size_t v = 0; v < system_.vars().size(); ++v) {
    const int dom = system_.vars()[v].domain;
    std::vector<Lit> diff_v;
    for (int val = 0; val < dom; ++val) {
      diff_v.push_back(
          define_and({var_bit(i, static_cast<VarId>(v), val),
                      ~var_bit(j, static_cast<VarId>(v), val)}));
    }
    any_diff.push_back(define_or(std::move(diff_v)));
  }
  return define_or(std::move(any_diff));
}

std::vector<int> Unroller::decode_frame(int t) const {
  std::vector<int> v(system_.vars().size(), -1);
  for (std::size_t var = 0; var < v.size(); ++var) {
    const int dom = system_.vars()[var].domain;
    for (int val = 0; val < dom; ++val) {
      if (solver_.value(bits_[static_cast<std::size_t>(t)][var][static_cast<std::size_t>(val)])) {
        v[var] = val;
        break;
      }
    }
    TT_ASSERT(v[var] >= 0);
  }
  return v;
}

std::size_t Unroller::LitsHash::operator()(const std::vector<Lit>& xs) const noexcept {
  std::uint64_t h = xs.size();
  for (const Lit x : xs) h = mix64(h ^ static_cast<std::uint64_t>(x.code()));
  return static_cast<std::size_t>(h);
}

Lit Unroller::define_and(std::vector<Lit> xs) {
  std::erase(xs, true_lit_);
  std::sort(xs.begin(), xs.end(), [](Lit a, Lit b) { return a.code() < b.code(); });
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  // A literal and its complement sort next to each other (codes 2v, 2v+1),
  // so adjacent pairs catch both x & ~x and a false (~true_lit_) input.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == ~true_lit_ || (i > 0 && xs[i] == ~xs[i - 1])) return ~true_lit_;
  }
  if (xs.empty()) return true_lit_;
  if (xs.size() == 1) return xs[0];
  const auto [it, fresh] = and_gates_.try_emplace(xs, true_lit_);
  if (!fresh) return it->second;
  const Lit d = Lit::make(solver_.new_var(), false);
  it->second = d;
  std::vector<Lit> big{d};
  for (const Lit x : xs) {
    solver_.add_clause({~d, x});
    big.push_back(~x);
  }
  solver_.add_clause(std::move(big));
  return d;
}

Lit Unroller::define_or(std::vector<Lit> xs) {
  for (Lit& x : xs) x = ~x;
  return ~define_and(std::move(xs));
}

void Unroller::encode_initial() {
  for (std::size_t v = 0; v < system_.vars().size(); ++v) {
    const auto& d = system_.vars()[v];
    if (!d.init_any) {
      solver_.add_clause({var_bit(0, static_cast<VarId>(v), d.init)});
    }
  }
}

void Unroller::encode_transition(int t) {
  std::vector<std::uint8_t> owned(system_.vars().size(), 0);
  for (std::size_t g = 0; g < system_.groups().size(); ++g) {
    const auto& grp = system_.groups()[g];
    // Selector per command (+ optional stutter selector).
    std::vector<Lit> selectors;
    for (const auto& cmd : grp.commands) {
      const Lit s = Lit::make(solver_.new_var(), false);
      selectors.push_back(s);
      // Selector implies the guard at frame t.
      solver_.add_clause({~s, bool_expr(cmd.guard, t)});
      // Selector implies the assignments at frame t+1.
      for (const auto& a : cmd.assigns) {
        owned[static_cast<std::size_t>(a.var)] = 1;
        const int dom = system_.vars()[static_cast<std::size_t>(a.var)].domain;
        for (int val = 0; val < dom; ++val) {
          // s & (expr == val) -> var'[val]
          solver_.add_clause({~s, ~int_eq(a.value, val, t), var_bit(t + 1, a.var, val)});
        }
      }
      // Selector implies frame axioms for owned-but-unassigned variables;
      // handled below per variable by collecting which commands assign it.
    }
    Lit stutter = ~true_lit_;
    if (grp.else_stutter) {
      stutter = Lit::make(solver_.new_var(), false);
      selectors.push_back(stutter);
      // Stuttering is only allowed when no command is enabled.
      for (const auto& cmd : grp.commands) {
        solver_.add_clause({~stutter, ~bool_expr(cmd.guard, t)});
      }
    }
    // Exactly one selector fires.
    solver_.add_clause(selectors);
    for (std::size_t a = 0; a < selectors.size(); ++a) {
      for (std::size_t b = a + 1; b < selectors.size(); ++b) {
        solver_.add_clause({~selectors[a], ~selectors[b]});
      }
    }
    // Frame axioms: for each variable owned by this group, any selected
    // command that does not assign it (and the stutter option) keeps it.
    for (std::size_t v = 0; v < system_.vars().size(); ++v) {
      if (system_.vars()[v].group != static_cast<int>(g)) continue;
      owned[v] = 1;
      for (std::size_t c = 0; c < grp.commands.size(); ++c) {
        bool assigns = false;
        for (const auto& a : grp.commands[c].assigns) {
          if (a.var == static_cast<VarId>(v)) {
            assigns = true;
            break;
          }
        }
        if (assigns) continue;
        frame_equal(selectors[c], static_cast<VarId>(v), t);
      }
      if (grp.else_stutter) frame_equal(stutter, static_cast<VarId>(v), t);
    }
  }
  // Globally unowned variables never change.
  for (std::size_t v = 0; v < system_.vars().size(); ++v) {
    if (system_.vars()[v].group == -1) frame_equal(true_lit_, static_cast<VarId>(v), t);
  }
}

void Unroller::frame_equal(Lit cond, VarId v, int t) {
  const int dom = system_.vars()[static_cast<std::size_t>(v)].domain;
  for (int val = 0; val < dom; ++val) {
    solver_.add_clause({~cond, ~var_bit(t, v, val), var_bit(t + 1, v, val)});
  }
}

BmcResult check_invariant_bounded(const kernel::System& system, kernel::ExprId property,
                                  int max_depth) {
  Timer timer;
  obs::Span run_span("bmc.run");
  run_span.set_arg("max_depth", max_depth);
  BmcResult result;
  Unroller u(system);
  for (int k = 0; k <= max_depth; ++k) {
    obs::Span depth_span("bmc.depth");
    depth_span.set_arg("k", k);
    u.ensure_frames(k + 1);
    // Depth goal as an assumption: the k-unrolling stays intact (and the
    // learned clauses stay sound) when depth k+1 extends it.
    const sat::Result r = u.solver().solve({~u.bool_expr(property, k)});
    if (obs::enabled()) {
      obs::emit_counter("bmc.conflicts",
                        static_cast<double>(u.solver().stats().conflicts));
      obs::emit_counter("bmc.clauses", static_cast<double>(u.solver().num_clauses()));
    }
    obs::progress_tick({.phase = "bmc",
                        .depth = k,
                        .seconds = timer.seconds(),
                        .total_hint = static_cast<std::size_t>(max_depth)});
    if (r == sat::Result::kSat) {
      result.violation_found = true;
      result.depth = k;
      for (int t = 0; t <= k; ++t) result.trace.push_back(u.decode_frame(t));
      break;
    }
  }
  result.total_conflicts = u.solver().stats().conflicts;
  result.total_clauses = u.solver().num_clauses();
  result.solver_calls = u.solver().stats().solve_calls;
  result.clauses_reused = u.solver().stats().clauses_reused;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace tt::bmc
