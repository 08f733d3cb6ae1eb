#include "bdd/symbolic.hpp"

#include <algorithm>
#include <limits>

#include "support/bitpack.hpp"
#include "support/timer.hpp"

namespace tt::bdd {

namespace {

int compute_total_bits(const kernel::System& system) {
  int bits = 0;
  for (const auto& d : system.vars()) bits += tt::bits_for(static_cast<std::uint64_t>(d.domain));
  return bits;
}

}  // namespace

SymbolicEngine::SymbolicEngine(const kernel::System& system)
    : system_(system), manager_(2 * compute_total_bits(system)) {
  int base = 0;
  for (const auto& d : system_.vars()) {
    const int w = tt::bits_for(static_cast<std::uint64_t>(d.domain));
    width_.push_back(w);
    bit_base_.push_back(base);
    base += w;
  }
  total_bits_ = base;
}

NodeId SymbolicEngine::var_equals(kernel::VarId v, int val, bool next_frame) {
  const int base = bit_base_[static_cast<std::size_t>(v)];
  const int w = width_[static_cast<std::size_t>(v)];
  NodeId acc = kTrue;
  // Build bottom-up (highest BDD level first) to keep intermediate BDDs tiny.
  for (int b = w - 1; b >= 0; --b) {
    const int level = 2 * (base + b) + (next_frame ? 1 : 0);
    const bool bit = ((val >> b) & 1) != 0;
    acc = manager_.land(bit ? manager_.var(level) : manager_.nvar(level), acc);
  }
  return acc;
}

NodeId SymbolicEngine::var_unchanged(kernel::VarId v) {
  const int base = bit_base_[static_cast<std::size_t>(v)];
  const int w = width_[static_cast<std::size_t>(v)];
  NodeId acc = kTrue;
  for (int b = w - 1; b >= 0; --b) {
    const int cur = 2 * (base + b);
    const NodeId eq = manager_.lnot(manager_.lxor(manager_.var(cur), manager_.var(cur + 1)));
    acc = manager_.land(eq, acc);
  }
  return acc;
}

int SymbolicEngine::expr_domain(kernel::ExprId e) const {
  const auto& n = system_.exprs().node(e);
  switch (n.op) {
    case kernel::Op::kConst: return n.k + 1;
    case kernel::Op::kVar: return system_.vars()[static_cast<std::size_t>(n.var)].domain;
    case kernel::Op::kAddMod: return n.m;
    case kernel::Op::kIte: return std::max(expr_domain(n.a), expr_domain(n.b));
    default: return 2;
  }
}

NodeId SymbolicEngine::encode_int_eq(kernel::ExprId e, int val, bool next_frame) {
  const auto& n = system_.exprs().node(e);
  switch (n.op) {
    case kernel::Op::kConst: return n.k == val ? kTrue : kFalse;
    case kernel::Op::kVar: {
      const int dom = system_.vars()[static_cast<std::size_t>(n.var)].domain;
      if (val < 0 || val >= dom) return kFalse;
      return var_equals(n.var, val, next_frame);
    }
    case kernel::Op::kAddMod: {
      if (val < 0 || val >= n.m) return kFalse;
      NodeId acc = kFalse;
      const int dom = expr_domain(n.a);
      for (int w = 0; w < dom; ++w) {
        if ((((w + n.k) % n.m) + n.m) % n.m == val) {
          acc = manager_.lor(acc, encode_int_eq(n.a, w, next_frame));
        }
      }
      return acc;
    }
    case kernel::Op::kIte: {
      const NodeId c = encode_bool(n.c, next_frame);
      return manager_.lor(manager_.land(c, encode_int_eq(n.a, val, next_frame)),
                          manager_.land(manager_.lnot(c), encode_int_eq(n.b, val, next_frame)));
    }
    default: {
      const NodeId b = encode_bool(e, next_frame);
      if (val == 1) return b;
      if (val == 0) return manager_.lnot(b);
      return kFalse;
    }
  }
}

NodeId SymbolicEngine::encode_bool(kernel::ExprId e, bool next_frame) {
  const auto& n = system_.exprs().node(e);
  switch (n.op) {
    case kernel::Op::kEqC: return encode_int_eq(n.a, n.k, next_frame);
    case kernel::Op::kLtC:
    case kernel::Op::kGeC: {
      NodeId acc = kFalse;
      const int dom = expr_domain(n.a);
      for (int val = 0; val < dom; ++val) {
        const bool in = n.op == kernel::Op::kLtC ? (val < n.k) : (val >= n.k);
        if (in) acc = manager_.lor(acc, encode_int_eq(n.a, val, next_frame));
      }
      return acc;
    }
    case kernel::Op::kEqV: {
      NodeId acc = kFalse;
      const int dom = std::min(expr_domain(n.a), expr_domain(n.b));
      for (int val = 0; val < dom; ++val) {
        acc = manager_.lor(acc, manager_.land(encode_int_eq(n.a, val, next_frame),
                                              encode_int_eq(n.b, val, next_frame)));
      }
      return acc;
    }
    case kernel::Op::kAnd:
      return manager_.land(encode_bool(n.a, next_frame), encode_bool(n.b, next_frame));
    case kernel::Op::kOr:
      return manager_.lor(encode_bool(n.a, next_frame), encode_bool(n.b, next_frame));
    case kernel::Op::kNot: return manager_.lnot(encode_bool(n.a, next_frame));
    case kernel::Op::kIte: {
      const NodeId c = encode_bool(n.c, next_frame);
      return manager_.ite(c, encode_bool(n.a, next_frame), encode_bool(n.b, next_frame));
    }
    default:
      TT_REQUIRE(false, "integer expression used as boolean in symbolic encoding");
  }
  return kFalse;
}

NodeId SymbolicEngine::build_initial() {
  NodeId acc = kTrue;
  for (std::size_t v = 0; v < system_.vars().size(); ++v) {
    const auto& d = system_.vars()[v];
    if (d.init_any) {
      // Any value inside the domain (excludes unused encodings).
      NodeId any = kFalse;
      for (int val = 0; val < d.domain; ++val) {
        any = manager_.lor(any, var_equals(static_cast<kernel::VarId>(v), val, false));
      }
      acc = manager_.land(acc, any);
    } else {
      acc = manager_.land(acc, var_equals(static_cast<kernel::VarId>(v), d.init, false));
    }
  }
  return acc;
}

void SymbolicEngine::build_partitions() {
  // One relation conjunct per choice group, never conjoined with the others:
  // the image threads the frontier through them with and_exists instead.
  for (std::size_t g = 0; g < system_.groups().size(); ++g) {
    const auto& grp = system_.groups()[g];
    std::vector<kernel::VarId> owned;
    for (std::size_t v = 0; v < system_.vars().size(); ++v) {
      if (system_.vars()[v].group == static_cast<int>(g)) {
        owned.push_back(static_cast<kernel::VarId>(v));
      }
    }
    NodeId group_rel = kFalse;
    NodeId no_guard = kTrue;
    for (const auto& cmd : grp.commands) {
      const NodeId guard = encode_bool(cmd.guard, false);
      no_guard = manager_.land(no_guard, manager_.lnot(guard));
      NodeId effect = kTrue;
      for (const kernel::VarId v : owned) {
        kernel::ExprId assigned = -1;
        for (const auto& a : cmd.assigns) {
          if (a.var == v) {
            assigned = a.value;
            break;
          }
        }
        if (assigned < 0) {
          effect = manager_.land(effect, var_unchanged(v));
        } else {
          NodeId keeps = kFalse;
          const int dom = system_.vars()[static_cast<std::size_t>(v)].domain;
          for (int val = 0; val < dom; ++val) {
            keeps = manager_.lor(keeps, manager_.land(encode_int_eq(assigned, val, false),
                                                      var_equals(v, val, true)));
          }
          effect = manager_.land(effect, keeps);
        }
      }
      group_rel = manager_.lor(group_rel, manager_.land(guard, effect));
    }
    if (grp.else_stutter) {
      NodeId stay = no_guard;
      for (const kernel::VarId v : owned) stay = manager_.land(stay, var_unchanged(v));
      group_rel = manager_.lor(group_rel, stay);
    }
    parts_.push_back({group_rel, kTrue});
  }
  // Variables never assigned by any group are frozen — one extra partition.
  NodeId frozen = kTrue;
  for (std::size_t v = 0; v < system_.vars().size(); ++v) {
    if (system_.vars()[v].group == -1) {
      frozen = manager_.land(frozen, var_unchanged(static_cast<kernel::VarId>(v)));
    }
  }
  if (frozen != kTrue || parts_.empty()) parts_.push_back({frozen, kTrue});

  // Early-quantification schedule: each current-state bit is quantified at
  // the last partition whose support mentions it (bits no partition reads
  // can leave at the first conjunction).
  std::vector<int> quantify_at(static_cast<std::size_t>(total_bits_), 0);
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    const auto sup = manager_.support(parts_[p].relation);
    for (int b = 0; b < total_bits_; ++b) {
      if (sup[static_cast<std::size_t>(2 * b)] != 0) {
        quantify_at[static_cast<std::size_t>(b)] = static_cast<int>(p);
      }
    }
  }
  std::vector<std::vector<int>> cube_vars(parts_.size());
  for (int b = 0; b < total_bits_; ++b) {
    cube_vars[static_cast<std::size_t>(quantify_at[static_cast<std::size_t>(b)])]
        .push_back(2 * b);
  }
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    parts_[p].cube = manager_.cube(cube_vars[p]);
    manager_.ref(parts_[p].relation);
    manager_.ref(parts_[p].cube);
  }

  std::vector<int> rename_map(static_cast<std::size_t>(2 * total_bits_), 0);
  for (int b = 0; b < total_bits_; ++b) {
    rename_map[static_cast<std::size_t>(2 * b)] = 2 * b;
    rename_map[static_cast<std::size_t>(2 * b + 1)] = 2 * b;  // next -> current
  }
  rename_next_to_cur_ = manager_.register_rename(rename_map);
  built_ = true;
}

NodeId SymbolicEngine::image(NodeId frontier) {
  // Relational product: conjoin-and-quantify per partition. Intermediate
  // results are GC-safe because every public call roots its own operands.
  NodeId img = frontier;
  for (const Partition& p : parts_) {
    img = manager_.and_exists(img, p.relation, p.cube);
  }
  return manager_.rename(img, rename_next_to_cur_);
}

std::vector<int> SymbolicEngine::decode(const std::vector<bool>& bits) const {
  std::vector<int> v(system_.vars().size(), 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    int val = 0;
    for (int b = 0; b < width_[i]; ++b) {
      if (bits[static_cast<std::size_t>(2 * (bit_base_[i] + b))]) val |= 1 << b;
    }
    v[i] = val;
  }
  return v;
}

SymbolicResult SymbolicEngine::check_invariant(kernel::ExprId property) {
  Timer timer;
  SymbolicResult out;
  out.bdd_vars = 2 * total_bits_;

  // Construction holds intermediates in locals the collector cannot see, so
  // GC stays off until everything long-lived is built and ref()ed.
  manager_.set_gc_threshold(std::numeric_limits<std::size_t>::max());
  if (!built_) build_partitions();
  const NodeId init = build_initial();
  manager_.ref(init);
  const NodeId prop = property >= 0 ? encode_bool(property, false) : kTrue;
  manager_.ref(prop);
  manager_.set_gc_threshold(std::size_t{1} << 16);
  (void)manager_.gc();  // drop construction garbage before the fixpoint

  NodeId reached = init;
  manager_.ref(reached);
  NodeId frontier = init;
  manager_.ref(frontier);
  while (frontier != kFalse) {
    ++out.stats.bdd_iterations;
    const NodeId img = image(frontier);
    const NodeId new_frontier = manager_.land(img, manager_.lnot(reached));
    manager_.ref(new_frontier);
    manager_.deref(frontier);
    frontier = new_frontier;
    const NodeId new_reached = manager_.lor(reached, frontier);
    manager_.ref(new_reached);
    manager_.deref(reached);
    reached = new_reached;
  }

  // `reached` mentions current-frame bits only: divide out the free next bits.
  out.reachable_exact =
      manager_.sat_count_exact(reached) >> static_cast<unsigned>(total_bits_);
  out.reachable_states = out.reachable_exact.to_double();
  out.stats.states = out.reachable_exact.fits_u64()
                         ? static_cast<std::size_t>(out.reachable_exact.to_u64())
                         : std::numeric_limits<std::size_t>::max();

  if (property < 0) {
    out.holds = true;  // counting run: no property to check
  } else {
    const NodeId bad = manager_.land(reached, manager_.lnot(prop));
    out.holds = bad == kFalse;
    if (!out.holds) {
      out.violating_state = decode(manager_.any_sat(bad));
    }
  }

  copy_bdd_stats(manager_.stats(), out.stats);

  manager_.deref(frontier);
  manager_.deref(reached);
  manager_.deref(prop);
  manager_.deref(init);
  out.stats.seconds = timer.seconds();
  return out;
}

SymbolicResult SymbolicEngine::count_reachable() { return check_invariant(-1); }

}  // namespace tt::bdd
