#include "bmc/ic3.hpp"

#include <algorithm>
#include <queue>
#include <tuple>
#include <unordered_set>

#include "bmc/encoder.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace tt::bmc {

namespace {

using kernel::VarId;
using sat::Lit;

/// A cube over state variables: a set of (variable, value) literals, read as
/// their conjunction. Blocking a cube adds the clause of its negation.
using Cube = std::vector<std::pair<VarId, int>>;

/// Caps past which the run gives up with kUnknown.
constexpr int kMaxFrames = 4096;
constexpr std::uint64_t kMaxObligations = 50'000'000;

class Ic3 {
 public:
  Ic3(const kernel::System& system, kernel::ExprId property)
      : system_(system),
        unroller_(system, {.constrain_initial = false}) {
    unroller_.ensure_frames(2);
    p0_ = unroller_.bool_expr(property, 0);
    p1_ = unroller_.bool_expr(property, 1);
    // Level 0: the initial states, behind their own activation literal.
    new_level();
    for (std::size_t v = 0; v < system_.vars().size(); ++v) {
      const auto& d = system_.vars()[v];
      if (!d.init_any) {
        solver().add_clause({unroller_.var_bit(0, static_cast<VarId>(v), d.init),
                             Lit::make(act_[0], true)});
      }
    }
    new_level();  // level 1 (frame F_1), initially unconstrained
  }

  ProofResult run() {
    Timer timer;
    obs::Span run_span("ic3.run");
    // Base cases: counterexamples of length 0 and 1 (every later obligation
    // chain passes through these two queries' frame discipline).
    if (solver().solve(with_acts(0, {~p0_})) == sat::Result::kSat) {
      result_.trace = {unroller_.decode_frame(0)};
      return finish(ProofVerdict::kViolated, 0, timer);
    }
    if (solver().solve(with_acts(0, {~p1_})) == sat::Result::kSat) {
      result_.trace = {unroller_.decode_frame(0), unroller_.decode_frame(1)};
      return finish(ProofVerdict::kViolated, 1, timer);
    }

    while (top_level() < kMaxFrames) {
      // Strengthen F_N until it satisfies the property.
      while (solver().solve(with_acts(top_level(), {~p0_})) == sat::Result::kSat) {
        const Outcome o = block_bad_state(unroller_.decode_frame(0));
        if (o == Outcome::kCex) {
          return finish(ProofVerdict::kViolated,
                        static_cast<int>(result_.trace.size()) - 1, timer);
        }
        if (o == Outcome::kCapped) return finish(ProofVerdict::kUnknown, -1, timer);
      }
      obs::progress_tick({.phase = "ic3",
                          .depth = top_level(),
                          .seconds = timer.seconds()});

      // Extend the frame sequence and propagate clauses forward.
      new_level();
      for (int i = 1; i + 1 < static_cast<int>(frame_cubes_.size()); ++i) {
        auto& cubes = frame_cubes_[static_cast<std::size_t>(i)];
        for (std::size_t c = 0; c < cubes.size();) {
          if (solver().solve(with_acts(i, next_state_assumptions(cubes[c]))) ==
              sat::Result::kUnsat) {
            // The cube is unreachable from F_i entirely: push it to F_{i+1}.
            Cube moved = std::move(cubes[c]);
            cubes[c] = std::move(cubes.back());
            cubes.pop_back();
            block_cube_at(moved, i + 1);
          } else {
            ++c;
          }
        }
        if (cubes.empty()) {
          // F_i == F_{i+1}: an inductive strengthening of P. Proof closed.
          return finish(ProofVerdict::kProved, i, timer);
        }
      }
    }
    return finish(ProofVerdict::kUnknown, -1, timer);
  }

 private:
  enum class Outcome { kBlocked, kCex, kCapped };

  struct Obligation {
    std::vector<int> state;  ///< full valuation (concrete, for exact traces)
    int parent = -1;  ///< obligation whose state this one steps into
  };

  [[nodiscard]] sat::Solver& solver() noexcept { return unroller_.solver(); }
  [[nodiscard]] int top_level() const noexcept {
    return static_cast<int>(act_.size()) - 1;
  }

  void new_level() {
    act_.push_back(solver().new_var());
    frame_cubes_.emplace_back();
  }

  /// Assumption set activating frame F_i, plus `extra`.
  [[nodiscard]] std::vector<Lit> with_acts(int i, std::vector<Lit> extra) const {
    std::vector<Lit> out;
    for (int j = i; j < static_cast<int>(act_.size()); ++j) {
      out.push_back(Lit::make(act_[static_cast<std::size_t>(j)], false));
    }
    for (const Lit l : extra) out.push_back(l);
    return out;
  }

  [[nodiscard]] std::vector<Lit> next_state_assumptions(const Cube& cube) const {
    std::vector<Lit> out;
    out.reserve(cube.size());
    for (const auto& [v, val] : cube) out.push_back(unroller_.var_bit(1, v, val));
    return out;
  }

  [[nodiscard]] bool is_initial(const std::vector<int>& state) const {
    for (std::size_t v = 0; v < system_.vars().size(); ++v) {
      const auto& d = system_.vars()[v];
      if (!d.init_any && state[v] != d.init) return false;
    }
    return true;
  }

  [[nodiscard]] bool cube_intersects_init(const Cube& cube) const {
    // Initial states form a product set (init_any vars are free), so the
    // cube misses it iff some literal pins a non-init value.
    for (const auto& [v, val] : cube) {
      const auto& d = system_.vars()[static_cast<std::size_t>(v)];
      if (!d.init_any && val != d.init) return false;
    }
    return true;
  }

  void block_cube_at(const Cube& cube, int level) {
    std::vector<Lit> clause;
    clause.reserve(cube.size() + 1);
    for (const auto& [v, val] : cube) clause.push_back(~unroller_.var_bit(0, v, val));
    clause.push_back(Lit::make(act_[static_cast<std::size_t>(level)], true));
    solver().add_clause(std::move(clause));
    frame_cubes_[static_cast<std::size_t>(level)].push_back(cube);
  }

  /// The relative-induction query SAT?[ F_{i-1} ∧ ¬c ∧ T ∧ target' ] where
  /// c is the obligation's full-state cube. The ¬c conjunct lives behind a
  /// one-shot activation literal that is retired right after the call.
  [[nodiscard]] sat::Result relative_query(int i, const Cube& c) {
    const int tmp = solver().new_var();
    std::vector<Lit> not_c;
    not_c.reserve(c.size() + 1);
    for (const auto& [v, val] : c) not_c.push_back(~unroller_.var_bit(0, v, val));
    not_c.push_back(Lit::make(tmp, true));
    solver().add_clause(std::move(not_c));
    std::vector<Lit> extra{Lit::make(tmp, false)};
    for (const Lit l : next_state_assumptions(c)) extra.push_back(l);
    const sat::Result r = solver().solve(with_acts(i - 1, std::move(extra)));
    solver().add_clause({Lit::make(tmp, true)});  // retire ¬c
    return r;
  }

  /// Drops every literal the refutation did not use (assumption core), then
  /// repairs init-disjointness syntactically.
  [[nodiscard]] Cube core_shrink(const Cube& full) {
    std::unordered_set<int> core_codes;
    for (const Lit l : solver().conflict_core()) core_codes.insert(l.code());
    Cube g;
    for (const auto& [v, val] : full) {
      if (core_codes.count(unroller_.var_bit(1, v, val).code()) != 0) {
        g.emplace_back(v, val);
      }
    }
    if (cube_intersects_init(g)) {
      for (const auto& [v, val] : full) {
        const auto& d = system_.vars()[static_cast<std::size_t>(v)];
        if (!d.init_any && val != d.init) {
          g.emplace_back(v, val);
          break;
        }
      }
      TT_ASSERT(!cube_intersects_init(g));
    }
    return g;
  }

  /// MIC-style strengthening on top of the core shrink: greedily retry the
  /// relative-induction query with each literal dropped, keeping every drop
  /// the solver still refutes. One extra solve per literal buys cubes that
  /// exclude whole families of unreachable states instead of single points —
  /// without it, frame convergence on the star IR is hopeless (the
  /// predecessor space of an over-approximated frame is the full valuation
  /// space, not the reachable set).
  [[nodiscard]] Cube generalize(int level, const Cube& full) {
    Cube g = core_shrink(full);
    // Single greedy pass: each literal is offered for removal once; a
    // successful removal re-shrinks to the new refutation's core (which may
    // discard several more literals for free) and continues from the same
    // position. Quadratic restart policies buy slightly smaller cubes for
    // 2-3x the solver calls — a bad trade here.
    for (std::size_t i = 0; i < g.size() && g.size() > 1;) {
      Cube cand;
      cand.reserve(g.size() - 1);
      for (std::size_t j = 0; j < g.size(); ++j) {
        if (j != i) cand.push_back(g[j]);
      }
      if (cube_intersects_init(cand) ||
          relative_query(level, cand) != sat::Result::kUnsat) {
        ++i;
        continue;
      }
      Cube shrunk = core_shrink(cand);
      g = shrunk.size() < cand.size() ? std::move(shrunk) : std::move(cand);
    }
    return g;
  }

  [[nodiscard]] static Cube state_cube(const std::vector<int>& state) {
    Cube c;
    c.reserve(state.size());
    for (std::size_t v = 0; v < state.size(); ++v) {
      c.emplace_back(static_cast<VarId>(v), state[v]);
    }
    return c;
  }

  /// Blocks the bad state `m` found in F_N, recursing through predecessors
  /// via the proof-obligation queue. A blocked obligation is not forwarded to
  /// the next frame: an obligation at level i stays there, so a chain that
  /// reaches an initial state has exactly N steps. Since every F_i with
  /// i < N over-approximates the states reachable in i steps and holds no
  /// bad state, no counterexample is shorter: the trace is minimal.
  Outcome block_bad_state(std::vector<int> m) {
    std::vector<Obligation> pool;
    // Min-priority queue on (level, insertion order): lowest frames first,
    // so counterexamples are confirmed before effort is spent above them.
    using Entry = std::tuple<int, std::uint64_t, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    std::uint64_t seq = 0;
    pool.push_back({std::move(m), -1});
    queue.emplace(top_level(), seq++, 0);

    while (!queue.empty()) {
      const auto [level, order, idx] = queue.top();
      queue.pop();
      ++result_.stats.proof_obligations;
      if (result_.stats.proof_obligations > kMaxObligations) return Outcome::kCapped;
      if ((result_.stats.proof_obligations & 0xFF) == 0) {
        obs::progress_tick({.phase = "ic3",
                            .depth = top_level(),
                            .round = static_cast<long long>(result_.stats.proof_obligations)});
      }

      if (is_initial(pool[static_cast<std::size_t>(idx)].state)) {
        // The obligation chain is a concrete initial path to a bad state.
        result_.trace.clear();
        for (int cur = idx; cur != -1; cur = pool[static_cast<std::size_t>(cur)].parent) {
          result_.trace.push_back(pool[static_cast<std::size_t>(cur)].state);
        }
        return Outcome::kCex;
      }
      TT_ASSERT(level > 0);  // level-0 obligations are always initial states

      const Cube c = state_cube(pool[static_cast<std::size_t>(idx)].state);
      if (relative_query(level, c) == sat::Result::kSat) {
        // A predecessor in F_{level-1} reaches the obligation: chase it
        // first, then retry this obligation.
        pool.push_back({unroller_.decode_frame(0), idx});
        queue.emplace(level - 1, seq++, static_cast<int>(pool.size()) - 1);
        queue.emplace(level, seq++, idx);
      } else {
        block_cube_at(generalize(level, c), level);
      }
    }
    return Outcome::kBlocked;
  }

  ProofResult finish(ProofVerdict verdict, int depth, const Timer& timer) {
    result_.verdict = verdict;
    result_.depth = depth;
    mc::RunStats& st = result_.stats;
    st.frames = static_cast<std::size_t>(top_level()) + 1;
    st.solver_calls = solver().stats().solve_calls;
    st.clauses_reused = solver().stats().clauses_reused;
    st.mark(mc::Section::kProof);
    st.depth = std::max(depth, 0);
    st.exhausted = verdict != ProofVerdict::kUnknown;
    st.seconds = timer.seconds();
    return result_;
  }

  const kernel::System& system_;
  Unroller unroller_;
  Lit p0_;
  Lit p1_;
  std::vector<int> act_;                  ///< activation var per frame level
  std::vector<std::vector<Cube>> frame_cubes_;  ///< cubes blocked at each level
  ProofResult result_;
};

}  // namespace

ProofResult check_invariant_ic3(const kernel::System& system, kernel::ExprId property) {
  Ic3 engine(system, property);
  return engine.run();
}

}  // namespace tt::bmc
