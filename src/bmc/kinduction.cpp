#include "bmc/kinduction.hpp"

#include <unordered_set>

#include "bmc/encoder.hpp"
#include "kernel/packed_system.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace tt::bmc {

namespace {

struct StateHash {
  std::size_t operator()(const kernel::PackedSystem::State& s) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::uint64_t w : s) {
      h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Result of the lazy explicit reachability sweep (the completeness
/// threshold). Exactly one of the two fields is >= 0 unless the state
/// budget ran out (then both are -1): `violation_depth` is the minimal BFS
/// depth of a reachable property-violating state, `diameter` the BFS depth
/// of the reachable graph when no such state exists.
struct ReachSweep {
  int diameter = -1;
  int violation_depth = -1;
};

ReachSweep reachability_sweep(const kernel::System& system, kernel::ExprId property,
                              std::size_t state_budget) {
  obs::Span span("kind.diameter");
  const kernel::PackedSystem ps(system);
  ReachSweep out;
  const auto violates = [&](const kernel::PackedSystem::State& s) {
    return system.exprs().eval(property, ps.unpack(s)) == 0;
  };
  std::unordered_set<kernel::PackedSystem::State, StateHash> seen;
  std::vector<kernel::PackedSystem::State> frontier;
  ps.initial_states([&](const kernel::PackedSystem::State& s) {
    if (seen.insert(s).second) frontier.push_back(s);
  });
  int depth = 0;
  std::vector<kernel::PackedSystem::State> next;
  while (!frontier.empty()) {
    // BFS order makes the first violating level the minimal violating
    // depth; stopping there keeps violated runs cheap.
    for (const auto& s : frontier) {
      if (violates(s)) {
        out.violation_depth = depth;
        return out;
      }
    }
    if (seen.size() > state_budget) return {};
    next.clear();
    for (const auto& s : frontier) {
      ps.successors(s, [&](const kernel::PackedSystem::State& t) {
        if (seen.insert(t).second) next.push_back(t);
      });
    }
    if (next.empty()) break;
    std::swap(frontier, next);
    ++depth;
  }
  out.diameter = depth;
  span.set_arg("states", static_cast<int>(seen.size()));
  return out;
}

}  // namespace

ProofResult check_invariant_kind(const kernel::System& system, kernel::ExprId property,
                                 const KindOptions& options) {
  Timer timer;
  obs::Span run_span("kind.run");
  ProofResult result;

  Unroller base(system);
  Unroller step(system, {.constrain_initial = false});

  bool diameter_tried = false;

  auto finish = [&](ProofVerdict verdict, int depth) {
    result.verdict = verdict;
    result.depth = depth;
    result.solver_calls =
        base.solver().stats().solve_calls + step.solver().stats().solve_calls;
    result.clauses_reused =
        base.solver().stats().clauses_reused + step.solver().stats().clauses_reused;
    result.total_conflicts =
        base.solver().stats().conflicts + step.solver().stats().conflicts;
    result.seconds = timer.seconds();
    return result;
  };

  for (int k = 0; k <= options.max_k; ++k) {
    obs::Span depth_span("kind.depth");
    depth_span.set_arg("k", k);
    result.frames = static_cast<std::uint64_t>(k) + 1;

    // Base case: is P violated at depth exactly k? (Shallower depths were
    // already refuted, so the first SAT is a minimal counterexample.)
    base.ensure_frames(k + 1);
    if (base.solver().solve({~base.bool_expr(property, k)}) == sat::Result::kSat) {
      result.trace.reserve(static_cast<std::size_t>(k) + 1);
      for (int t = 0; t <= k; ++t) result.trace.push_back(base.decode_frame(t));
      return finish(ProofVerdict::kViolated, k);
    }

    // Inductive step: can k frames of P end in ¬P, starting anywhere?
    // (Only reached while the completeness threshold is unattempted or out
    // of budget — a successful sweep finishes the run by itself.)
    step.ensure_frames(k + 1);
    if (k >= 1) {
      // P holds permanently at the previous frame (asserted once, kept).
      step.solver().add_clause({step.bool_expr(property, k - 1)});
      if (options.simple_path) {
        for (int j = 0; j < k; ++j) {
          step.solver().add_clause({step.frames_differ(j, k)});
        }
      }
    }
    if (step.solver().solve({~step.bool_expr(property, k)}) == sat::Result::kUnsat) {
      return finish(ProofVerdict::kProved, k);
    }

    obs::progress_tick({.phase = "kind", .depth = k, .seconds = timer.seconds()});

    // Pure induction did not close quickly: run the explicit reachability
    // sweep once (the completeness threshold). It either certifies P on
    // every reachable state — closing the proof with no further SAT work —
    // or pins the exact minimal violating depth, which the base instance
    // then reaches with per-depth probes (keeping the counterexample
    // SAT-derived and minimal-length).
    if (!diameter_tried && k >= options.diameter_after_k &&
        options.diameter_state_budget > 0) {
      diameter_tried = true;
      const ReachSweep sweep =
          reachability_sweep(system, property, options.diameter_state_budget);
      run_span.set_arg("diameter", sweep.diameter);
      if (sweep.violation_depth >= 0) {
        TT_ASSERT(sweep.violation_depth > k);  // depths <= k are refuted
        for (int t = k + 1; t <= sweep.violation_depth; ++t) {
          base.ensure_frames(t + 1);
          result.frames = static_cast<std::uint64_t>(t) + 1;
          if (base.solver().solve({~base.bool_expr(property, t)}) == sat::Result::kSat) {
            result.trace.reserve(static_cast<std::size_t>(t) + 1);
            for (int f = 0; f <= t; ++f) result.trace.push_back(base.decode_frame(f));
            return finish(ProofVerdict::kViolated, t);
          }
          obs::progress_tick({.phase = "kind", .depth = t, .seconds = timer.seconds()});
        }
        TT_ASSERT(false && "explicit violation depth not reached by the base instance");
      }
      if (sweep.diameter >= 0) {
        result.via_diameter = true;
        return finish(ProofVerdict::kProved, sweep.diameter);
      }
      // Budget ran out: pure induction is the only remaining route.
    }
  }
  return finish(ProofVerdict::kUnknown, -1);
}

}  // namespace tt::bmc
