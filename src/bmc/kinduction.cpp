#include "bmc/kinduction.hpp"

#include <algorithm>

#include "bmc/encoder.hpp"
#include "kernel/packed_system.hpp"
#include "mc/reachability.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace tt::bmc {

namespace {

/// The lazy explicit reachability sweep (the completeness threshold) is the
/// frontier core at one thread over the packed IR. BFS order makes a
/// violation's depth the minimal violating depth; on kHolds the depth is the
/// reachable graph's BFS depth; kLimit means the state budget ran out. The
/// swept state count goes on the span only; the run's RunStats keeps
/// counting SAT work alone.
mc::InvariantResult<kernel::PackedSystem> reachability_sweep(const kernel::System& system,
                                                             kernel::ExprId property,
                                                             std::size_t state_budget) {
  obs::Span span("kind.diameter");
  const kernel::PackedSystem ps(system);
  mc::SearchLimits limits;
  limits.max_states = state_budget;
  auto r = mc::check_invariant(
      ps,
      [&](const kernel::PackedSystem::State& s) {
        return system.exprs().eval(property, ps.unpack(s)) != 0;
      },
      limits);
  span.set_arg("states", static_cast<std::int64_t>(r.stats.states));
  return r;
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
    mc::RunStats& st = result.stats;
    st.solver_calls = base.solver().stats().solve_calls + step.solver().stats().solve_calls;
    st.clauses_reused =
        base.solver().stats().clauses_reused + step.solver().stats().clauses_reused;
    st.mark(mc::Section::kProof);
    st.depth = std::max(depth, 0);
    st.exhausted = verdict != ProofVerdict::kUnknown;
    st.seconds = timer.seconds();
    return result;
  };

  for (int k = 0; k <= options.max_k; ++k) {
    obs::Span depth_span("kind.depth");
    depth_span.set_arg("k", k);
    result.stats.frames = static_cast<std::size_t>(k) + 1;

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
      const auto sweep = reachability_sweep(system, property, options.diameter_state_budget);
      const int sweep_depth = sweep.stats.depth;
      run_span.set_arg("diameter", sweep.verdict == mc::Verdict::kHolds ? sweep_depth : -1);
      if (sweep.verdict == mc::Verdict::kViolated) {
        TT_ASSERT(sweep_depth > k);  // depths <= k are refuted
        for (int t = k + 1; t <= sweep_depth; ++t) {
          base.ensure_frames(t + 1);
          result.stats.frames = static_cast<std::size_t>(t) + 1;
          if (base.solver().solve({~base.bool_expr(property, t)}) == sat::Result::kSat) {
            result.trace.reserve(static_cast<std::size_t>(t) + 1);
            for (int f = 0; f <= t; ++f) result.trace.push_back(base.decode_frame(f));
            return finish(ProofVerdict::kViolated, t);
          }
          obs::progress_tick({.phase = "kind", .depth = t, .seconds = timer.seconds()});
        }
        TT_ASSERT(false && "explicit violation depth not reached by the base instance");
      }
      if (sweep.verdict == mc::Verdict::kHolds) {
        result.via_diameter = true;
        return finish(ProofVerdict::kProved, sweep_depth);
      }
      // Budget ran out: pure induction is the only remaining route.
    }
  }
  return finish(ProofVerdict::kUnknown, -1);
}

}  // namespace tt::bmc
