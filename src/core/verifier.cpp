#include "core/verifier.hpp"

#include "bmc/ic3.hpp"
#include "bmc/kinduction.hpp"
#include "mc/explore.hpp"
#include "mc/liveness.hpp"
#include "mc/parallel_liveness.hpp"
#include "mc/reachability.hpp"
#include "mc/symbolic_liveness.hpp"
#include "mc/symbolic_reachability.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "tta/properties.hpp"
#include "tta/star_ir.hpp"
#include "tta/symmetry.hpp"

namespace tt::core {

namespace {

/// The model-layer reduction a ReductionKind selects (same four names).
tta::Reduction to_tta_reduction(mc::ReductionKind k) {
  switch (k) {
    case mc::ReductionKind::kNone: return tta::Reduction::kNone;
    case mc::ReductionKind::kSymmetry: return tta::Reduction::kSymmetry;
    case mc::ReductionKind::kPartialOrder: return tta::Reduction::kPartialOrder;
    case mc::ReductionKind::kSymPor: return tta::Reduction::kSymPor;
  }
  TT_ASSERT(false && "unreachable");
  return tta::Reduction::kNone;
}

/// Post-run bookkeeping for a reduced run: when a counterexample over the
/// quotient is attached, replays it into a concrete trace of the raw model
/// (tta::concretize_trace) — under a "canon" span so the work shows up in
/// traces next to the engine spans.
void finish_reduced_run(const tta::Cluster& cluster, const tta::ClusterConfig& cfg,
                        bool has_loop, bool initial_root, VerificationResult& out) {
  obs::Span span("canon");
  if (out.trace.empty()) return;
  span.set_detail("concretize");
  const tta::Cluster raw(cfg);
  tta::ConcreteTrace conc = tta::concretize_trace(raw, cluster.reduction(), out.trace,
                                                  out.loop_start, has_loop, initial_root);
  out.trace = std::move(conc.trace);
  out.loop_start = conc.loop_start;
}

/// The SAT-based proof-engine path (DESIGN.md §3.10): re-expresses the
/// configuration as the star-cluster guarded-command IR and runs k-induction
/// or IC3/PDR on the phase-gated property expression. Unlike the exploratory
/// engines these can return PROVED — an unbounded guarantee — and on a
/// violation the even (phase-0) frames of the IR counterexample decode to an
/// exact cluster trace at half the IR depth.
VerificationResult verify_with_proof_engine(const tta::ClusterConfig& cfg, Lemma lemma,
                                            const VerifyOptions& opts) {
  TT_REQUIRE(is_invariant_lemma(lemma),
             "proof engines (kind/ic3) handle invariant lemmas only");
  TT_REQUIRE(opts.reduction == mc::ReductionKind::kNone,
             "proof engines run on the raw star IR; combine them with --reduction none");
  VerificationResult out;
  out.engine_used = opts.engine;

  const tta::StarIr ir(cfg);
  kernel::ExprId property = -1;
  switch (lemma) {
    case Lemma::kSafety: property = ir.safety_expr(); break;
    case Lemma::kTimeliness:
    case Lemma::kSafety2: property = ir.timeliness_expr(); break;
    case Lemma::kHubAgreement: property = ir.hub_agreement_expr(); break;
    case Lemma::kLiveness:
    case Lemma::kReintegration: TT_ASSERT(false && "unreachable"); break;
  }

  bmc::ProofResult r;
  if (opts.engine == mc::EngineKind::kKInduction) {
    bmc::KindOptions kopt;
    if (opts.limits.max_depth != std::numeric_limits<int>::max() &&
        opts.limits.max_depth < kopt.max_k / 2) {
      kopt.max_k = 2 * opts.limits.max_depth;  // cluster depth d = IR depth 2d
    }
    r = bmc::check_invariant_kind(ir.system(), property, kopt);
  } else {
    r = bmc::check_invariant_ic3(ir.system(), property, {});
  }

  out.holds = r.verdict == bmc::ProofVerdict::kProved;
  out.stats = std::move(r.stats);
  out.exhausted = out.stats.exhausted;
  switch (r.verdict) {
    case bmc::ProofVerdict::kProved:
      out.verdict_text = "PROVED@" + std::to_string(r.depth) +
                         (r.via_diameter ? " (reachability diameter)" : "");
      break;
    case bmc::ProofVerdict::kViolated: {
      out.stats.depth = r.depth / 2;
      out.verdict_text = to_string(r.verdict);
      const tta::Cluster raw(cfg);
      for (const std::vector<int>& frame : r.trace) {
        if (ir.is_cluster_frame(frame)) out.trace.push_back(raw.pack(ir.decode(frame)));
      }
      break;
    }
    case bmc::ProofVerdict::kUnknown:
      out.verdict_text = to_string(r.verdict);
      break;
  }
  return out;
}

/// True when the run interns into the frontier store that StoreOptions
/// selects: the BFS (seq/par/auto) on an invariant lemma or OWCTY (par/auto)
/// on a liveness lemma. The lasso DFS (seq on a liveness lemma) and the
/// symbolic and proof engines keep no such store, so a store choice or a
/// memory budget would change nothing there.
bool uses_frontier_store(Lemma lemma, const VerifyOptions& opts) {
  switch (opts.engine) {
    case mc::EngineKind::kAuto:
    case mc::EngineKind::kParallel: return true;
    case mc::EngineKind::kSequential: return is_invariant_lemma(lemma);
    case mc::EngineKind::kSymbolic:
    case mc::EngineKind::kKInduction:
    case mc::EngineKind::kIc3: return false;
  }
  return false;
}

}  // namespace

void annotate_reduction_stats(const tta::Cluster& cluster, mc::RunStats& stats) {
  stats.canon_ops = cluster.canon_ops();
  stats.canon_swaps = cluster.canon_swaps();
  stats.ample_sets = cluster.ample_sets();
  stats.pruned_combos = cluster.pruned_combos();
  stats.proviso_fallbacks = cluster.proviso_fallbacks();
  stats.mark(mc::Section::kReduction);
  if (tta::reduction_has_por(cluster.reduction())) stats.mark(mc::Section::kPor);
}

tta::ClusterConfig prepare_config(tta::ClusterConfig cfg, Lemma lemma) {
  switch (lemma) {
    case Lemma::kSafety:
    case Lemma::kLiveness:
    case Lemma::kHubAgreement:
    case Lemma::kReintegration:
      // No startup_time tracking: a smaller state vector, as in the paper's
      // corresponding runs.
      cfg.timeliness_bound = 0;
      break;
    case Lemma::kTimeliness:
      TT_REQUIRE(cfg.timeliness_bound > 0, "timeliness needs a positive bound");
      cfg.timeliness_target = tta::TimelinessTarget::kFirstCorrectActive;
      break;
    case Lemma::kSafety2:
      TT_REQUIRE(cfg.timeliness_bound > 0, "safety_2 needs a positive bound");
      TT_REQUIRE(cfg.faulty_hub != tta::ClusterConfig::kNone,
                 "safety_2 is the faulty-hub lemma");
      cfg.timeliness_target = tta::TimelinessTarget::kCorrectHubSynced;
      break;
  }
  return cfg;
}

VerificationResult verify(const tta::ClusterConfig& raw_cfg, Lemma lemma,
                          const VerifyOptions& opts) {
  const bool lockfree = opts.store.kind == mc::StoreKind::kLockFree;
  TT_REQUIRE(!lockfree || uses_frontier_store(lemma, opts),
             "--store lockfree needs seq/par/auto on an invariant lemma or par/auto on a "
             "liveness lemma; the other engines keep no explicit store");
  TT_REQUIRE(opts.store.mem_budget_bytes == 0 || lockfree,
             "a memory budget needs --store lockfree");
  const tta::ClusterConfig cfg = prepare_config(raw_cfg, lemma);
  const bool reduced = opts.reduction != mc::ReductionKind::kNone;
  // Top-level span: one per verify() call, detail = lemma (static storage
  // from to_string), so engine-level spans nest under it in the trace. The
  // run's counters are sampled into the trace (mc::trace_counters) before
  // it closes.
  obs::Span verify_span("verify");
  verify_span.set_detail(to_string(lemma));
  verify_span.set_arg("n", cfg.n);

  if (mc::is_proof_engine(opts.engine)) {
    VerificationResult out = verify_with_proof_engine(cfg, lemma, opts);
    mc::trace_counters(out.stats);
    return out;
  }

  const tta::Cluster cluster(cfg, to_tta_reduction(opts.reduction));
  VerificationResult out;

  if (!is_invariant_lemma(lemma)) {
    // Liveness engines (DESIGN.md §3.4): auto resolves to the parallel
    // OWCTY trimmer, seq forces the colored-DFS lasso search, sym runs the
    // backward EG(¬goal) fixpoint — no silent fallback anymore.
    const mc::EngineKind kind = opts.engine == mc::EngineKind::kAuto
                                    ? mc::EngineKind::kParallel
                                    : opts.engine;
    out.engine_used = kind;
    auto goal = [&](const tta::Cluster::State& s) {
      return tta::all_correct_active(cfg, cluster.unpack(s));
    };
    const bool recurrent = lemma == Lemma::kReintegration;  // AG AF vs F
    auto r = [&] {
      if (kind == mc::EngineKind::kSymbolic) {
        return recurrent
                   ? mc::check_always_eventually_symbolic(cluster, goal, opts.limits)
                   : mc::check_eventually_symbolic(cluster, goal, opts.limits);
      }
      mc::EngineOptions eopts(opts.limits);
      eopts.threads = opts.threads;
      eopts.store = opts.store;
      if (reduced) {
        eopts.finalize_stats = [&](mc::RunStats& st) { annotate_reduction_stats(cluster, st); };
      }
      return recurrent ? mc::check_always_eventually_with(kind, cluster, goal, eopts)
                       : mc::check_eventually_with(kind, cluster, goal, eopts);
    }();
    out.holds = r.verdict == mc::LivenessVerdict::kHolds;
    out.exhausted = r.verdict != mc::LivenessVerdict::kLimit;
    out.stats = std::move(r.stats);
    if (reduced && kind == mc::EngineKind::kSymbolic) {
      annotate_reduction_stats(cluster, out.stats);
    }
    out.trace = std::move(r.trace);
    out.loop_start = r.loop_start;
    out.verdict_text = to_string(r.verdict);
    if (reduced) {
      // The sequential AG AF engine roots its lasso anywhere in the
      // reachable set; every other liveness counterexample starts at an
      // initial state.
      const bool initial_root =
          !(kind == mc::EngineKind::kSequential && lemma == Lemma::kReintegration);
      finish_reduced_run(cluster, cfg, r.verdict == mc::LivenessVerdict::kCycle,
                         initial_root, out);
    }
    mc::trace_counters(out.stats);
    return out;
  }

  auto invariant = [&](const tta::Cluster::State& s) {
    const tta::ClusterState c = cluster.unpack(s);
    switch (lemma) {
      case Lemma::kSafety: return tta::holds_safety(cfg, c);
      case Lemma::kTimeliness:
      case Lemma::kSafety2: return tta::holds_timeliness(cfg, c);
      case Lemma::kHubAgreement: return tta::holds_hub_agreement(cfg, c);
      case Lemma::kLiveness:
      case Lemma::kReintegration: break;
    }
    TT_ASSERT(false && "unreachable");
    return true;
  };

  const mc::EngineKind kind = opts.engine == mc::EngineKind::kAuto
                                  ? mc::EngineKind::kParallel
                                  : opts.engine;
  out.engine_used = kind;
  auto r = kind == mc::EngineKind::kSymbolic
               ? mc::check_invariant_symbolic(cluster, invariant, opts.limits)
               : [&] {
                   mc::EngineOptions eopts(opts.limits);
                   eopts.threads = opts.threads;
                   eopts.store = opts.store;
                   if (reduced) {
                     eopts.finalize_stats = [&](mc::RunStats& st) {
                       annotate_reduction_stats(cluster, st);
                     };
                   }
                   return mc::check_invariant_with(kind, cluster, invariant, eopts);
                 }();
  out.holds = r.verdict == mc::Verdict::kHolds;
  out.exhausted = r.verdict != mc::Verdict::kLimit;
  out.stats = std::move(r.stats);
  if (reduced && kind == mc::EngineKind::kSymbolic) {
    annotate_reduction_stats(cluster, out.stats);
  }
  out.trace = std::move(r.trace);
  out.verdict_text = to_string(r.verdict);
  if (reduced) {
    finish_reduced_run(cluster, cfg, /*has_loop=*/false, /*initial_root=*/true, out);
  }
  mc::trace_counters(out.stats);
  return out;
}

}  // namespace tt::core
