// Bench rows of core::verify() runs, shared by the bench binaries. The
// counter columns come with the run's RunStats: each engine and layer marks
// the sections it produced, so a row carries exactly those.
#pragma once

#include <cstddef>
#include <string>

#include "core/verifier.hpp"
#include "support/bench_report.hpp"

namespace tt {

/// The row of one verify() run: its engine, "holds"/"VIOLATED" and its stats.
inline BenchRecord record_of(const std::string& experiment, const core::VerificationResult& r) {
  BenchRecord rec;
  rec.experiment = experiment;
  rec.engine = mc::to_string(r.engine_used);
  rec.verdict = r.holds ? "holds" : "VIOLATED";
  rec.stats = r.stats;
  return rec;
}

/// verify() on `engine` at `threads` (0 = the default count), no reduction.
inline core::VerificationResult verify_on(const tta::ClusterConfig& cfg, core::Lemma lemma,
                                          mc::EngineKind engine, int threads = 0) {
  core::VerifyOptions opts;
  opts.engine = engine;
  opts.threads = threads;
  return core::verify(cfg, lemma, opts);
}

/// verify() over the `kind` quotient, default engine.
inline core::VerificationResult verify_reduced(const tta::ClusterConfig& cfg, core::Lemma lemma,
                                               mc::ReductionKind kind) {
  core::VerifyOptions opts;
  opts.reduction = kind;
  return core::verify(cfg, lemma, opts);
}

/// `rec` as the row of a run over the `kind` reduction ("none" included),
/// with the reduction ratio when the paired unreduced run ran (`raw_states`
/// > 0). The ratio is on *stored states* — the honest headline number; the
/// far larger transition/time reduction is visible from the paired rows.
inline BenchRecord with_reduction(BenchRecord rec, mc::ReductionKind kind,
                                  std::size_t raw_states) {
  rec.reduction = mc::to_string(kind);
  if (raw_states > 0 && rec.stats.states > 0) {
    rec.reduction_ratio =
        static_cast<double>(raw_states) / static_cast<double>(rec.stats.states);
  }
  return rec;
}

}  // namespace tt
