// EXP-F4: reproduces paper Figure 4 — "Effect of Increasing Fault Degree on
// Model-Checking Performance" — verification time of the safety, liveness
// and timeliness lemmas on a 4-node cluster with one faulty node at fault
// degrees 1, 3 and 5 (feedback on).
//
// Paper (SAL symbolic, 2.8 GHz Xeon):        degree 1 / 3 / 5
//   safety      44.11 / 166.34 /  251.12 s
//   liveness   196.05 / 892.15 / 1324.54 s
//   timeliness  77.14 / 615.03 /  921.92 s
// The absolute numbers are not comparable (different machine, different
// exploration technology, scaled wake-up window); the reproduced *shape* is:
// verification time grows with the fault degree for every lemma, and
// liveness is the most expensive property.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_record.hpp"
#include "core/verifier.hpp"
#include "obs/obs.hpp"
#include "support/bench_report.hpp"
#include "support/table.hpp"

namespace {

tt::tta::ClusterConfig fig4_config(int degree) {
  tt::tta::ClusterConfig cfg;
  cfg.n = 4;
  cfg.faulty_node = 0;
  cfg.fault_degree = degree;
  cfg.feedback = true;
  cfg.init_window = 8;  // scaled from the paper's 8 rounds (see DESIGN.md §6)
  cfg.hub_init_window = 8;
  return cfg;
}

tt::core::Lemma lemma_of(int id) {
  switch (id) {
    case 0: return tt::core::Lemma::kSafety;
    case 1: return tt::core::Lemma::kLiveness;
    default: return tt::core::Lemma::kTimeliness;
  }
}

void BM_Fig4(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  const auto lemma = lemma_of(static_cast<int>(state.range(1)));
  auto cfg = fig4_config(degree);
  if (lemma == tt::core::Lemma::kTimeliness) cfg.timeliness_bound = 6 * cfg.n;
  for (auto _ : state) {
    auto r = tt::core::verify(cfg, lemma);
    if (!r.holds) state.SkipWithError("lemma unexpectedly violated");
    state.counters["states"] = static_cast<double>(r.stats.states);
  }
}
BENCHMARK(BM_Fig4)
    ->ArgsProduct({{1, 3, 5}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.01);

void print_table(tt::BenchReport& report) {
  const double paper[3][3] = {{44.11, 196.05, 77.14},
                              {166.34, 892.15, 615.03},
                              {251.12, 1324.54, 921.92}};
  const int degrees[3] = {1, 3, 5};
  const char* slugs[3] = {"safety", "liveness", "timeliness"};

  std::printf("\n=== Figure 4: fault-degree dial, n = 4, faulty node (feedback on) ===\n");
  tt::TextTable t({"degree", "lemma", "eval", "measured s", "states", "orbit states",
                   "sym s", "s+p states", "s+p s", "paper s (SAL 2004)"});
  for (int d = 0; d < 3; ++d) {
    for (int l = 0; l < 3; ++l) {
      const auto lemma = lemma_of(l);
      auto cfg = fig4_config(degrees[d]);
      if (lemma == tt::core::Lemma::kTimeliness) cfg.timeliness_bound = 6 * cfg.n;
      const std::string slug = tt::strfmt("fig4/%s/deg%d", slugs[l], degrees[d]);
      const auto r = tt::core::verify(cfg, lemma);
      report.add(tt::with_reduction(tt::record_of(slug, r), tt::mc::ReductionKind::kNone, 0));
      // Same cell over the symmetry quotient (--reduction sym): identical
      // verdict on the reduced state graph; the orbit-states/sym-s columns
      // show what the reduction buys at each fault degree.
      const auto q = tt::verify_reduced(cfg, lemma, tt::mc::ReductionKind::kSymmetry);
      report.add(tt::with_reduction(tt::record_of(slug, q), tt::mc::ReductionKind::kSymmetry,
                                    r.stats.states));
      if (q.holds != r.holds) std::printf("!! reduced/unreduced verdict disagreement\n");
      // And with the ample-set clamp on top (--reduction sym+por, DESIGN.md
      // §3.8): the s+p columns show the por component's extra shrink at
      // each fault degree.
      const auto sp = tt::verify_reduced(cfg, lemma, tt::mc::ReductionKind::kSymPor);
      report.add(tt::with_reduction(tt::record_of(slug, sp), tt::mc::ReductionKind::kSymPor,
                                    r.stats.states));
      if (sp.holds != r.holds) std::printf("!! sym+por/unreduced verdict disagreement\n");
      t.add_row({std::to_string(degrees[d]), tt::core::to_string(lemma),
                 r.holds ? "true" : "FALSE", tt::strfmt("%.2f", r.stats.seconds),
                 std::to_string(r.stats.states), std::to_string(q.stats.states),
                 tt::strfmt("%.2f", q.stats.seconds), std::to_string(sp.stats.states),
                 tt::strfmt("%.2f", sp.stats.seconds), tt::strfmt("%.2f", paper[d][l])});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("(shape to check: time grows with degree for every lemma; liveness is the\n"
              " most expensive lemma at every degree — as in the paper. The quotient\n"
              " columns shrink fastest at high degree, where the faulty node's output\n"
              " alphabet dominates; see DESIGN.md §3.6)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Obs flags come out of argv before GoogleBenchmark sees the rest.
  tt::obs::ObsOptions obs_opts;
  if (!tt::obs::parse_obs_args(argc, argv, obs_opts)) return 2;
  tt::obs::ScopedObservability obs_session(obs_opts);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tt::BenchReport report("bench_fig4_fault_degree_dial");
  print_table(report);
  report.write();
  return 0;
}
