// EXP-F5: reproduces paper Figure 5 — "Number of Scenarios for Different
// Fault Degrees" — exactly, via the closed-form formulas, and augments it
// with the *measured* reachable-state counts of our model at the scaled
// wake-up window (the explicit-state analogue of `sal-smc --count`).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_record.hpp"
#include "core/scenario_math.hpp"
#include "mc/reachability.hpp"
#include "obs/obs.hpp"
#include "support/bench_report.hpp"
#include "support/table.hpp"
#include "tta/cluster.hpp"

namespace {

void BM_ScenarioFormulas(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto s = tt::core::paper_scenarios(n);
    benchmark::DoNotOptimize(s.fault_scenarios);
  }
}
BENCHMARK(BM_ScenarioFormulas)->Arg(3)->Arg(4)->Arg(5);

void BM_CountReachable(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  tt::tta::ClusterConfig cfg;
  cfg.n = n;
  cfg.init_window = 2;
  cfg.hub_init_window = 2;
  for (auto _ : state) {
    const tt::tta::Cluster cluster(cfg);
    auto stats = tt::mc::count_reachable(cluster);
    state.counters["states"] = static_cast<double>(stats.states);
    benchmark::DoNotOptimize(stats.states);
  }
}
BENCHMARK(BM_CountReachable)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void print_table(tt::BenchReport& report) {
  std::printf("\n=== Figure 5: number of scenarios (paper parameters, exact) ===\n");
  tt::TextTable t({"nodes", "d_init", "|S_sup|", "paper", "d_fail", "wcsup", "|S_f.n.|",
                   "paper"});
  const char* paper_sup[] = {"3.3e5", "3.3e7", "4.1e9"};
  const char* paper_fn[] = {"8e24", "6e35", "4.9e46"};
  for (int n = 3; n <= 5; ++n) {
    auto s = tt::core::paper_scenarios(n);
    t.add_row({std::to_string(n), std::to_string(s.delta_init),
               s.startup_scenarios.to_scientific(2), paper_sup[n - 3], "6",
               std::to_string(s.wcsup), s.fault_scenarios.to_scientific(2),
               paper_fn[n - 3]});
  }
  std::printf("%s", t.render().c_str());

  std::printf("\n=== measured reachable states (fault-free, window = 2 slots) ===\n");
  tt::TextTable m({"nodes", "reachable states", "transitions", "orbit states",
                   "orbit transitions", "state bits"});
  for (int n = 3; n <= 4; ++n) {
    tt::tta::ClusterConfig cfg;
    cfg.n = n;
    cfg.init_window = 2;
    cfg.hub_init_window = 2;
    const tt::tta::Cluster cluster(cfg);
    auto stats = tt::mc::count_reachable(cluster);
    // The same count over the symmetry quotient (tta/symmetry.hpp): in the
    // fault-free model the channel swap and the frame-pair collapse both
    // apply, so this is the orbit-count analogue of `sal-smc --count`.
    const tt::tta::Cluster quotient(cfg, tt::tta::Reduction::kSymmetry);
    auto orbit = tt::mc::count_reachable(quotient);
    // A limit-stopped count would silently understate the state space; the
    // exhausted flag makes that impossible to miss.
    m.add_row({std::to_string(n),
               std::to_string(stats.states) + (stats.exhausted ? "" : " (truncated!)"),
               std::to_string(stats.transitions),
               std::to_string(orbit.states) + (orbit.exhausted ? "" : " (truncated!)"),
               std::to_string(orbit.transitions), std::to_string(cluster.state_bits())});
    tt::BenchRecord rec;
    rec.experiment = tt::strfmt("fig5/count_reachable/n%d", n);
    rec.engine = "seq";
    rec.verdict = stats.exhausted ? "count" : "count(truncated)";
    rec.stats = stats;
    report.add(tt::with_reduction(rec, tt::mc::ReductionKind::kNone, 0));
    rec.verdict = orbit.exhausted ? "count" : "count(truncated)";
    rec.stats = orbit;
    tt::core::annotate_reduction_stats(quotient, rec.stats);
    report.add(tt::with_reduction(rec, tt::mc::ReductionKind::kSymmetry, stats.states));
  }
  std::printf("%s\n", m.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Obs flags come out of argv before GoogleBenchmark sees the rest.
  tt::obs::ObsOptions obs_opts;
  if (!tt::obs::parse_obs_args(argc, argv, obs_opts)) return 2;
  tt::obs::ScopedObservability obs_session(obs_opts);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tt::BenchReport report("bench_fig5_scenario_counts");
  print_table(report);
  report.write();
  return 0;
}
