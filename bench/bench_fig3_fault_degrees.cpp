// EXP-F3: reproduces paper Figure 3 — the fault-degree matrix — by printing
// the admitted per-channel output-pair counts of the dial at every degree and
// benchmarking the per-step fault-injection enumeration cost.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "support/bench_report.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "tta/faulty_node.hpp"

namespace {

void BM_FaultPairEnumeration(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  tt::tta::ClusterConfig cfg;
  cfg.n = 4;
  cfg.faulty_node = 1;
  cfg.fault_degree = degree;
  const tt::tta::FaultyNodeOutputs outputs(cfg);
  for (auto _ : state) {
    std::size_t total = 0;
    for (const auto& p : outputs.pairs(0)) {
      total += static_cast<std::size_t>(p.first.kind) + static_cast<std::size_t>(p.second.kind);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_FaultPairEnumeration)->DenseRange(1, 6);

void print_table(tt::BenchReport& report) {
  std::printf("\n=== Figure 3: fault-degree dial (n = 4, faulty node 1) ===\n");
  std::printf("matrix rule: pair (a, b) admitted iff max(rank a, rank b) <= degree\n");
  tt::TextTable t({"degree", "per-channel kinds", "channel options", "output pairs"});
  const char* kinds[] = {"quiet",
                         "+ cs(good)",
                         "+ i(good)",
                         "+ noise",
                         "+ cs(bad)",
                         "+ i(bad)"};
  for (int d = 1; d <= 6; ++d) {
    tt::tta::ClusterConfig cfg;
    cfg.n = 4;
    cfg.faulty_node = 1;
    cfg.fault_degree = d;
    tt::Timer timer;
    const tt::tta::FaultyNodeOutputs outputs(cfg);
    const double build_seconds = timer.seconds();
    const auto opts = tt::tta::FaultyNodeOutputs::channel_options(cfg.n, 1, d);
    t.add_row({std::to_string(d), kinds[d - 1], std::to_string(opts.size()),
               std::to_string(outputs.pairs(0).size())});
    // The "transitions" column carries the admitted output-pair count — the
    // per-step fault-injection branching factor the dial controls.
    tt::BenchRecord rec;
    rec.experiment = "fig3/degree" + std::to_string(d);
    rec.engine = "dial";
    rec.stats.transitions = outputs.pairs(0).size();
    rec.stats.seconds = build_seconds;
    rec.verdict = "pairs=" + std::to_string(outputs.pairs(0).size());
    report.add(rec);
  }
  std::printf("%s", t.render().c_str());
  std::printf("(paper counts kinds, 6x6 = 36 combinations; ours also enumerates the\n"
              " concrete lied-about time values, hence (2n+3)^2 pairs at degree 6)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tt::BenchReport report("bench_fig3_fault_degrees");
  print_table(report);
  report.write();
  return 0;
}
