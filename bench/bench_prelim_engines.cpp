// EXP-PRE: reproduces the paper's §3 preliminary study — the original
// node-only bus-topology startup algorithm ([12]) model-checked with the
// explicit-state engine versus the symbolic (BDD) engine, plus our
// SAT-based bounded model checker on a violated variant.
//
// Paper narrative:
//   * explicit-state: 30 s for 4 nodes, >13 min for 5 nodes
//   * SAL 2.0 symbolic: 0.38 s / 0.62 s on the same models —
//     "two or three orders of magnitude improvement"
//   * largest preliminary model: 41,322 reachable states
//
// Our engines run on one and the same kernel::System; the cross-checked
// reachable-state counts demonstrate they explore the same model. The
// "shape" to reproduce is that both engines agree exactly and the symbolic
// engine's advantage grows with model size (it reports the set, not the
// enumeration), while BMC shines on shallow violations.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bdd/symbolic.hpp"
#include "bmc/encoder.hpp"
#include "kernel/packed_system.hpp"
#include "kernel/ttalite.hpp"
#include "mc/liveness.hpp"
#include "mc/reachability.hpp"
#include "mc/symbolic_liveness.hpp"
#include "support/bench_report.hpp"
#include "support/table.hpp"

namespace {

bool quick_mode() {
  const char* env = std::getenv("TTSTART_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

tt::kernel::TtaLiteConfig prelim_cfg(int n, int degree) {
  tt::kernel::TtaLiteConfig cfg;
  cfg.n = n;
  cfg.init_window = 8;  // wide wake-up window: tens of thousands of states
  cfg.faulty_node = 0;
  cfg.fault_degree = degree;
  return cfg;
}

void BM_ExplicitReachability(benchmark::State& state) {
  tt::kernel::TtaLite model(prelim_cfg(static_cast<int>(state.range(0)), 1));
  const tt::kernel::PackedSystem ps(model.system());
  for (auto _ : state) {
    auto stats = tt::mc::count_reachable(ps);
    state.counters["states"] = static_cast<double>(stats.states);
  }
}
BENCHMARK(BM_ExplicitReachability)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SymbolicReachability(benchmark::State& state) {
  tt::kernel::TtaLite model(prelim_cfg(static_cast<int>(state.range(0)), 1));
  for (auto _ : state) {
    tt::bdd::SymbolicEngine engine(model.system());
    auto r = engine.count_reachable();
    state.counters["states"] = r.reachable_states;
  }
}
BENCHMARK(BM_SymbolicReachability)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SatBmcCounterexample(benchmark::State& state) {
  // Degree 2 (babbling node) violates safety on the guardian-less bus; BMC
  // digs out the minimal counterexample.
  tt::kernel::TtaLite model(prelim_cfg(static_cast<int>(state.range(0)), 2));
  const auto property = model.safety_expr();
  for (auto _ : state) {
    auto r = tt::bmc::check_invariant_bounded(model.system(), property, 30);
    if (!r.violation_found) state.SkipWithError("expected a violation");
    state.counters["depth"] = r.depth;
  }
}
BENCHMARK(BM_SatBmcCounterexample)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void print_table(tt::BenchReport& report) {
  std::printf("\n=== §3 preliminary study: engines on the TTA-lite ([12]) model ===\n");
  tt::TextTable t({"n", "degree", "engine", "verdict", "states", "time s"});
  const int max_n = quick_mode() ? 4 : 5;
  for (int n = 3; n <= max_n; ++n) {
    // Fail-silent runs carry the safety lemma; degree-3 runs show the model
    // at the paper's preliminary scale (tens of thousands of states).
    tt::kernel::TtaLite model(prelim_cfg(n, 3));

    const tt::kernel::PackedSystem ps(model.system());
    auto explicit_r = tt::mc::count_reachable(ps);
    t.add_row({std::to_string(n), "3", "explicit BFS", "count",
               std::to_string(explicit_r.states), tt::strfmt("%.3f", explicit_r.seconds)});
    {
      tt::BenchRecord rec;
      rec.experiment = tt::strfmt("prelim/deg3/n%d", n);
      rec.engine = "seq";
      rec.verdict = "count";
      rec.stats = explicit_r;
      report.add(rec);
    }

    tt::kernel::TtaLite model2(prelim_cfg(n, 3));
    tt::bdd::SymbolicEngine engine(model2.system());
    auto sym = engine.count_reachable();
    t.add_row({std::to_string(n), "3", "symbolic BDD", "count",
               sym.reachable_exact.to_decimal(), tt::strfmt("%.3f", sym.seconds)});
    {
      tt::BenchRecord rec;
      rec.experiment = tt::strfmt("prelim/deg3/n%d", n);
      rec.engine = "sym";
      rec.verdict = "count";
      rec.stats.states = sym.reachable_exact.fits_u64()
                             ? static_cast<std::size_t>(sym.reachable_exact.to_u64())
                             : static_cast<std::size_t>(sym.reachable_states);
      rec.stats.seconds = sym.seconds;
      // The kernel-level BDD engine reports in its own result type.
      rec.stats.bdd_peak_live_nodes = sym.peak_nodes;
      rec.stats.bdd_gc_collections = sym.gc_collections;
      rec.stats.bdd_unique_hit_rate = sym.unique_hit_rate;
      rec.stats.bdd_op_cache_hit_rate = sym.op_cache_hit_rate;
      rec.stats.bdd_iterations = sym.iterations;
      rec.stats.mark(tt::mc::Section::kBdd);
      report.add(rec);
    }

    // Liveness on the same degree-3 model, sequential lasso search versus
    // the symbolic EG(!goal) fixpoint — the engine pair the tentpole adds.
    // The goal is Lemma 2's "all correct nodes active"; the engines must
    // agree on the verdict (no seq fallback for sym liveness any more).
    auto goal = [&](const tt::kernel::PackedSystem::State& s) {
      return model.all_correct_active(ps.unpack(s));
    };
    const auto live_seq = tt::mc::check_eventually(ps, goal);
    t.add_row({std::to_string(n), "3", "seq lasso",
               tt::mc::to_string(live_seq.verdict), std::to_string(live_seq.stats.states),
               tt::strfmt("%.3f", live_seq.stats.seconds)});
    {
      tt::BenchRecord rec;
      rec.experiment = tt::strfmt("prelim/liveness_deg3/n%d", n);
      rec.engine = "seq";
      rec.verdict = tt::mc::to_string(live_seq.verdict);
      rec.stats = live_seq.stats;
      report.add(rec);
    }
    const auto live_sym = tt::mc::check_eventually_symbolic(ps, goal);
    t.add_row({std::to_string(n), "3", "sym EG",
               tt::mc::to_string(live_sym.verdict), std::to_string(live_sym.stats.states),
               tt::strfmt("%.3f", live_sym.stats.seconds)});
    {
      tt::BenchRecord rec;
      rec.experiment = tt::strfmt("prelim/liveness_deg3/n%d", n);
      rec.engine = "sym";
      rec.verdict = tt::mc::to_string(live_sym.verdict);
      rec.stats = live_sym.stats;
      report.add(rec);
    }
    if (live_sym.verdict != live_seq.verdict) {
      std::printf("!! symbolic/sequential liveness disagreement at n = %d\n", n);
    }

    tt::kernel::TtaLite model_safe(prelim_cfg(n, 1));
    const tt::kernel::PackedSystem ps_safe(model_safe.system());
    auto safety_r =
        tt::mc::check_invariant(ps_safe, [&](const tt::kernel::PackedSystem::State& s) {
          return model_safe.safety(ps_safe.unpack(s));
        });
    t.add_row({std::to_string(n), "1", "explicit BFS",
               safety_r.verdict == tt::mc::Verdict::kHolds ? "holds" : "VIOLATED",
               std::to_string(safety_r.stats.states),
               tt::strfmt("%.3f", safety_r.stats.seconds)});
    {
      tt::BenchRecord rec;
      rec.experiment = tt::strfmt("prelim/safety_deg1/n%d", n);
      rec.engine = "seq";
      rec.verdict = safety_r.verdict == tt::mc::Verdict::kHolds ? "holds" : "VIOLATED";
      rec.stats = safety_r.stats;
      report.add(rec);
    }

    tt::kernel::TtaLite model3(prelim_cfg(n, 2));
    auto bmc = tt::bmc::check_invariant_bounded(model3.system(), model3.safety_expr(), 30);
    t.add_row({std::to_string(n), "2", "SAT BMC",
               bmc.violation_found ? tt::strfmt("VIOLATED@%d", bmc.depth) : "no cex",
               "-", tt::strfmt("%.3f", bmc.seconds)});
    {
      tt::BenchRecord rec;
      rec.experiment = tt::strfmt("prelim/bmc_deg2/n%d", n);
      rec.engine = "sat";
      rec.stats.seconds = bmc.seconds;
      rec.verdict =
          bmc.violation_found ? tt::strfmt("VIOLATED@%d", bmc.depth) : std::string("no cex");
      report.add(rec);
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "(paper: explicit 30 s vs symbolic 0.38 s on 4 nodes, 41,322 reachable\n"
      " states in the largest preliminary model. Shape: both engines agree\n"
      " exactly on the reachable count; the babbling-node violation that\n"
      " motivates the guardians is found by BMC at a shallow depth.)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tt::BenchReport report("bench_prelim_engines");
  print_table(report);
  report.write();
  return 0;
}
