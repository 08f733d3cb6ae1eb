// EXP-F6: reproduces paper Figure 6 — "Performance Results for Model
// Checking the Lemmas" — exhaustive fault simulation (fault degree 6) of
// Lemmas 1-3 with a faulty node, and of Lemma safety_2 with a faulty hub,
// for cluster sizes 3, 4 and 5 (feedback on).
//
// Paper columns: eval / cpu time / #BDD variables. Our explicit-state
// analogue of the BDD-variable column is the packed state width in bits;
// we additionally report reachable states and transitions. Shape to
// reproduce: every lemma evaluates to true, cost grows steeply with n,
// liveness is the most expensive lemma.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_record.hpp"
#include "core/scenario_math.hpp"
#include "core/verifier.hpp"
#include "obs/obs.hpp"
#include "support/bench_report.hpp"
#include "support/one_core_probe.hpp"
#include "support/table.hpp"
#include "tta/cluster.hpp"

namespace {

using tt::mc::EngineKind;
using tt::mc::ReductionKind;

// TTSTART_BENCH_QUICK=1 trims the sweep to the sizes CI can afford (the
// bench-smoke job): n <= 4 and no n = 5 hub run, keeping every experiment
// slug exercised so the JSON schema check still covers the full shape.
bool quick_mode() {
  const char* env = std::getenv("TTSTART_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

tt::tta::ClusterConfig fig6_node_config(int n) {
  tt::tta::ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.feedback = true;
  // Scaled wake-up window (paper: 8 rounds; see DESIGN.md §6). One round
  // keeps the n = 5 exhaustive runs within bench time.
  cfg.init_window = n;
  cfg.hub_init_window = n;
  return cfg;
}

tt::tta::ClusterConfig fig6_hub_config(int n) {
  auto cfg = fig6_node_config(n);
  cfg.faulty_node = tt::tta::ClusterConfig::kNone;
  cfg.faulty_hub = 0;
  cfg.hub_init_window = 1;  // guardians power up first (§5.2 / §5.4)
  cfg.timeliness_bound = 8 * n;
  return cfg;
}

void BM_Fig6Lemma(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int lemma_id = static_cast<int>(state.range(1));
  tt::tta::ClusterConfig cfg;
  tt::core::Lemma lemma;
  switch (lemma_id) {
    case 0:
      cfg = fig6_node_config(n);
      lemma = tt::core::Lemma::kSafety;
      break;
    case 1:
      cfg = fig6_node_config(n);
      lemma = tt::core::Lemma::kLiveness;
      break;
    case 2:
      cfg = fig6_node_config(n);
      cfg.timeliness_bound = 8 * n;
      lemma = tt::core::Lemma::kTimeliness;
      break;
    default:
      cfg = fig6_hub_config(n);
      lemma = tt::core::Lemma::kSafety2;
      break;
  }
  for (auto _ : state) {
    auto r = tt::core::verify(cfg, lemma);
    if (!r.holds) state.SkipWithError("lemma unexpectedly violated");
    state.counters["states"] = static_cast<double>(r.stats.states);
  }
}
BENCHMARK(BM_Fig6Lemma)
    ->ArgsProduct({{3, 4}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.01);

struct PaperRow {
  double cpu;
  int bdd_vars;
};

const char* lemma_slug(tt::core::Lemma lemma) {
  switch (lemma) {
    case tt::core::Lemma::kSafety: return "safety";
    case tt::core::Lemma::kLiveness: return "liveness";
    case tt::core::Lemma::kTimeliness: return "timeliness";
    default: return "safety2";
  }
}

// The frontier engine's thread counts in the engine comparisons: 1, 2, 4 and
// the hardware count `hw` (deduplicated). A `threads = hw` row measured on a
// runner that may effectively have one CPU cannot show a parallel speedup,
// so it is flagged `possibly_one_core` by the shared runtime probe (affinity
// mask + cgroup quota, not just hardware_concurrency), as in every bench.
std::vector<int> comparison_thread_counts(int hw) {
  std::vector<int> counts = {1, 2, 4};
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) counts.push_back(hw);
  return counts;
}

// An engine-comparison table row: engine, threads, eval, states,
// transitions, seconds, states/sec.
std::vector<std::string> engine_row(const char* engine, const tt::core::VerificationResult& r) {
  return {engine, std::to_string(r.stats.threads), r.holds ? "true" : "FALSE",
          std::to_string(r.stats.states), std::to_string(r.stats.transitions),
          tt::strfmt("%.2f", r.stats.seconds), tt::strfmt("%.0f", r.stats.states_per_sec())};
}

// The engine-comparison experiment: the exhaustive degree-6 safety run
// (feedback on) with `seq` (the frontier engine at one thread), the
// symbolic BDD-set engine, and the frontier engine at 1, 2, 4 and
// hardware-concurrency threads (deduplicated — on a 4-core machine the hw
// point coincides with 4). Verdict and state count must be identical; the
// JSON records carry states/sec for the perf trajectory, with `threads`
// taken from the engine's resolved count, and the symbolic row adds the
// bdd section's columns.
void engine_comparison(tt::BenchReport& report, int n) {
  std::printf("\n=== engine comparison: safety, n = %d, degree 6, feedback on ===\n", n);
  tt::TextTable t({"engine", "threads", "eval", "states", "transitions", "seconds",
                   "states/sec"});
  auto cfg = fig6_node_config(n);
  const std::string slug = tt::strfmt("fig6/engine_compare/safety_n%d", n);

  const auto seq = tt::verify_on(cfg, tt::core::Lemma::kSafety, EngineKind::kSequential);
  report.add(tt::record_of(slug, seq));
  t.add_row(engine_row("seq", seq));

  const auto sym = tt::verify_on(cfg, tt::core::Lemma::kSafety, EngineKind::kSymbolic);
  report.add(tt::record_of(slug, sym));
  t.add_row(engine_row("sym", sym));
  if (sym.holds != seq.holds || sym.stats.states != seq.stats.states) {
    std::printf("!! symbolic/sequential engine disagreement\n");
  }

  const int hw = tt::mc::resolve_threads(0);
  for (int threads : comparison_thread_counts(hw)) {
    const auto par = tt::verify_on(cfg, tt::core::Lemma::kSafety, EngineKind::kParallel, threads);
    auto rec = tt::record_of(slug, par);
    if (threads == hw) rec.possibly_one_core = tt::probe_possibly_one_core();
    report.add(std::move(rec));
    const bool agrees = par.holds == seq.holds && par.stats.states == seq.stats.states;
    t.add_row(engine_row("par", par));
    if (!agrees) std::printf("!! engine disagreement at %d threads\n", threads);
  }
  std::printf("%s", t.render().c_str());
  std::printf("(identical verdict and state count required at every thread count;\n"
              " speedup scales with available cores.)\n");
}

// The liveness engine-comparison experiment: the exhaustive degree-6
// liveness run (goal-free cycle detection) with the sequential nested-DFS
// lasso search, the symbolic EG(!goal) fixpoint, and the parallel OWCTY
// engine at 1, 2, 4 and hardware-concurrency threads. All engines must
// agree on the verdict; seq and par additionally agree exactly on the
// goal-free state/transition counts, and the par rows carry the owcty
// section's columns (residue_states 0 on these HOLDS cells —
// every goal-free state trims away). The symbolic row is restricted to
// n <= 4: its partitioned transition relation scales with goal-free
// *edges*, and the n = 5 cell has ~8M of them.
void engine_comparison_liveness(tt::BenchReport& report, int n) {
  std::printf("\n=== engine comparison: liveness, n = %d, degree 6, feedback on ===\n", n);
  tt::TextTable t({"engine", "threads", "eval", "states", "transitions", "seconds",
                   "states/sec", "trim rounds", "residue"});
  auto cfg = fig6_node_config(n);
  const std::string slug = tt::strfmt("fig6/engine_compare/liveness_n%d", n);
  const auto lemma = tt::core::Lemma::kLiveness;

  const auto seq = tt::verify_on(cfg, lemma, EngineKind::kSequential);
  report.add(tt::record_of(slug, seq));
  auto seq_row = engine_row("seq", seq);
  seq_row.insert(seq_row.end(), {"-", "-"});
  t.add_row(seq_row);

  if (n <= 4) {
    const auto sym = tt::verify_on(cfg, lemma, EngineKind::kSymbolic);
    report.add(tt::record_of(slug, sym));
    auto sym_row = engine_row("sym", sym);
    sym_row.insert(sym_row.end(), {"-", "-"});
    t.add_row(sym_row);
    if (sym.holds != seq.holds) std::printf("!! symbolic/sequential engine disagreement\n");
  }

  const int hw = tt::mc::resolve_threads(0);
  for (int threads : comparison_thread_counts(hw)) {
    const auto par = tt::verify_on(cfg, lemma, EngineKind::kParallel, threads);
    auto rec = tt::record_of(slug, par);
    if (threads == hw) rec.possibly_one_core = tt::probe_possibly_one_core();
    report.add(std::move(rec));
    const bool agrees = par.holds == seq.holds && par.stats.states == seq.stats.states &&
                        par.stats.transitions == seq.stats.transitions;
    auto par_row = engine_row("par", par);
    par_row.insert(par_row.end(), {std::to_string(par.stats.trim_rounds),
                                   std::to_string(par.stats.residue_states)});
    t.add_row(par_row);
    if (!agrees) std::printf("!! engine disagreement at %d threads\n", threads);
  }
  std::printf("%s", t.render().c_str());
  std::printf("(identical verdict required on every engine; seq and par agree exactly\n"
              " on goal-free state/transition counts; speedup scales with cores.)\n");
}

// EXP-OBS: the observability layer's overhead budgets (DESIGN.md §3.5).
//
// The <2% disabled-tracing budget itself was established by an interleaved
// A/B measurement — the pre-observability commit rebuilt on this machine
// and alternated with the instrumented binary, 45 reps per side; the
// minima (EXPERIMENTS.md "observability overhead") put the instrumented
// binary *faster* than the baseline, i.e. the overhead is indistinguishable
// from zero. The stored `baseline_pre_pr` rows are the minima of that
// protocol. A single bench session cannot resolve 2% on a shared container
// (observed min-of-3 spread on the n = 5 cell is >20%), so the gates here
// are regression tripwires with noise-aware bounds, not the budget itself:
//
// Full mode: min-of-9 untraced run of fig6/safety/n5 vs the stored
// baseline, tripwire at +25% (outside the measured noise envelope — a real
// per-transition instrumentation point would cost far more than that).
//
// Quick mode (CI): no stored anchor is meaningful on an arbitrary runner,
// so the comparison is relative and in-process — untraced vs. traced runs
// of the n = 4 cell in this binary, tripwire at +50%. Enabled tracing is
// allowed headroom (it really does record events); the bound still catches
// a span accidentally moved into the per-transition path. CI therefore
// does NOT verify the <2% disabled-tracing budget — the warning below says
// so on every quick run.
bool tracing_overhead(tt::BenchReport& report) {
  const int n = quick_mode() ? 4 : 5;
  std::printf("\n=== tracing-disabled overhead: safety, n = %d, degree 6 ===\n", n);
  const auto cfg = fig6_node_config(n);
  auto min_of = [&](int reps, tt::core::VerificationResult& out) {
    double best = -1.0;
    for (int rep = 0; rep < reps; ++rep) {
      out = tt::verify_on(cfg, tt::core::Lemma::kSafety, EngineKind::kSequential);
      if (best < 0 || out.stats.seconds < best) best = out.stats.seconds;
    }
    return best;
  };
  tt::core::VerificationResult r;
  const int reps = quick_mode() ? 3 : 9;
  const double best = min_of(reps, r);
  auto rec = tt::record_of(tt::strfmt("fig6/tracing_overhead/n%d", n), r);
  rec.stats.seconds = best;
  report.add(rec);
  std::printf("seq, tracing compiled in but disabled: %.3fs (min of %d)\n", best, reps);

  if (quick_mode()) {
    std::printf("!! quick mode: the <2%% disabled-tracing budget is NOT verified here\n"
                "   (it needs the same-machine interleaved A/B protocol; see\n"
                "   EXPERIMENTS.md). Running the relative traced-vs-untraced\n"
                "   tripwire instead:\n");
    tt::core::VerificationResult traced;
    tt::obs::Tracer tracer;
    tracer.install();
    const double traced_best = min_of(reps, traced);
    tracer.uninstall();
    std::printf("seq, tracer installed: %.3fs (min of %d), %zu event(s) recorded\n",
                traced_best, reps, tracer.event_count());
    if (traced.holds != r.holds || traced.stats.states != r.stats.states) {
      std::printf("!! tracing changed the verdict or state count\n");
      return false;
    }
    const double ratio = traced_best / best;
    std::printf("enabled-tracing overhead: %+.1f%% (tripwire at +50%%)\n",
                (ratio - 1.0) * 100.0);
    if (ratio > 1.5) {
      std::printf("!! enabled-tracing overhead exceeds the tripwire — an\n"
                  "   instrumentation point likely moved into a hot loop\n");
      return false;
    }
    return true;
  }

  const double baseline =
      tt::read_report_seconds("baseline_pre_pr", "fig6/safety/n5", "seq");
  if (baseline <= 0) {
    std::printf("!! no baseline_pre_pr fig6/safety/n5 seq row in the report file —\n"
                "   the disabled-tracing tripwire was NOT checked by this run\n");
    return true;
  }
  const double ratio = best / baseline;
  std::printf("baseline_pre_pr: %.3fs  ->  delta %+.1f%% (tripwire at +25%%;\n"
              " the <2%% budget itself comes from the interleaved A/B protocol,\n"
              " see EXPERIMENTS.md — single-session deltas include machine noise)\n",
              baseline, (ratio - 1.0) * 100.0);
  if (ratio > 1.25) {
    std::printf("!! untraced runtime regressed past the noise envelope vs the\n"
                "   pre-observability baseline\n");
    return false;
  }
  return true;
}

void print_table(tt::BenchReport& report) {
  // Paper Fig. 6 (a)-(d): cpu seconds and BDD variables for n = 3, 4, 5.
  const PaperRow paper_safety[3] = {{62.45, 248}, {259.53, 316}, {920.74, 422}};
  const PaperRow paper_liveness[3] = {{228.03, 250}, {1242.73, 318}, {41264.08, 424}};
  const PaperRow paper_timeliness[3] = {{47.81, 268}, {907.61, 336}, {4480.90, 442}};
  const PaperRow paper_safety2[3] = {{56.65, 272}, {82.95, 348}, {4289.77, 462}};

  std::printf("\n=== Figure 6: exhaustive fault simulation (degree 6, feedback on) ===\n");
  tt::TextTable t({"lemma", "n", "eval", "measured s", "states", "transitions", "state bits",
                   "orbit states", "sym s", "s+p states", "s+p s", "trans ratio", "paper s",
                   "paper BDD vars"});
  struct Entry {
    tt::core::Lemma lemma;
    const PaperRow* paper;
    bool hub;
  };
  const Entry entries[] = {
      {tt::core::Lemma::kSafety, paper_safety, false},
      {tt::core::Lemma::kLiveness, paper_liveness, false},
      {tt::core::Lemma::kTimeliness, paper_timeliness, false},
      {tt::core::Lemma::kSafety2, paper_safety2, true},
  };
  const int max_n = quick_mode() ? 4 : 5;
  for (const Entry& e : entries) {
    for (int n = 3; n <= max_n; ++n) {
      auto cfg = e.hub ? fig6_hub_config(n) : fig6_node_config(n);
      if (e.lemma == tt::core::Lemma::kTimeliness) cfg.timeliness_bound = 8 * n;
      const std::string slug = tt::strfmt("fig6/%s/n%d", lemma_slug(e.lemma), n);
      const auto r = tt::core::verify(cfg, e.lemma);
      report.add(tt::with_reduction(tt::record_of(slug, r), ReductionKind::kNone, 0));
      // The paired symmetry-quotient run of the same cell: same lemma, same
      // default engine, the reduced state graph underneath. Verdicts must
      // agree (the quotient is verdict-preserving; tested in
      // tests/core/reduction_equivalence_test.cpp).
      const auto q = tt::verify_reduced(cfg, e.lemma, ReductionKind::kSymmetry);
      report.add(tt::with_reduction(tt::record_of(slug, q), ReductionKind::kSymmetry,
                                    r.stats.states));
      if (q.holds != r.holds) std::printf("!! reduced/unreduced verdict disagreement\n");
      // And the sym+por run: the ample-set clamp over the orbit quotient
      // (DESIGN.md §3.8), the mode the frontier cells below depend on.
      const auto sp = tt::verify_reduced(cfg, e.lemma, ReductionKind::kSymPor);
      report.add(tt::with_reduction(tt::record_of(slug, sp), ReductionKind::kSymPor,
                                    r.stats.states));
      if (sp.holds != r.holds) std::printf("!! sym+por/unreduced verdict disagreement\n");
      // One clamp-only row (--reduction por) on the cheapest cell, so the
      // JSON separates what the clamp buys alone from what the composition
      // buys, and CI's --require-reduction sym,por,sym+por stays honest.
      if (e.lemma == tt::core::Lemma::kSafety && n == 3) {
        const auto p = tt::verify_reduced(cfg, e.lemma, ReductionKind::kPartialOrder);
        report.add(tt::with_reduction(tt::record_of(slug, p), ReductionKind::kPartialOrder,
                                      r.stats.states));
        if (p.holds != r.holds) std::printf("!! por/unreduced verdict disagreement\n");
      }
      const tt::tta::Cluster cluster(tt::core::prepare_config(cfg, e.lemma));
      const double trans_ratio =
          q.stats.transitions > 0
              ? static_cast<double>(r.stats.transitions) /
                    static_cast<double>(q.stats.transitions)
              : 0.0;
      t.add_row({tt::core::to_string(e.lemma), std::to_string(n),
                 r.holds ? "true" : "FALSE", tt::strfmt("%.2f", r.stats.seconds),
                 std::to_string(r.stats.states), std::to_string(r.stats.transitions),
                 std::to_string(cluster.state_bits()),
                 std::to_string(q.stats.states), tt::strfmt("%.2f", q.stats.seconds),
                 std::to_string(sp.stats.states), tt::strfmt("%.2f", sp.stats.seconds),
                 tt::strfmt("%.1fx", trans_ratio),
                 tt::strfmt("%.2f", e.paper[n - 3].cpu),
                 std::to_string(e.paper[n - 3].bdd_vars)});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("(shape: every lemma true; cost grows steeply with n; liveness most\n"
              " expensive — matching the paper. Absolute times differ: explicit-state\n"
              " engine, scaled wake-up window, 2026 hardware. The orbit-states/sym\n"
              " columns are the --reduction sym quotient of the same cell: identical\n"
              " verdict, ~1.5x fewer stored states, >=10x fewer transitions at n = 5;\n"
              " see DESIGN.md §3.6 for why the state ratio is the smaller number. The\n"
              " s+p columns add the ample-set clamp on top — DESIGN.md §3.8; on the\n"
              " faulty-hub safety_2 cells the clamp certificate is inadmissible, so\n"
              " s+p degrades to sym there by design.)\n\n");
}

// The n = 6 frontier cell: out of reach for the unreduced engine in earlier
// PRs' budgets, first completed by the symmetry quotient (2.9 s vs 34.5 s
// unreduced, 15.7x fewer transitions). The ample-set clamp shrinks the
// quotient a further ~7x in stored states (DESIGN.md §3.8). Full mode runs
// all three directions so the JSON carries the honest triple; quick mode
// (CI) skips the cell entirely.
void fig6_n6(tt::BenchReport& report) {
  std::printf("\n=== Figure 6 frontier: safety, n = 6, degree 6, feedback on ===\n");
  auto cfg = fig6_node_config(6);
  const std::string slug = "fig6/safety/n6";

  const auto sp = tt::verify_reduced(cfg, tt::core::Lemma::kSafety, ReductionKind::kSymPor);
  std::printf("sym+por:      eval=%s states=%zu transitions=%zu seconds=%.2f\n",
              sp.holds ? "true" : "FALSE", sp.stats.states, sp.stats.transitions,
              sp.stats.seconds);

  const auto q = tt::verify_reduced(cfg, tt::core::Lemma::kSafety, ReductionKind::kSymmetry);
  std::printf("sym quotient: eval=%s states=%zu transitions=%zu seconds=%.2f\n",
              q.holds ? "true" : "FALSE", q.stats.states, q.stats.transitions,
              q.stats.seconds);

  const auto r = tt::core::verify(cfg, tt::core::Lemma::kSafety);
  std::printf("unreduced:    eval=%s states=%zu transitions=%zu seconds=%.2f\n",
              r.holds ? "true" : "FALSE", r.stats.states, r.stats.transitions,
              r.stats.seconds);
  if (q.holds != r.holds || sp.holds != r.holds) {
    std::printf("!! reduced/unreduced verdict disagreement\n");
  }
  if (q.stats.states > 0 && sp.stats.states > 0) {
    std::printf("clamp over sym: %.2fx fewer stored states\n",
                static_cast<double>(q.stats.states) / static_cast<double>(sp.stats.states));
  }

  report.add(tt::with_reduction(tt::record_of(slug, r), ReductionKind::kNone, 0));
  report.add(tt::with_reduction(tt::record_of(slug, q), ReductionKind::kSymmetry, r.stats.states));
  report.add(tt::with_reduction(tt::record_of(slug, sp), ReductionKind::kSymPor, r.stats.states));
}

// The n = 7 frontier cell: first completed here, by the composed sym+por
// reduction only — no unreduced or sym-only baseline fits a bench session at
// this size (the sym-only n = 6 quotient already stores 7x the states the
// clamped one does, and each +1 in n is ~15x in transitions), so the record
// intentionally carries no reduction_ratio. The n = 6 liveness cell rides
// along: the first lasso-engine completion beyond n = 5.
void fig6_frontier_sympor(tt::BenchReport& report) {
  std::printf("\n=== Figure 6 frontier (sym+por only) ===\n");
  struct Cell {
    const char* label;
    const char* experiment;
    int n;
    tt::core::Lemma lemma;
  };
  for (const Cell& c : {Cell{"safety n=7:  ", "fig6/safety/n7", 7, tt::core::Lemma::kSafety},
                        Cell{"liveness n=6:", "fig6/liveness/n6", 6, tt::core::Lemma::kLiveness},
                        Cell{"timeliness n=6:", "fig6/timeliness/n6", 6,
                             tt::core::Lemma::kTimeliness}}) {
    auto cfg = fig6_node_config(c.n);
    if (c.lemma == tt::core::Lemma::kTimeliness) cfg.timeliness_bound = 8 * c.n;
    const auto r = tt::verify_reduced(cfg, c.lemma, ReductionKind::kSymPor);
    std::printf("%s eval=%s states=%zu transitions=%zu seconds=%.2f\n", c.label,
                r.holds ? "true" : "FALSE", r.stats.states, r.stats.transitions,
                r.stats.seconds);
    report.add(tt::with_reduction(tt::record_of(c.experiment, r), ReductionKind::kSymPor, 0));
  }
  // The fourth lemma, safety_2, is the faulty-*hub* scenario: the clamp's
  // admissibility gate is closed from slot 0 there (sym+por == sym by
  // design, see print_table), and the sym-only n = 6 hub cell extrapolates
  // past 10 M stored states — outside a bench session. Not silently capped:
  // stated here.
  std::printf("(safety_2 n=6 not attempted: sym+por degrades to sym on "
              "faulty-hub cells\n and the sym-only cell is out of bench "
              "budget; see EXPERIMENTS.md.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Obs flags come out of argv before GoogleBenchmark sees the rest.
  tt::obs::ObsOptions obs_opts;
  if (!tt::obs::parse_obs_args(argc, argv, obs_opts)) return 2;
  tt::obs::ScopedObservability obs_session(obs_opts);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tt::BenchReport report("bench_fig6_exhaustive");
  print_table(report);
  engine_comparison(report, 4);
  engine_comparison_liveness(report, 4);
  if (!quick_mode()) {
    engine_comparison(report, 5);
    engine_comparison_liveness(report, 5);
    fig6_n6(report);
    fig6_frontier_sympor(report);
  }
  // The overhead gate must measure an untraced run: it only applies when no
  // tracer is installed for this process.
  bool overhead_ok = true;
  if (obs_opts.trace_out.empty()) overhead_ok = tracing_overhead(report);
  report.write();
  return overhead_ok ? 0 : 1;
}
