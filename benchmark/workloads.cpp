#include "workloads.hpp"

#include <map>
#include <stdexcept>

namespace ttbench {

namespace {

using tt::core::Lemma;
using tt::mc::EngineKind;
using tt::mc::ReductionKind;
using tt::tta::ClusterConfig;

// Fig. 6 configurations, as in bench/bench_fig6_exhaustive.cpp: exhaustive
// fault simulation (degree 6), feedback on, the wake-up window scaled to
// one round.
ClusterConfig fig6_node(int n, int faulty_node, Lemma lemma) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = faulty_node;
  cfg.fault_degree = 6;
  cfg.feedback = true;
  cfg.init_window = n;
  cfg.hub_init_window = n;
  if (lemma == Lemma::kTimeliness) cfg.timeliness_bound = 8 * n;
  return tt::core::prepare_config(cfg, lemma);
}

// The faulty-hub cell stays at hub 0, the paper's configuration.
ClusterConfig fig6_hub(int n) {
  ClusterConfig cfg = fig6_node(n, ClusterConfig::kNone, Lemma::kSafety);
  cfg.faulty_hub = 0;
  cfg.hub_init_window = 1;
  cfg.timeliness_bound = 8 * n;
  return tt::core::prepare_config(cfg, Lemma::kSafety2);
}

std::string golden_key(Lemma lemma, const ClusterConfig& cfg, ReductionKind reduction) {
  std::string key;
  if (reduction != ReductionKind::kNone) key = std::string(tt::mc::to_string(reduction)) + "/";
  key += tt::core::to_string(lemma);
  key += "/n" + std::to_string(cfg.n);
  key += cfg.faulty_hub != ClusterConfig::kNone ? "/hub" + std::to_string(cfg.faulty_hub)
                                                 : "/node" + std::to_string(cfg.faulty_node);
  return key;
}

// Whether golden recording can afford the unreduced run a reduced cell is
// bounded by. Beyond this the reduced cell is bounded by its own recorded
// count instead (n = 6 liveness and timeliness, n = 7 safety).
bool unreduced_affordable(Lemma lemma, int n) {
  return n <= 5 || (n == 6 && lemma == Lemma::kSafety);
}

Cell state_cell(std::string name, Lemma lemma, const ClusterConfig& cfg, EngineKind engine,
                int threads, ReductionKind reduction = ReductionKind::kNone) {
  Cell c;
  c.name = std::move(name);
  c.lemma = lemma;
  c.cfg = cfg;
  c.opts.engine = engine;
  c.opts.threads = threads;
  c.opts.reduction = reduction;
  c.replay = tt::core::is_invariant_lemma(lemma);
  if (reduction == ReductionKind::kNone || unreduced_affordable(lemma, cfg.n)) {
    c.golden_key = golden_key(lemma, cfg, ReductionKind::kNone);
  } else {
    c.golden_key = golden_key(lemma, cfg, reduction);
    c.golden_reduction = reduction;
  }
  return c;
}

std::vector<Cell> explicit_lookup(bool quick, int threads, const PickNode& pick) {
  const int n = quick ? 4 : 5;
  const int safety_node = pick(n);  // shared by par and par1, so they are comparable
  const int liveness_node = pick(n);
  const int timeliness_node = pick(n);
  const std::string sz = "/n" + std::to_string(n);
  return {
      state_cell("safety" + sz + "/par", Lemma::kSafety, fig6_node(n, safety_node, Lemma::kSafety),
                 EngineKind::kParallel, threads),
      state_cell("liveness" + sz + "/par", Lemma::kLiveness,
                 fig6_node(n, liveness_node, Lemma::kLiveness), EngineKind::kParallel, threads),
      state_cell("timeliness" + sz + "/par", Lemma::kTimeliness,
                 fig6_node(n, timeliness_node, Lemma::kTimeliness), EngineKind::kParallel,
                 threads),
      state_cell("safety" + sz + "/par1", Lemma::kSafety,
                 fig6_node(n, safety_node, Lemma::kSafety), EngineKind::kParallel, 1),
  };
}

std::vector<Cell> explicit_insert(bool quick, int threads) {
  const int n = quick ? 4 : 5;
  const std::string sz = "/n" + std::to_string(n);
  Cell locked = state_cell("safety_2" + sz + "/locked", Lemma::kSafety2, fig6_hub(n),
                           EngineKind::kParallel, threads);
  // The budget forces the spill path; quick sizes need a smaller one to
  // reach it at all.
  const std::size_t budget_mb = quick ? 1 : 64;
  Cell lockfree = state_cell("safety_2" + sz + "/lockfree-" + std::to_string(budget_mb) + "mb",
                             Lemma::kSafety2, fig6_hub(n), EngineKind::kParallel, threads);
  lockfree.opts.store.kind = tt::mc::StoreKind::kLockFree;
  lockfree.opts.store.mem_budget_bytes = budget_mb << 20;
  return {locked, lockfree};
}

std::vector<Cell> reduced(bool quick, int threads, const PickNode& pick) {
  const int n = quick ? 5 : 6;
  const auto sp = ReductionKind::kSymPor;
  const std::string sz = "/n" + std::to_string(n);
  const std::string sz1 = "/n" + std::to_string(n + 1);
  const std::string hsz = "/n" + std::to_string(n - 1);
  return {
      state_cell("sym+por/safety" + sz, Lemma::kSafety, fig6_node(n, pick(n), Lemma::kSafety),
                 EngineKind::kParallel, threads, sp),
      state_cell("sym+por/liveness" + sz, Lemma::kLiveness,
                 fig6_node(n, pick(n), Lemma::kLiveness), EngineKind::kParallel, threads, sp),
      state_cell("sym+por/timeliness" + sz, Lemma::kTimeliness,
                 fig6_node(n, pick(n), Lemma::kTimeliness), EngineKind::kParallel, threads, sp),
      state_cell("sym+por/safety" + sz1, Lemma::kSafety,
                 fig6_node(n + 1, pick(n + 1), Lemma::kSafety), EngineKind::kParallel, threads,
                 sp),
      // POR is inadmissible on a faulty hub, so this cell runs sym alone.
      state_cell("sym/safety_2" + hsz, Lemma::kSafety2, fig6_hub(n - 1), EngineKind::kParallel,
                 threads, ReductionKind::kSymmetry),
  };
}

std::vector<Cell> symbolic_proof(bool quick, const PickNode& pick) {
  std::vector<Cell> cells;

  Cell kind;
  kind.name = "kind/safety/n3";
  kind.lemma = Lemma::kSafety;
  kind.cfg = fig6_node(3, pick(3), Lemma::kSafety);
  kind.opts.engine = EngineKind::kKInduction;
  kind.expect = Expect::kProved;
  kind.star_ir = true;
  cells.push_back(kind);

  // The tightened timeliness bound of bench/bench_unbounded_proofs.cpp: the
  // lemma breaks at cluster depth 3 and ic3 must find that by obligation
  // chaining. A crafted cell, not a grid cell, so its node stays fixed.
  // n = 3 is the smallest cluster, so quick mode tightens the bound instead
  // (violated at depth 2).
  Cell ic3;
  ic3.name = "ic3/timeliness/tight";
  ic3.lemma = Lemma::kTimeliness;
  ic3.cfg.n = 3;
  ic3.cfg.faulty_node = 0;
  ic3.cfg.fault_degree = 1;
  ic3.cfg.init_window = 3;
  ic3.cfg.hub_init_window = 3;
  ic3.cfg.timeliness_bound = quick ? 1 : 2;
  ic3.cfg = tt::core::prepare_config(ic3.cfg, Lemma::kTimeliness);
  ic3.opts.engine = EngineKind::kIc3;
  ic3.expect = Expect::kViolated;
  ic3.expect_depth = quick ? 2 : 3;
  ic3.star_ir = true;
  cells.push_back(ic3);

  // §5.2 clique under a faulty guardian without big-bang: one incremental
  // solver finds it at IR depth 22 (cluster depth 11), one solve per depth.
  Cell clique;
  clique.name = "bmc/clique/n3";
  clique.lemma = Lemma::kSafety;
  clique.cfg.n = 3;
  clique.cfg.faulty_hub = 0;
  clique.cfg.big_bang = false;
  clique.cfg.init_window = 3;
  clique.cfg.hub_init_window = 1;
  clique.cfg = tt::core::prepare_config(clique.cfg, Lemma::kSafety);
  clique.expect = Expect::kBmcViolation;
  clique.expect_depth = 22;
  clique.expect_solver_calls = 23;
  clique.star_ir = true;
  cells.push_back(clique);

  const int n = quick ? 4 : 5;
  cells.push_back(state_cell("sym-engine/safety/n" + std::to_string(n), Lemma::kSafety,
                             fig6_node(n, pick(n), Lemma::kSafety), EngineKind::kSymbolic, 1));
  cells.push_back(state_cell("sym-engine/liveness/n" + std::to_string(n - 1), Lemma::kLiveness,
                             fig6_node(n - 1, pick(n - 1), Lemma::kLiveness),
                             EngineKind::kSymbolic, 1));
  return cells;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"explicit-lookup", "explicit-insert", "reduced",
                                                 "symbolic-proof"};
  return names;
}

int rotation(const std::string& workload, bool quick) {
  if (quick) return 1;
  if (workload == "explicit-lookup") return 5;
  if (workload == "reduced") return 7;
  return 1;
}

std::vector<Cell> make_cells(const std::string& workload, bool quick, int threads,
                             const PickNode& pick) {
  if (workload == "explicit-lookup") return explicit_lookup(quick, threads, pick);
  if (workload == "explicit-insert") return explicit_insert(quick, threads);
  if (workload == "reduced") return reduced(quick, threads, pick);
  if (workload == "symbolic-proof") return symbolic_proof(quick, pick);
  throw std::invalid_argument("unknown workload: " + workload);
}

std::vector<GoldenRow> golden_rows() {
  constexpr int kMaxNodes = 7;  // the largest cluster any workload runs
  std::map<std::string, GoldenRow> rows;
  for (const std::string& w : workload_names()) {
    for (const bool quick : {false, true}) {
      for (int k = 0; k < kMaxNodes; ++k) {
        const auto cells = make_cells(w, quick, 1, [k](int n) { return k % n; });
        for (const Cell& c : cells) {
          if (c.golden_key.empty()) continue;
          rows.emplace(c.golden_key, GoldenRow{c.golden_key, c.lemma, c.cfg, c.golden_reduction});
        }
      }
    }
  }
  std::vector<GoldenRow> out;
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  return out;
}

}  // namespace ttbench
