// Drives all three checker substrates (explicit BFS / BDD symbolic /
// SAT-based BMC) on the same mini-SAL model — the TTA-lite bus-startup
// algorithm of [12] — and cross-checks their answers, like the paper's §3
// preliminary study did with SAL's engines.
//
//   ./engine_comparison [n] [fault_degree]
#include <cstdio>
#include <cstdlib>

#include "bdd/symbolic.hpp"
#include "bmc/encoder.hpp"
#include "kernel/packed_system.hpp"
#include "kernel/ttalite.hpp"
#include "mc/reachability.hpp"

int main(int argc, char** argv) {
  using namespace tt;

  kernel::TtaLiteConfig cfg;
  cfg.n = argc > 1 ? std::atoi(argv[1]) : 4;
  cfg.fault_degree = argc > 2 ? std::atoi(argv[2]) : 2;
  cfg.faulty_node = 0;
  cfg.init_window = 4;
  kernel::TtaLite model(cfg);
  std::printf("TTA-lite (bus topology, node-only startup of [12]): n=%d degree=%d\n",
              cfg.n, cfg.fault_degree);
  std::printf("state bits: %d\n\n", model.system().state_bits());

  // 1. Explicit-state: full reachability count plus the safety verdict (the
  //    verdict run stops at the first violation, so the count is separate).
  const kernel::PackedSystem ps(model.system());
  auto exp_count = mc::count_reachable(ps);
  auto exp = mc::check_invariant(ps, [&](const kernel::PackedSystem::State& s) {
    return model.safety(ps.unpack(s));
  });
  std::printf("explicit BFS : %-9s %8zu states  %.3fs\n", mc::to_string(exp.verdict),
              exp_count.states, exp_count.seconds + exp.stats.seconds);

  // 2. Symbolic (BDD) reachability + safety.
  bdd::SymbolicEngine engine(model.system());
  auto sym = engine.check_invariant(model.safety_expr());
  std::printf("symbolic BDD : %-9s %8.0f states  %.3fs  (%d bdd vars, %zu nodes)\n",
              sym.holds ? "holds" : "VIOLATED", sym.reachable_states, sym.stats.seconds,
              sym.bdd_vars, sym.stats.bdd_peak_live_nodes);

  // 3. SAT-based bounded model checking.
  auto bmc = bmc::check_invariant_bounded(model.system(), model.safety_expr(), 40);
  if (bmc.violation_found) {
    std::printf("SAT BMC      : VIOLATED at depth %d  %.3fs (%llu conflicts)\n", bmc.depth,
                bmc.seconds, static_cast<unsigned long long>(bmc.total_conflicts));
  } else {
    std::printf("SAT BMC      : no counterexample within 40 frames  %.3fs\n", bmc.seconds);
  }

  // Cross-checks.
  const bool counts_agree =
      static_cast<double>(exp_count.states) == sym.reachable_states;
  const bool verdicts_agree = (exp.verdict == mc::Verdict::kHolds) == sym.holds;
  const bool bmc_agrees = bmc.violation_found == (exp.verdict == mc::Verdict::kViolated);
  std::printf("\ncross-check: counts %s, verdicts %s, bmc %s\n",
              counts_agree ? "AGREE" : "DISAGREE", verdicts_agree ? "AGREE" : "DISAGREE",
              bmc_agrees ? "AGREE" : "DISAGREE");
  return (counts_agree && verdicts_agree && bmc_agrees) ? 0 : 1;
}
