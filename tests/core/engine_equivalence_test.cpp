// Determinism and equivalence suite for the engine layer: for every lemma x
// configuration in the tier-1 grid, the frontier engine (1, 2 and 4 threads)
// and the symbolic BDD engine must agree on the verdict and produce
// equal-length (BFS-minimal) counterexamples; frontier runs must be
// bit-identical across thread counts, state counts included. This is the
// regression net behind the "identical verdicts/traces regardless of thread
// count" guarantee documented in DESIGN.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/verifier.hpp"
#include "mc/lasso_check.hpp"
#include "support/lockfree_state_index_map.hpp"  // TT_LFSIM_HAS_SPILL
#include "tta/properties.hpp"

namespace tt::core {
namespace {

struct GridCell {
  int n;
  int degree;
  bool feedback;
  Lemma lemma;
};

std::string cell_name(const ::testing::TestParamInfo<GridCell>& info) {
  return std::string(to_string(info.param.lemma)) + "_n" + std::to_string(info.param.n) +
         "_deg" + std::to_string(info.param.degree) +
         (info.param.feedback ? "_fb" : "_nofb");
}

tta::ClusterConfig cell_config(const GridCell& cell) {
  tta::ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.faulty_node = 0;
  cfg.fault_degree = cell.degree;
  cfg.feedback = cell.feedback;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  if (cell.lemma == Lemma::kTimeliness) cfg.timeliness_bound = 10 * cell.n;
  return cfg;
}

VerificationResult run(const GridCell& cell, mc::EngineKind engine, int threads) {
  VerifyOptions opts;
  opts.engine = engine;
  opts.threads = threads;
  return verify(cell_config(cell), cell.lemma, opts);
}

class EngineEquivalenceGrid : public ::testing::TestWithParam<GridCell> {};

TEST_P(EngineEquivalenceGrid, ParallelAgreesWithSequentialAtEveryThreadCount) {
  // `seq` on an invariant lemma is the frontier engine at one thread, so the
  // independent reference is the BDD engine: the same verdict, the same
  // reachable set on holds-cells and an equally short counterexample.
  const auto sym = run(GetParam(), mc::EngineKind::kSymbolic, 1);
  ASSERT_EQ(sym.engine_used, mc::EngineKind::kSymbolic);
  const auto seq = run(GetParam(), mc::EngineKind::kSequential, 1);
  ASSERT_EQ(seq.engine_used, mc::EngineKind::kSequential);
  EXPECT_EQ(seq.stats.threads, 1);

  for (int threads : {1, 2, 4}) {
    const auto par = run(GetParam(), mc::EngineKind::kParallel, threads);
    ASSERT_EQ(par.engine_used, mc::EngineKind::kParallel);
    EXPECT_EQ(par.stats.threads, threads);

    EXPECT_EQ(par.holds, sym.holds) << "threads=" << threads << ": " << par.verdict_text
                                    << " vs " << sym.verdict_text;
    EXPECT_EQ(par.exhausted, sym.exhausted) << "threads=" << threads;
    // Counterexamples are BFS-minimal in both engines, hence equal length.
    EXPECT_EQ(par.trace.size(), sym.trace.size()) << "threads=" << threads;
    if (sym.holds) {
      // Exhaustive agreeing runs visit the same reachable set.
      EXPECT_EQ(par.stats.states, sym.stats.states) << "threads=" << threads;
      EXPECT_EQ(par.stats.transitions, sym.stats.transitions) << "threads=" << threads;
    }
    // `seq` is this engine at one thread: the identical run.
    EXPECT_EQ(par.holds, seq.holds) << "threads=" << threads;
    EXPECT_EQ(par.stats.states, seq.stats.states) << "threads=" << threads;
    EXPECT_EQ(par.stats.transitions, seq.stats.transitions) << "threads=" << threads;
    EXPECT_EQ(par.stats.depth, seq.stats.depth) << "threads=" << threads;
    EXPECT_EQ(par.stats.frontier_sizes, seq.stats.frontier_sizes) << "threads=" << threads;
    EXPECT_EQ(par.trace, seq.trace) << "threads=" << threads;
  }
}

TEST_P(EngineEquivalenceGrid, ParallelIsDeterministicAcrossThreadCounts) {
  const auto base = run(GetParam(), mc::EngineKind::kParallel, 1);
  for (int threads : {2, 4}) {
    const auto r = run(GetParam(), mc::EngineKind::kParallel, threads);
    EXPECT_EQ(r.holds, base.holds) << "threads=" << threads;
    EXPECT_EQ(r.stats.states, base.stats.states) << "threads=" << threads;
    EXPECT_EQ(r.stats.transitions, base.stats.transitions) << "threads=" << threads;
    EXPECT_EQ(r.stats.frontier_sizes, base.stats.frontier_sizes) << "threads=" << threads;
    // Not merely equal length: the identical counterexample trace.
    EXPECT_EQ(r.trace, base.trace) << "threads=" << threads;
  }
}

// The tier-1 grid of lemma_sweep_test.cpp, crossed with every invariant
// lemma (the liveness lemma classes get their own grid below, on the OWCTY
// and EG engines). The hub-agreement cells at degree >= 3 are VIOLATED
// cells, so the suite covers counterexample agreement, not just
// holds-verdicts.
INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalenceGrid,
    ::testing::Values(GridCell{3, 1, true, Lemma::kSafety}, GridCell{3, 2, true, Lemma::kSafety},
                      GridCell{3, 3, true, Lemma::kSafety}, GridCell{3, 5, true, Lemma::kSafety},
                      GridCell{3, 6, true, Lemma::kSafety}, GridCell{3, 6, false, Lemma::kSafety},
                      GridCell{4, 6, true, Lemma::kSafety}, GridCell{4, 3, false, Lemma::kSafety},
                      GridCell{3, 2, true, Lemma::kTimeliness},
                      GridCell{3, 6, true, Lemma::kTimeliness},
                      GridCell{4, 6, true, Lemma::kTimeliness},
                      GridCell{3, 2, true, Lemma::kHubAgreement},
                      GridCell{3, 3, true, Lemma::kHubAgreement},
                      GridCell{3, 6, true, Lemma::kHubAgreement},
                      GridCell{4, 6, true, Lemma::kHubAgreement}),
    cell_name);

TEST(EngineEquivalenceHub, Safety2FaultyHubGrid) {
  for (int n : {3, 4}) {
    tta::ClusterConfig cfg;
    cfg.n = n;
    cfg.faulty_hub = 0;
    cfg.init_window = 3;
    cfg.hub_init_window = 1;
    cfg.timeliness_bound = 8 * n;

    VerifyOptions seq_opts;
    seq_opts.engine = mc::EngineKind::kSequential;
    const auto seq = verify(cfg, Lemma::kSafety2, seq_opts);
    for (int threads : {1, 2, 4}) {
      VerifyOptions par_opts;
      par_opts.engine = mc::EngineKind::kParallel;
      par_opts.threads = threads;
      const auto par = verify(cfg, Lemma::kSafety2, par_opts);
      EXPECT_EQ(par.holds, seq.holds) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(par.trace.size(), seq.trace.size());
      if (seq.holds) {
        EXPECT_EQ(par.stats.states, seq.stats.states);
      }
    }
  }
}

TEST(EngineEquivalence, LivenessHonorsRequestedEngine) {
  // PR 4 removed the silent fallback: every engine kind now runs liveness
  // itself (seq = colored DFS, par = OWCTY trimming, sym = EG fixpoint).
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 2;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  for (const mc::EngineKind kind : {mc::EngineKind::kSequential, mc::EngineKind::kParallel,
                                    mc::EngineKind::kSymbolic}) {
    VerifyOptions opts;
    opts.engine = kind;
    const auto r = verify(cfg, Lemma::kLiveness, opts);
    EXPECT_EQ(r.engine_used, kind) << mc::to_string(kind);
    EXPECT_TRUE(r.holds) << mc::to_string(kind) << ": " << r.verdict_text;
  }
}

TEST(EngineEquivalence, AutoPicksParallelForEveryLemmaClass) {
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 1;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  EXPECT_EQ(verify(cfg, Lemma::kSafety).engine_used, mc::EngineKind::kParallel);
  EXPECT_EQ(verify(cfg, Lemma::kLiveness).engine_used, mc::EngineKind::kParallel);
  EXPECT_EQ(verify(cfg, Lemma::kReintegration).engine_used, mc::EngineKind::kParallel);
}

// ---------------------------------------------------------------------------
// Liveness equivalence: seq (colored DFS), par (OWCTY trimming, 1/2/4
// threads) and sym (EG fixpoint) must agree on the verdict for every cell;
// par runs must be bit-identical across thread counts; every returned lasso
// must replay through the model. Suite name keeps the "EngineEquivalence"
// stem so the TSan CI job picks it up.
// ---------------------------------------------------------------------------

struct LivenessCell {
  int n;
  int degree;  ///< 0 = faulty-hub cell (the §5.2 VIOLATED configuration)
  Lemma lemma;
};

std::string liveness_cell_name(const ::testing::TestParamInfo<LivenessCell>& info) {
  return std::string(to_string(info.param.lemma)) + "_n" + std::to_string(info.param.n) +
         (info.param.degree == 0 ? "_hub" : "_deg" + std::to_string(info.param.degree));
}

tta::ClusterConfig liveness_cell_config(const LivenessCell& cell) {
  tta::ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.init_window = 3;
  if (cell.degree == 0) {
    cfg.faulty_hub = 0;
    cfg.hub_init_window = 1;
  } else {
    cfg.faulty_node = 0;
    cfg.fault_degree = cell.degree;
    cfg.hub_init_window = 3;
  }
  if (cell.lemma == Lemma::kReintegration) cfg.transient_restarts = 1;
  return cfg;
}

VerificationResult run_liveness(const LivenessCell& cell, mc::EngineKind engine, int threads) {
  VerifyOptions opts;
  opts.engine = engine;
  opts.threads = threads;
  return verify(liveness_cell_config(cell), cell.lemma, opts);
}

class EngineEquivalenceLiveness : public ::testing::TestWithParam<LivenessCell> {};

TEST_P(EngineEquivalenceLiveness, SeqParSymAgreeAndParIsDeterministic) {
  const LivenessCell cell = GetParam();
  const auto seq = run_liveness(cell, mc::EngineKind::kSequential, 1);
  ASSERT_EQ(seq.engine_used, mc::EngineKind::kSequential);
  ASSERT_TRUE(seq.exhausted);

  const auto base = run_liveness(cell, mc::EngineKind::kParallel, 1);
  for (int threads : {1, 2, 4}) {
    const auto par = run_liveness(cell, mc::EngineKind::kParallel, threads);
    ASSERT_EQ(par.engine_used, mc::EngineKind::kParallel);
    EXPECT_EQ(par.stats.threads, threads);
    EXPECT_EQ(par.holds, seq.holds) << "threads=" << threads << ": " << par.verdict_text
                                    << " vs " << seq.verdict_text;
    EXPECT_EQ(par.verdict_text, seq.verdict_text) << "threads=" << threads;
    EXPECT_EQ(par.exhausted, seq.exhausted) << "threads=" << threads;
    // Bit-identical lasso (trace AND loop entry) at every thread count.
    EXPECT_EQ(par.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(par.loop_start, base.loop_start) << "threads=" << threads;
    EXPECT_EQ(par.stats.trim_rounds, base.stats.trim_rounds) << "threads=" << threads;
    EXPECT_EQ(par.stats.residue_states, base.stats.residue_states) << "threads=" << threads;
    if (seq.holds && cell.lemma == Lemma::kLiveness) {
      // Exhaustive F(goal) holds-runs sweep the same goal-free region once:
      // state, transition and hash counts match the sequential DFS exactly.
      EXPECT_EQ(par.stats.states, seq.stats.states) << "threads=" << threads;
      EXPECT_EQ(par.stats.transitions, seq.stats.transitions) << "threads=" << threads;
      EXPECT_EQ(par.stats.hash_ops, seq.stats.hash_ops) << "threads=" << threads;
    }
  }

  const auto sym = run_liveness(cell, mc::EngineKind::kSymbolic, 1);
  ASSERT_EQ(sym.engine_used, mc::EngineKind::kSymbolic);
  EXPECT_EQ(sym.holds, seq.holds) << sym.verdict_text << " vs " << seq.verdict_text;
  EXPECT_EQ(sym.verdict_text, seq.verdict_text);
  EXPECT_EQ(sym.stats.hash_ops, 0u);  // BDD membership, no hashing
  if (!seq.holds) {
    EXPECT_GT(sym.stats.bdd_iterations, 0);
  }
  if (seq.holds && cell.lemma == Lemma::kLiveness) {
    EXPECT_EQ(sym.stats.states, seq.stats.states);
    EXPECT_EQ(sym.stats.transitions, seq.stats.transitions);
  }
}

TEST_P(EngineEquivalenceLiveness, CounterexamplesReplayThroughTheModel) {
  const LivenessCell cell = GetParam();
  const tta::ClusterConfig cfg = prepare_config(liveness_cell_config(cell), cell.lemma);
  const tta::Cluster cluster(cfg);
  auto goal = [&](const tta::Cluster::State& s) {
    return tta::all_correct_active(cfg, cluster.unpack(s));
  };

  const auto seq = run_liveness(cell, mc::EngineKind::kSequential, 1);
  if (seq.holds) {
    GTEST_SKIP() << "holds-cell: no counterexample to replay";
  }
  std::string why;
  // Seq AG AF lassos are rooted at an arbitrary reachable state; everything
  // else stems from an initial state.
  ASSERT_TRUE(mc::validate_lasso(cluster, goal, seq.trace, seq.loop_start,
                                 /*require_initial_root=*/cell.lemma == Lemma::kLiveness,
                                 &why))
      << "seq: " << why;
  for (int threads : {1, 2, 4}) {
    const auto par = run_liveness(cell, mc::EngineKind::kParallel, threads);
    ASSERT_TRUE(mc::validate_lasso(cluster, goal, par.trace, par.loop_start,
                                   /*require_initial_root=*/true, &why))
        << "par threads=" << threads << ": " << why;
  }
  const auto sym = run_liveness(cell, mc::EngineKind::kSymbolic, 1);
  ASSERT_TRUE(mc::validate_lasso(cluster, goal, sym.trace, sym.loop_start,
                                 /*require_initial_root=*/true, &why))
      << "sym: " << why;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalenceLiveness,
    ::testing::Values(LivenessCell{3, 1, Lemma::kLiveness}, LivenessCell{3, 2, Lemma::kLiveness},
                      LivenessCell{3, 3, Lemma::kLiveness}, LivenessCell{3, 0, Lemma::kLiveness},
                      LivenessCell{4, 0, Lemma::kLiveness},
                      LivenessCell{3, 2, Lemma::kReintegration},
                      LivenessCell{3, 0, Lemma::kReintegration}),
    liveness_cell_name);

// ---------------------------------------------------------------------------
// Store equivalence: swapping the locked store for the lock-free one must be
// observationally invisible — verdicts, state/transition counts, frontier
// profiles, hash-op counts and byte-identical traces at every thread count,
// on safety, a VIOLATED cell and OWCTY liveness alike. Suite name keeps the
// "EngineEquivalence" stem so the TSan CI job picks it up.
// ---------------------------------------------------------------------------

VerificationResult run_store(const GridCell& cell, mc::EngineKind engine, int threads,
                             mc::StoreKind store, std::size_t budget_bytes = 0) {
  VerifyOptions opts;
  opts.engine = engine;
  opts.threads = threads;
  opts.store.kind = store;
  opts.store.mem_budget_bytes = budget_bytes;
  return verify(cell_config(cell), cell.lemma, opts);
}

TEST(EngineEquivalenceStore, MemoryBudgetNeedsARunThatCanSpill) {
  // Only the lock-free store spills, and only at the quiescent points of the
  // BFS engines (seq/par on invariants) and of OWCTY (par on liveness). A
  // budget on any other run would be ignored, and so would --store lockfree
  // on the lasso DFS and the symbolic and proof engines, which keep no
  // frontier store: verify() rejects both.
  struct Shape {
    const char* name;
    mc::EngineKind engine;
    mc::StoreKind store;
    Lemma lemma;
    std::size_t budget;
    bool accepted;
  };
  constexpr auto kLocked = mc::StoreKind::kShardedLocked;
  constexpr auto kLockFree = mc::StoreKind::kLockFree;
  const Shape shapes[] = {
      {"locked", mc::EngineKind::kParallel, kLocked, Lemma::kSafety, 1, false},
      {"seq-liveness", mc::EngineKind::kSequential, kLockFree, Lemma::kLiveness, 1, false},
      {"sym", mc::EngineKind::kSymbolic, kLockFree, Lemma::kSafety, 1, false},
      {"kind", mc::EngineKind::kKInduction, kLockFree, Lemma::kSafety, 1, false},
      {"seq-liveness-nobudget", mc::EngineKind::kSequential, kLockFree, Lemma::kLiveness, 0,
       false},
      {"sym-nobudget", mc::EngineKind::kSymbolic, kLockFree, Lemma::kSafety, 0, false},
      {"sym-liveness-nobudget", mc::EngineKind::kSymbolic, kLockFree, Lemma::kLiveness, 0,
       false},
      {"kind-nobudget", mc::EngineKind::kKInduction, kLockFree, Lemma::kSafety, 0, false},
      {"ic3-nobudget", mc::EngineKind::kIc3, kLockFree, Lemma::kSafety, 0, false},
      {"seq-safety", mc::EngineKind::kSequential, kLockFree, Lemma::kSafety, 1, true},
      {"par-liveness", mc::EngineKind::kParallel, kLockFree, Lemma::kLiveness, 1, true},
  };
  for (const Shape& sh : shapes) {
    const GridCell cell{3, 2, true, sh.lemma};
    if (sh.accepted) {
      EXPECT_NO_THROW((void)run_store(cell, sh.engine, 2, sh.store, sh.budget)) << sh.name;
    } else {
      EXPECT_THROW((void)run_store(cell, sh.engine, 2, sh.store, sh.budget),
                   std::invalid_argument)
          << sh.name;
    }
  }
}

class EngineEquivalenceStore : public ::testing::TestWithParam<GridCell> {};

TEST_P(EngineEquivalenceStore, LockFreeIsObservationallyIdenticalToLocked) {
  const auto base =
      run_store(GetParam(), mc::EngineKind::kParallel, 1, mc::StoreKind::kShardedLocked);
  for (int threads : {1, 2, 4}) {
    const auto locked =
        run_store(GetParam(), mc::EngineKind::kParallel, threads, mc::StoreKind::kShardedLocked);
    const auto lockfree =
        run_store(GetParam(), mc::EngineKind::kParallel, threads, mc::StoreKind::kLockFree);
    EXPECT_EQ(lockfree.holds, base.holds)
        << "threads=" << threads << ": " << lockfree.verdict_text;
    EXPECT_EQ(lockfree.verdict_text, locked.verdict_text) << "threads=" << threads;
    EXPECT_EQ(lockfree.exhausted, locked.exhausted) << "threads=" << threads;
    EXPECT_EQ(lockfree.stats.states, locked.stats.states) << "threads=" << threads;
    EXPECT_EQ(lockfree.stats.transitions, locked.stats.transitions) << "threads=" << threads;
    EXPECT_EQ(lockfree.stats.frontier_sizes, locked.stats.frontier_sizes)
        << "threads=" << threads;
    // Hash-once survives the store swap: one hash per considered state.
    EXPECT_EQ(lockfree.stats.hash_ops, locked.stats.hash_ops) << "threads=" << threads;
    // Not merely equivalent: the identical counterexample, byte for byte,
    // regardless of store backend and thread count.
    EXPECT_EQ(lockfree.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(lockfree.loop_start, base.loop_start) << "threads=" << threads;
  }
}

// Safety holds-cell, a VIOLATED hub-agreement cell (trace equality matters
// most there) and an OWCTY liveness cell.
INSTANTIATE_TEST_SUITE_P(Grid, EngineEquivalenceStore,
                         ::testing::Values(GridCell{3, 2, true, Lemma::kSafety},
                                           GridCell{3, 3, true, Lemma::kHubAgreement},
                                           GridCell{3, 2, true, Lemma::kLiveness}),
                         cell_name);

// ---------------------------------------------------------------------------
// Proof-engine equivalence: the SAT-based unbounded engines (kind = k-
// induction with the reachability-sweep completeness threshold, ic3 =
// IC3/PDR) must agree with the sequential BFS verdict. kind carries the
// full invariant grid; ic3 — whose frames over-approximate the reachable
// set, so full-init-window cells blow past test time — gets dedicated
// reduced cells below. On holds-cells agreement is not enough: the verdict
// must be PROVED@k — an unbounded guarantee, not a failed refutation. On
// VIOLATED cells the decoded cluster counterexample must replay through the
// raw model edge by edge and end in a violating state; for kind it is
// additionally BFS-minimal (the base instance refutes at the first
// violating depth), matching the explicit trace length exactly.
// ---------------------------------------------------------------------------

bool holds_invariant(const tta::ClusterConfig& cfg, const tta::ClusterState& c, Lemma lemma) {
  switch (lemma) {
    case Lemma::kSafety: return tta::holds_safety(cfg, c);
    case Lemma::kTimeliness:
    case Lemma::kSafety2: return tta::holds_timeliness(cfg, c);
    case Lemma::kHubAgreement: return tta::holds_hub_agreement(cfg, c);
    case Lemma::kLiveness:
    case Lemma::kReintegration: break;
  }
  ADD_FAILURE() << "not an invariant lemma";
  return true;
}

/// Replays a proof-engine counterexample through the raw cluster: rooted in
/// an initial state, connected edge by edge, ending in a violation.
void expect_valid_counterexample(const tta::ClusterConfig& pcfg,
                                 const std::vector<tta::Cluster::State>& trace, Lemma lemma,
                                 const std::string& label) {
  const tta::Cluster cluster(pcfg);
  ASSERT_FALSE(trace.empty()) << label;
  bool initial = false;
  cluster.initial_states([&](const tta::Cluster::State& s) { initial |= s == trace.front(); });
  EXPECT_TRUE(initial) << label << ": trace must start in an initial state";
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    bool connected = false;
    cluster.successors(trace[i],
                       [&](const tta::Cluster::State& s) { connected |= s == trace[i + 1]; });
    EXPECT_TRUE(connected) << label << ": step " << i << " does not replay";
  }
  EXPECT_FALSE(holds_invariant(pcfg, cluster.unpack(trace.back()), lemma))
      << label << ": final state must violate the lemma";
}

void expect_proof_agreement(const GridCell& cell, mc::EngineKind engine,
                            bool minimal_counterexample) {
  const auto seq = run(cell, mc::EngineKind::kSequential, 1);
  ASSERT_TRUE(seq.exhausted);
  const auto proof = run(cell, engine, 1);
  const std::string label = mc::to_string(engine);
  ASSERT_EQ(proof.engine_used, engine);
  EXPECT_EQ(proof.holds, seq.holds)
      << label << ": " << proof.verdict_text << " vs " << seq.verdict_text;
  EXPECT_TRUE(proof.exhausted) << label << ": " << proof.verdict_text;
  EXPECT_GT(proof.stats.solver_calls, 0u) << label;
  if (seq.holds) {
    EXPECT_EQ(proof.verdict_text.rfind("PROVED@", 0), 0u)
        << label << ": holds-cells need a proof, got " << proof.verdict_text;
  } else {
    if (minimal_counterexample) {
      // Counterexamples are BFS-minimal in both engines, hence equal length.
      EXPECT_EQ(proof.trace.size(), seq.trace.size()) << label;
    }
    expect_valid_counterexample(prepare_config(cell_config(cell), cell.lemma), proof.trace,
                                cell.lemma, label);
  }
}

class ProofEngineGrid : public ::testing::TestWithParam<GridCell> {};

TEST_P(ProofEngineGrid, KindAgreesWithSequentialAndProvesHoldsCells) {
  expect_proof_agreement(GetParam(), mc::EngineKind::kKInduction,
                         /*minimal_counterexample=*/true);
}

// The invariant cells of the seq-vs-par grid above (the liveness lemmas are
// out of scope for the proof engines by construction), minus the n=4
// hub-agreement cell: its refutation sits at star-IR depth 26 and costs ~3
// minutes of SAT probing alone; deep hub-agreement refutation is covered by
// the n=3 cells.
INSTANTIATE_TEST_SUITE_P(
    Grid, ProofEngineGrid,
    ::testing::Values(GridCell{3, 1, true, Lemma::kSafety}, GridCell{3, 2, true, Lemma::kSafety},
                      GridCell{3, 3, true, Lemma::kSafety}, GridCell{3, 5, true, Lemma::kSafety},
                      GridCell{3, 6, true, Lemma::kSafety}, GridCell{3, 6, false, Lemma::kSafety},
                      GridCell{4, 6, true, Lemma::kSafety}, GridCell{4, 3, false, Lemma::kSafety},
                      GridCell{3, 2, true, Lemma::kTimeliness},
                      GridCell{3, 6, true, Lemma::kTimeliness},
                      GridCell{4, 6, true, Lemma::kTimeliness},
                      GridCell{3, 2, true, Lemma::kHubAgreement},
                      GridCell{3, 3, true, Lemma::kHubAgreement},
                      GridCell{3, 6, true, Lemma::kHubAgreement}),
    cell_name);

// IC3 blocks one generalized cube per obligation, and on this model the
// predecessor space of an over-approximated frame is the full valuation
// space — full-init-window cells need tens of thousands of solver calls and
// run far past test budgets. These two reduced cells keep the whole IC3
// path honest end to end instead: one it must PROVE (frame convergence,
// relative-induction generalization, clause propagation) and one it must
// REFUTE with a replayable obligation-chain counterexample.
TEST(Ic3Engine, ProvesReducedWindowSafetyCell) {
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 1;
  cfg.init_window = 2;
  cfg.hub_init_window = 2;

  VerifyOptions seq_opts;
  seq_opts.engine = mc::EngineKind::kSequential;
  const auto seq = verify(cfg, Lemma::kSafety, seq_opts);
  ASSERT_TRUE(seq.exhausted);
  ASSERT_TRUE(seq.holds);

  VerifyOptions opts;
  opts.engine = mc::EngineKind::kIc3;
  const auto proof = verify(cfg, Lemma::kSafety, opts);
  EXPECT_TRUE(proof.holds) << proof.verdict_text;
  EXPECT_EQ(proof.verdict_text.rfind("PROVED@", 0), 0u) << proof.verdict_text;
  // The proof must come from the real machinery: a converged frame after
  // a non-trivial obligation workload, with learned clauses carried across
  // the incremental solver calls.
  EXPECT_GT(proof.stats.frames, 2u);
  EXPECT_GT(proof.stats.proof_obligations, 0u);
  EXPECT_GT(proof.stats.clauses_reused, 0u);
}

TEST(Ic3Engine, RefutesTightTimelinessBoundWithReplayableTrace) {
  // Tightening the timeliness bound to 2 slots plants a violation a few
  // levels deep — reachable for IC3's obligation queue in seconds.
  GridCell cell{3, 1, true, Lemma::kTimeliness};
  tta::ClusterConfig cfg = cell_config(cell);
  cfg.timeliness_bound = 2;

  VerifyOptions seq_opts;
  seq_opts.engine = mc::EngineKind::kSequential;
  const auto seq = verify(cfg, Lemma::kTimeliness, seq_opts);
  ASSERT_TRUE(seq.exhausted);
  ASSERT_FALSE(seq.holds);

  VerifyOptions opts;
  opts.engine = mc::EngineKind::kIc3;
  const auto proof = verify(cfg, Lemma::kTimeliness, opts);
  EXPECT_FALSE(proof.holds) << proof.verdict_text;
  EXPECT_GT(proof.stats.proof_obligations, 0u);
  // IC3 obligation chains are real paths but not necessarily shortest ones,
  // so replay validity (not length) is the trace contract.
  expect_valid_counterexample(prepare_config(cfg, Lemma::kTimeliness), proof.trace,
                              Lemma::kTimeliness, "ic3");
}

TEST(ProofEngineHub, Safety2FaultyHubProvedByKind) {
  // The §5.2 faulty-hub lemma (fig. 6's Safety_2 row): the proof engine
  // must PROVE the n=3 cell the explicit engines verify by exhaustion.
  // (ic3 cannot close the faulty-hub cell in test time — the hub's free
  // choices widen every frame — so kind carries it; the reduced cells
  // above keep ic3's proof path covered.)
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;
  cfg.timeliness_bound = 8 * cfg.n;

  VerifyOptions seq_opts;
  seq_opts.engine = mc::EngineKind::kSequential;
  const auto seq = verify(cfg, Lemma::kSafety2, seq_opts);
  ASSERT_TRUE(seq.exhausted);
  VerifyOptions opts;
  opts.engine = mc::EngineKind::kKInduction;
  const auto proof = verify(cfg, Lemma::kSafety2, opts);
  EXPECT_EQ(proof.holds, seq.holds) << proof.verdict_text << " vs " << seq.verdict_text;
  ASSERT_TRUE(seq.holds);
  EXPECT_EQ(proof.verdict_text.rfind("PROVED@", 0), 0u) << proof.verdict_text;
}

TEST(ProofEngine, RejectsLivenessLemmas) {
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 1;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  VerifyOptions opts;
  opts.engine = mc::EngineKind::kKInduction;
  EXPECT_THROW((void)verify(cfg, Lemma::kLiveness, opts), std::invalid_argument);
}

TEST(ProofEngine, RejectsReducedRuns) {
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 1;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  VerifyOptions opts;
  opts.engine = mc::EngineKind::kIc3;
  opts.reduction = mc::ReductionKind::kSymmetry;
  EXPECT_THROW((void)verify(cfg, Lemma::kSafety, opts), std::invalid_argument);
}

#if TT_LFSIM_HAS_SPILL
TEST(EngineEquivalenceStore, BeyondRamRunMatchesInRamCountsExactly) {
  // A 1-byte memory budget forces every sealed page out of core (the
  // cell's ~25k states fill 1024-state pages in each of the engine's 16
  // shards). The beyond-RAM run must reach the same verdict with the same
  // exact counts as the unconstrained one — spilling is a memory tier, not
  // an approximation.
  tta::ClusterConfig cfg;
  cfg.n = 5;
  cfg.faulty_node = 0;
  cfg.fault_degree = 3;
  cfg.feedback = false;
  cfg.init_window = 4;
  cfg.hub_init_window = 4;
  VerifyOptions opts;
  opts.engine = mc::EngineKind::kSequential;
  opts.store.kind = mc::StoreKind::kLockFree;
  const auto in_ram = verify(cfg, Lemma::kSafety, opts);
  opts.store.mem_budget_bytes = 1;
  const auto spilled = verify(cfg, Lemma::kSafety, opts);
  ASSERT_TRUE(in_ram.exhausted);
  EXPECT_EQ(spilled.holds, in_ram.holds);
  EXPECT_EQ(spilled.exhausted, in_ram.exhausted);
  EXPECT_EQ(spilled.stats.states, in_ram.stats.states);
  EXPECT_EQ(spilled.stats.transitions, in_ram.stats.transitions);
  EXPECT_EQ(spilled.stats.frontier_sizes, in_ram.stats.frontier_sizes);
  EXPECT_EQ(spilled.stats.hash_ops, in_ram.stats.hash_ops);
  EXPECT_GT(spilled.stats.pages_compressed, 0u);
  EXPECT_GT(spilled.stats.spill_bytes, 0u) << "1-byte budget must force a spill";
  EXPECT_EQ(in_ram.stats.spill_bytes, 0u) << "unconstrained run must stay in RAM";
}

TEST(EngineEquivalenceStore, LockFreeBeyondRamAgreesWithLockedOnFig6N6) {
  // The acceptance cell: fig. 6 at n=6 (~202k states) under a 1-byte memory
  // budget. The locked in-RAM run is the oracle; lockfree pushes every
  // sealed page through the write-behind pipeline and evicts it. Both must
  // agree bit for bit — out-of-core is a memory tier, never an
  // approximation.
  const GridCell cell{6, 6, true, Lemma::kSafety};
  const auto locked =
      run_store(cell, mc::EngineKind::kParallel, 4, mc::StoreKind::kShardedLocked);
  ASSERT_TRUE(locked.exhausted);
  ASSERT_TRUE(locked.holds) << locked.verdict_text;
  const auto spilled =
      run_store(cell, mc::EngineKind::kParallel, 4, mc::StoreKind::kLockFree, /*budget=*/1);
  EXPECT_EQ(spilled.holds, locked.holds) << spilled.verdict_text;
  EXPECT_EQ(spilled.exhausted, locked.exhausted);
  EXPECT_EQ(spilled.stats.states, locked.stats.states);
  EXPECT_EQ(spilled.stats.transitions, locked.stats.transitions);
  EXPECT_EQ(spilled.stats.frontier_sizes, locked.stats.frontier_sizes);
  EXPECT_EQ(spilled.stats.hash_ops, locked.stats.hash_ops);
  EXPECT_GT(spilled.stats.spill_async_pages, 0u) << "write-behind must carry the spill";
  EXPECT_GT(spilled.stats.spill_bytes, 0u);
}

TEST(EngineEquivalenceStore, WriterDeviceFullStarBurstsOutOfTheWorkerPool) {
  // An injected ENOSPC on the spill I/O thread must surface as a
  // StateCapacityError thrown from the coordinator: the failing maintain
  // records the error, workers park at the level barrier, the pool joins,
  // and the coordinator rethrows — never std::terminate, never a wedged
  // barrier, never a silently truncated state space.
  ::setenv("TTSTART_SPILL_FAIL_AFTER", "1", 1);
  const GridCell cell{6, 6, true, Lemma::kSafety};
  EXPECT_THROW(
      (void)run_store(cell, mc::EngineKind::kParallel, 4, mc::StoreKind::kLockFree, /*budget=*/1),
      StateCapacityError);
  ::unsetenv("TTSTART_SPILL_FAIL_AFTER");
}

#endif  // TT_LFSIM_HAS_SPILL

}  // namespace
}  // namespace tt::core
