// Golden-count regression net for the successor pipeline: the exact
// reachable-state and transition counts of small fig4/fig5/fig6 bench
// configurations, pinned for the sequential engine, the parallel engine at
// 1, 2 and 4 threads, and the symbolic (BDD-set) engine, whose count comes
// from exact model counting instead of a table size. Any change to
// successor enumeration order, fault enumeration, packing, interning,
// duplicate suppression or BDD counting that alters the explored graph —
// rather than merely its cost — trips these exact numbers.
//
// The same runs assert the hash-once contract end to end on the real model:
// stats.hash_ops == transitions + initial-state emissions, i.e. hash_words
// ran exactly once per candidate and was reused for the cache probe, the
// find, the shard routing and the insert (DESIGN.md §3.2).
#include <gtest/gtest.h>

#include <string>

#include "core/verifier.hpp"
#include "mc/reachability.hpp"
#include "mc/symbolic_reachability.hpp"
#include "tta/cluster.hpp"

namespace tt::core {
namespace {

struct GoldenCell {
  const char* name;
  Lemma lemma;
  int n;
  int degree;
  std::size_t states;
  std::size_t transitions;
};

tta::ClusterConfig fig6_config(int n) {
  tta::ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.feedback = true;
  cfg.init_window = n;
  cfg.hub_init_window = n;
  return cfg;
}

tta::ClusterConfig fig4_config(int degree, Lemma lemma) {
  tta::ClusterConfig cfg;
  cfg.n = 4;
  cfg.faulty_node = 0;
  cfg.fault_degree = degree;
  cfg.feedback = true;
  cfg.init_window = 8;
  cfg.hub_init_window = 8;
  if (lemma == Lemma::kTimeliness) cfg.timeliness_bound = 6 * cfg.n;
  return cfg;
}

void expect_hash_once(const VerificationResult& r, const std::string& label) {
  // One hash per enumerated transition plus one per emitted initial state
  // (these configs have a single initial state: no faulty hub, so no frozen
  // pattern dimension). frontier_sizes[0] is the interned initial count,
  // which equals the emitted count because initial states are distinct.
  ASSERT_FALSE(r.stats.frontier_sizes.empty()) << label;
  EXPECT_EQ(r.stats.hash_ops, r.stats.transitions + r.stats.frontier_sizes[0]) << label;
}

class GoldenCounts : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(GoldenCounts, ExactAcrossEnginesAndThreadCounts) {
  const GoldenCell& cell = GetParam();
  const tta::ClusterConfig cfg = cell.lemma == Lemma::kSafety && cell.degree == 6
                                     ? fig6_config(cell.n)
                                     : fig4_config(cell.degree, cell.lemma);

  VerifyOptions seq_opts;
  seq_opts.engine = mc::EngineKind::kSequential;
  const auto seq = verify(cfg, cell.lemma, seq_opts);
  ASSERT_TRUE(seq.holds) << cell.name << ": " << seq.verdict_text;
  EXPECT_EQ(seq.stats.states, cell.states) << cell.name;
  EXPECT_EQ(seq.stats.transitions, cell.transitions) << cell.name;

  if (cell.lemma == Lemma::kLiveness) {
    // F(goal) liveness: the sequential DFS, the parallel OWCTY engine and
    // the symbolic EG engine all sweep exactly the reachable goal-free
    // region once on a holds-run, so states and transitions are pinned for
    // all three, hash_ops matches between seq and par (hash-once on the
    // same candidate stream; the hash-once formula below is BFS-specific),
    // and sym never hashes at all.
    EXPECT_GT(seq.stats.hash_ops, std::size_t{0}) << cell.name;
    for (int threads : {1, 2, 4}) {
      VerifyOptions par_opts;
      par_opts.engine = mc::EngineKind::kParallel;
      par_opts.threads = threads;
      const auto par = verify(cfg, cell.lemma, par_opts);
      const std::string label = std::string(cell.name) + "/par@" + std::to_string(threads);
      ASSERT_TRUE(par.holds) << label << ": " << par.verdict_text;
      EXPECT_EQ(par.engine_used, mc::EngineKind::kParallel) << label;
      EXPECT_EQ(par.stats.states, cell.states) << label;
      EXPECT_EQ(par.stats.transitions, cell.transitions) << label;
      EXPECT_EQ(par.stats.hash_ops, seq.stats.hash_ops) << label;
      EXPECT_EQ(par.stats.residue_states, std::size_t{0}) << label;
    }
    VerifyOptions sym_opts;
    sym_opts.engine = mc::EngineKind::kSymbolic;
    const auto sym = verify(cfg, cell.lemma, sym_opts);
    const std::string label = std::string(cell.name) + "/sym";
    ASSERT_TRUE(sym.holds) << label << ": " << sym.verdict_text;
    EXPECT_EQ(sym.engine_used, mc::EngineKind::kSymbolic) << label;
    EXPECT_EQ(sym.stats.states, cell.states) << label;
    EXPECT_EQ(sym.stats.transitions, cell.transitions) << label;
    EXPECT_EQ(sym.stats.hash_ops, std::size_t{0}) << label;
    return;
  }
  expect_hash_once(seq, std::string(cell.name) + "/seq");

  for (int threads : {1, 2, 4}) {
    VerifyOptions par_opts;
    par_opts.engine = mc::EngineKind::kParallel;
    par_opts.threads = threads;
    const auto par = verify(cfg, cell.lemma, par_opts);
    const std::string label = std::string(cell.name) + "/par@" + std::to_string(threads);
    ASSERT_TRUE(par.holds) << label << ": " << par.verdict_text;
    EXPECT_EQ(par.stats.states, cell.states) << label;
    EXPECT_EQ(par.stats.transitions, cell.transitions) << label;
    expect_hash_once(par, label);
  }

  // The symbolic engine's state count comes from exact BDD model counting
  // over the compressed reached set — it must agree bit-for-bit with the
  // interning tables of the explicit engines, and never hash a state.
  VerifyOptions sym_opts;
  sym_opts.engine = mc::EngineKind::kSymbolic;
  const auto sym = verify(cfg, cell.lemma, sym_opts);
  const std::string label = std::string(cell.name) + "/sym";
  ASSERT_TRUE(sym.holds) << label << ": " << sym.verdict_text;
  EXPECT_EQ(sym.engine_used, mc::EngineKind::kSymbolic) << label;
  EXPECT_EQ(sym.stats.states, cell.states) << label;
  EXPECT_EQ(sym.stats.transitions, cell.transitions) << label;
  EXPECT_EQ(sym.stats.hash_ops, std::size_t{0}) << label;
  EXPECT_GT(sym.stats.bdd_peak_live_nodes, std::size_t{0}) << label;
}

TEST_P(GoldenCounts, LockFreeStoreReproducesGoldenCountsExactly) {
  // The store swap must be invisible against the pinned golden counts:
  // same states, transitions and hash-ops (hash-once survives the store) on
  // the sequential engine and the parallel engine at 1/2/4 threads.
  const GoldenCell& cell = GetParam();
  const tta::ClusterConfig cfg = cell.lemma == Lemma::kSafety && cell.degree == 6
                                     ? fig6_config(cell.n)
                                     : fig4_config(cell.degree, cell.lemma);

  VerifyOptions seq_opts;
  seq_opts.engine = mc::EngineKind::kSequential;
  seq_opts.store.kind = mc::StoreKind::kLockFree;
  const auto seq = verify(cfg, cell.lemma, seq_opts);
  ASSERT_TRUE(seq.holds) << cell.name << ": " << seq.verdict_text;
  EXPECT_EQ(seq.stats.states, cell.states) << cell.name;
  EXPECT_EQ(seq.stats.transitions, cell.transitions) << cell.name;
  if (cell.lemma != Lemma::kLiveness) {
    expect_hash_once(seq, std::string(cell.name) + "/lockfree_seq");
  }

  for (int threads : {1, 2, 4}) {
    VerifyOptions par_opts;
    par_opts.engine = mc::EngineKind::kParallel;
    par_opts.threads = threads;
    par_opts.store.kind = mc::StoreKind::kLockFree;
    const auto par = verify(cfg, cell.lemma, par_opts);
    const std::string label =
        std::string(cell.name) + "/lockfree_par@" + std::to_string(threads);
    ASSERT_TRUE(par.holds) << label << ": " << par.verdict_text;
    EXPECT_EQ(par.stats.states, cell.states) << label;
    EXPECT_EQ(par.stats.transitions, cell.transitions) << label;
    EXPECT_EQ(par.stats.hash_ops, seq.stats.hash_ops) << label;
  }
}

TEST_P(GoldenCounts, ProofEngineProvesInvariantCellsUnbounded) {
  // The proof-engine cross-check on the golden grid: every invariant cell
  // the explicit engines verify by exhaustion must also come back PROVED@k
  // from k-induction over the star IR — an unbounded guarantee, not a
  // failed refutation — with the run's single incremental solver showing
  // real clause reuse across its solve() calls. (ic3 is exercised on
  // reduced cells in engine_equivalence_test.cpp: the full-window golden
  // cells are beyond its obligation budget in test time.)
  const GoldenCell& cell = GetParam();
  if (cell.lemma == Lemma::kLiveness) {
    GTEST_SKIP() << "proof engines are invariant-only";
  }
  const tta::ClusterConfig cfg = cell.lemma == Lemma::kSafety && cell.degree == 6
                                     ? fig6_config(cell.n)
                                     : fig4_config(cell.degree, cell.lemma);

  VerifyOptions opts;
  opts.engine = mc::EngineKind::kKInduction;
  const auto proof = verify(cfg, cell.lemma, opts);
  ASSERT_TRUE(proof.holds) << cell.name << ": " << proof.verdict_text;
  EXPECT_EQ(proof.engine_used, mc::EngineKind::kKInduction) << cell.name;
  EXPECT_EQ(proof.verdict_text.rfind("PROVED@", 0), 0u)
      << cell.name << ": " << proof.verdict_text;
  EXPECT_GT(proof.stats.solver_calls, 0u) << cell.name;
  EXPECT_GT(proof.stats.clauses_reused, 0u) << cell.name;
}

// gtest_discover_tests appends the parameter's raw bytes to each ctest id,
// and GoldenCell's first eight bytes are the address of its name. A string
// literal's address moves with every other literal in the binary (the
// absolute __FILE__ paths of the build directory among them), so the fig6
// ids, short enough for that byte to count, would change with each build.
// Their names live at fixed offsets inside a 256-byte-aligned block instead,
// which keeps the low address byte — and the ids — the same in every build.
struct alignas(256) PinnedCellNames {
  char pad[0x69];
  char fig6_safety_n3[15];
  char fig6_safety_n4[15];
};
constexpr PinnedCellNames kPinnedNames{{}, "fig6_safety_n3", "fig6_safety_n4"};

INSTANTIATE_TEST_SUITE_P(
    Grid, GoldenCounts,
    ::testing::Values(
        GoldenCell{kPinnedNames.fig6_safety_n3, Lemma::kSafety, 3, 6, 1276, 45899},
        GoldenCell{kPinnedNames.fig6_safety_n4, Lemma::kSafety, 4, 6, 6592, 482344},
        GoldenCell{"fig4_safety_deg1", Lemma::kSafety, 4, 1, 18404, 22677},
        GoldenCell{"fig4_safety_deg3", Lemma::kSafety, 4, 3, 46944, 1238320},
        GoldenCell{"fig4_liveness_deg1", Lemma::kLiveness, 4, 1, 18400, 22673},
        GoldenCell{"fig4_liveness_deg3", Lemma::kLiveness, 4, 3, 46350, 1232486},
        GoldenCell{"fig4_timeliness_deg1", Lemma::kTimeliness, 4, 1, 18514, 22787},
        GoldenCell{"fig4_timeliness_deg3", Lemma::kTimeliness, 4, 3, 49467, 1262793}),
    [](const ::testing::TestParamInfo<GoldenCell>& info) {
      return std::string(info.param.name);
    });

TEST(GoldenCounts, Fig5FaultFreeReachableCounts) {
  // The fig5 "measured reachable states" column: fault-free model,
  // two-slot wake-up window.
  const struct {
    int n;
    std::size_t states;
    std::size_t transitions;
  } cells[] = {{3, 160, 186}, {4, 368, 421}};
  for (const auto& cell : cells) {
    tta::ClusterConfig cfg;
    cfg.n = cell.n;
    cfg.init_window = 2;
    cfg.hub_init_window = 2;
    const tta::Cluster cluster(cfg);
    const auto stats = mc::count_reachable(cluster);
    EXPECT_TRUE(stats.exhausted) << "n=" << cell.n;
    EXPECT_EQ(stats.states, cell.states) << "n=" << cell.n;
    EXPECT_EQ(stats.transitions, cell.transitions) << "n=" << cell.n;

    const auto sym = mc::count_reachable_symbolic(cluster);
    EXPECT_TRUE(sym.exhausted) << "n=" << cell.n << "/sym";
    EXPECT_EQ(sym.states, cell.states) << "n=" << cell.n << "/sym";
    EXPECT_EQ(sym.transitions, cell.transitions) << "n=" << cell.n << "/sym";
  }
}

}  // namespace
}  // namespace tt::core
