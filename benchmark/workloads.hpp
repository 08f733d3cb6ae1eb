// The benchmark's workloads: which verification cells each one runs, and
// how a seed turns into the cells' inputs. README.md explains why each
// workload exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "tta/config.hpp"

namespace ttbench {

/// What a correct run of a cell returns.
enum class Expect {
  kHolds,         ///< exhaustive search, lemma holds
  kProved,        ///< proof engine, PROVED@k
  kViolated,      ///< proof engine, VIOLATED at cluster depth `expect_depth`
  /// runs bmc::check_invariant_bounded instead of verify(), which must find
  /// the violation at IR depth `expect_depth`
  kBmcViolation,
};

struct Cell {
  std::string name;  ///< unique within its workload; also the trace span detail
  tt::core::Lemma lemma = tt::core::Lemma::kSafety;
  tt::tta::ClusterConfig cfg;  ///< already passed through core::prepare_config
  tt::core::VerifyOptions opts;
  Expect expect = Expect::kHolds;
  int expect_depth = -1;
  std::uint64_t expect_solver_calls = 0;  ///< kBmcViolation only
  /// Row of golden.json that checks this cell: exact states and transitions
  /// for an unreduced cell, an upper bound on stored states for a reduced
  /// one. Empty for proof cells, which are checked by verdict and depth.
  std::string golden_key;
  tt::mc::ReductionKind golden_reduction = tt::mc::ReductionKind::kNone;
  bool star_ir = false;  ///< needs the StarIr built at set-up (proof cells)
  bool replay = false;   ///< explicit-state invariant cell: layer replay when traced
};

/// Returns the faulty-node id for a node-fault configuration of size n,
/// in [0, n). The benchmark derives it from the seed and the pass number;
/// golden recording enumerates every value.
using PickNode = std::function<int(int n)>;

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The cells of one pass of a workload. `threads` is the worker count of
/// every parallel cell except the explicit one-thread cell. Throws
/// std::invalid_argument on an unknown workload.
[[nodiscard]] std::vector<Cell> make_cells(const std::string& workload, bool quick,
                                           int threads, const PickNode& pick);

/// Passes in which the workload's node-fault cells visit every faulty-node
/// id once: the cluster size of the cells whose counts depend most on the
/// id, 1 where the id barely matters or in quick mode.
[[nodiscard]] int rotation(const std::string& workload, bool quick);

/// One row golden.json records: a configuration and reduction, run under
/// both `seq` and `par`.
struct GoldenRow {
  std::string key;
  tt::core::Lemma lemma = tt::core::Lemma::kSafety;
  tt::tta::ClusterConfig cfg;
  tt::mc::ReductionKind reduction = tt::mc::ReductionKind::kNone;
};

/// Every row any cell of any workload can check, at full and quick sizes,
/// for every faulty-node id a seed can pick; sorted by key.
[[nodiscard]] std::vector<GoldenRow> golden_rows();

}  // namespace ttbench
