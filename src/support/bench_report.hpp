// Machine-readable bench output: every bench binary appends its measurements
// to BENCH_results.json (one JSON object with a flat "results" array, one
// record per line) next to the human-readable tables. Re-running a bench
// replaces that bench's records and keeps everyone else's, so the file
// accumulates the full experiment sweep and seeds the perf trajectory.
//
// Override the path with the TTSTART_BENCH_JSON environment variable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tt {

/// One measurement row of the ttstart-bench-v8 schema (the `experiment`
/// keys are the ones EXPERIMENTS.md's claim→command table points at).
struct BenchRecord {
  std::string experiment;  ///< e.g. "fig6/safety/n4"
  std::string engine;      ///< "seq", "par", "sym", "sat", ...
  int threads = 1;         ///< worker threads the run used (1 = sequential)
  std::size_t states = 0;      ///< distinct states interned/counted
  std::size_t transitions = 0; ///< transitions explored
  double seconds = 0.0;        ///< wall-clock seconds of the measured run
  bool exhausted = true;       ///< false when a search limit stopped the run
  std::string verdict;  ///< "holds", "VIOLATED", ... (optional)
  /// Symbolic-engine columns (schema v2): fixpoint/BFS iterations and peak
  /// live BDD nodes. Negative = not applicable, omitted from the JSON.
  long long iterations = -1;
  long long peak_live_nodes = -1;
  /// Parallel-liveness (OWCTY) columns (schema v3): trimming rounds to the
  /// fixpoint and goal-free states left alive afterwards. Negative = not
  /// applicable, omitted from the JSON.
  long long trim_rounds = -1;
  long long residue_states = -1;
  /// Reduction columns (schema v4, names extended to "por"/"sym+por" in
  /// v6): "none"/"sym"/"por"/"sym+por"; canonicalization
  /// operations on the emission path; orbit states stored (== states of the
  /// reduced run, recorded explicitly so reduced rows are self-describing);
  /// and states(unreduced)/states(reduced) when the paired baseline ran.
  /// Negative (or empty `reduction`) = not applicable, omitted.
  std::string reduction;
  long long canon_ops = -1;
  long long orbit_states = -1;
  double reduction_ratio = -1.0;
  /// Schema v4 caveat flag: 1 when a multi-threaded row may have run on a
  /// single hardware core (CI runners), so its speedup column is not
  /// meaningful. Negative = unknown/not recorded, omitted from the JSON.
  int possibly_one_core = -1;
  /// Explicit-store columns (schema v5): "locked"/"lockfree"; failed-claim
  /// retries on the CAS insert path; and compressed bytes spilled out of
  /// core. Empty `store` / negative counters = not applicable, omitted.
  std::string store;
  long long cas_retries = -1;
  long long spill_bytes = -1;
  /// Partial-order reduction columns (schema v6; DESIGN.md §3.8): emissions
  /// whose independence gate was open, emissions redirected to the clamped
  /// horizon representative, and emissions declined into full expansion.
  /// Negative = not applicable, omitted from the JSON.
  long long ample_sets = -1;
  long long pruned_combos = -1;
  long long proviso_fallbacks = -1;
  /// Out-of-core pipeline columns (schema v7; DESIGN.md §3.9): synchronous
  /// barriers the write-behind pipeline had to take and sealed pages handed
  /// to the I/O thread without blocking; plus the store-resident byte
  /// footprint at run end. Negative = not applicable, omitted from the JSON.
  long long spill_sync_waits = -1;
  long long spill_async_pages = -1;
  long long resident_bytes = -1;
  /// Proof-engine columns (schema v8; DESIGN.md §3.10): SAT solve() calls on
  /// the run's single incremental solver (for bounded BMC exactly one per
  /// depth probed), learned clauses carried across those calls, IC3 frame
  /// count / k-induction unrolling depth, and IC3 obligation-queue pops.
  /// Negative = not applicable, omitted from the JSON.
  long long solver_calls = -1;
  long long clauses_reused = -1;
  long long frames = -1;
  long long proof_obligations = -1;
};

/// Reads the minimum "seconds" value among the report-file records matching
/// (bench, experiment, engine), e.g. the `baseline_pre_pr` rows that anchor
/// overhead budgets. Returns a negative value when no record matches or the
/// file is unreadable. Units: wall-clock seconds. Not thread-safe with a
/// concurrent write() to the same file.
[[nodiscard]] double read_report_seconds(const std::string& bench,
                                         const std::string& experiment,
                                         const std::string& engine);

/// Collects one bench binary's records and merges them into the report
/// file. Not thread-safe: create and use on one thread (the bench main).
class BenchReport {
 public:
  /// `bench_name` identifies this binary's records in the merged file.
  explicit BenchReport(std::string bench_name);
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  /// Writes on destruction (best effort — errors are reported to stderr).
  ~BenchReport();

  /// Queues a record for write(); records are kept in add() order.
  void add(BenchRecord record);

  /// Merges this bench's records into the report file and returns the path
  /// written (empty on failure). Called automatically by the destructor.
  std::string write();

 private:
  std::string bench_name_;
  std::vector<BenchRecord> records_;
  bool written_ = false;
};

}  // namespace tt
