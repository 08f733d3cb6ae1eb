// Machine-readable bench output: every bench binary appends its measurements
// to BENCH_results.json (one JSON object with a flat "results" array, one
// record per line) next to the human-readable tables. Re-running a bench
// replaces that bench's records and keeps everyone else's, so the file
// accumulates the full experiment sweep and seeds the perf trajectory.
//
// Override the path with the TTSTART_BENCH_JSON environment variable.
#pragma once

#include <string>
#include <vector>

#include "mc/run_stats.hpp"

namespace tt {

/// One measurement row of the ttstart-bench-v12 schema (the `experiment`
/// keys are the ones EXPERIMENTS.md's claim→command table points at). The
/// run columns (threads, states, transitions, seconds, exhausted) and the
/// counter columns come from `stats`: one column per counter of each section
/// the run carries, named after its RunStats member (mc/run_stats.hpp).
struct BenchRecord {
  std::string experiment;  ///< e.g. "fig6/safety/n4"
  std::string engine;      ///< "seq", "par", "sym", "sat", ...
  std::string verdict;     ///< "holds", "VIOLATED", ...
  mc::RunStats stats;
  /// Row metadata; empty / negative = not applicable, omitted from the JSON.
  std::string reduction;  ///< "none"/"sym"/"por"/"sym+por"
  std::string store;      ///< "locked"/"lockfree"
  /// states(unreduced)/states(reduced) when the paired baseline ran.
  double reduction_ratio = -1.0;
  /// 1 when a multi-threaded row may have run on a single hardware core (CI
  /// runners), so its speedup is not meaningful; 0 when not.
  int possibly_one_core = -1;
  /// Store-resident byte footprint at run end.
  long long resident_bytes = -1;
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
