#include "support/bench_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace tt {

namespace {

std::string report_path() {
  if (const char* env = std::getenv("TTSTART_BENCH_JSON"); env != nullptr && *env != '\0') {
    return env;
  }
  return "BENCH_results.json";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string render_record(const std::string& bench, const BenchRecord& r) {
  const double sps = r.seconds > 0.0 ? static_cast<double>(r.states) / r.seconds : 0.0;
  std::ostringstream line;
  line << "    {\"bench\": \"" << json_escape(bench) << "\", \"experiment\": \""
       << json_escape(r.experiment) << "\", \"engine\": \"" << json_escape(r.engine)
       << "\", \"threads\": " << r.threads << ", \"states\": " << r.states
       << ", \"transitions\": " << r.transitions << ", \"seconds\": " << r.seconds
       << ", \"states_per_sec\": " << sps << ", \"exhausted\": "
       << (r.exhausted ? "true" : "false") << ", \"verdict\": \"" << json_escape(r.verdict)
       << "\"";
  // v2/v3/v4 optional columns, emitted only where meaningful (symbolic runs,
  // parallel OWCTY liveness runs, symmetry-reduced runs).
  if (r.iterations >= 0) line << ", \"iterations\": " << r.iterations;
  if (r.peak_live_nodes >= 0) line << ", \"peak_live_nodes\": " << r.peak_live_nodes;
  if (r.trim_rounds >= 0) line << ", \"trim_rounds\": " << r.trim_rounds;
  if (r.residue_states >= 0) line << ", \"residue_states\": " << r.residue_states;
  if (!r.reduction.empty()) line << ", \"reduction\": \"" << json_escape(r.reduction) << "\"";
  if (r.canon_ops >= 0) line << ", \"canon_ops\": " << r.canon_ops;
  if (r.orbit_states >= 0) line << ", \"orbit_states\": " << r.orbit_states;
  if (r.reduction_ratio >= 0.0) line << ", \"reduction_ratio\": " << r.reduction_ratio;
  if (r.possibly_one_core >= 0) {
    line << ", \"possibly_one_core\": " << (r.possibly_one_core != 0 ? "true" : "false");
  }
  // v5 optional columns (explicit-store runs).
  if (!r.store.empty()) line << ", \"store\": \"" << json_escape(r.store) << "\"";
  if (r.cas_retries >= 0) line << ", \"cas_retries\": " << r.cas_retries;
  if (r.spill_bytes >= 0) line << ", \"spill_bytes\": " << r.spill_bytes;
  // v6 optional columns (partial-order-reduced runs).
  if (r.ample_sets >= 0) line << ", \"ample_sets\": " << r.ample_sets;
  if (r.pruned_combos >= 0) line << ", \"pruned_combos\": " << r.pruned_combos;
  if (r.proviso_fallbacks >= 0) line << ", \"proviso_fallbacks\": " << r.proviso_fallbacks;
  // v7 optional columns (out-of-core pipeline runs, DESIGN.md §3.9).
  if (r.spill_sync_waits >= 0) line << ", \"spill_sync_waits\": " << r.spill_sync_waits;
  if (r.spill_async_pages >= 0) line << ", \"spill_async_pages\": " << r.spill_async_pages;
  if (r.resident_bytes >= 0) line << ", \"resident_bytes\": " << r.resident_bytes;
  // v8 optional columns (SAT proof-engine runs, DESIGN.md §3.10).
  if (r.solver_calls >= 0) line << ", \"solver_calls\": " << r.solver_calls;
  if (r.clauses_reused >= 0) line << ", \"clauses_reused\": " << r.clauses_reused;
  if (r.frames >= 0) line << ", \"frames\": " << r.frames;
  if (r.proof_obligations >= 0) line << ", \"proof_obligations\": " << r.proof_obligations;
  line << "}";
  return line.str();
}

}  // namespace

double read_report_seconds(const std::string& bench, const std::string& experiment,
                           const std::string& engine) {
  std::ifstream in(report_path());
  const std::string bench_key = "\"bench\": \"" + json_escape(bench) + "\"";
  const std::string exp_key = "\"experiment\": \"" + json_escape(experiment) + "\"";
  const std::string eng_key = "\"engine\": \"" + json_escape(engine) + "\"";
  const std::string sec_key = "\"seconds\": ";
  double best = -1.0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(bench_key) == std::string::npos ||
        line.find(exp_key) == std::string::npos ||
        line.find(eng_key) == std::string::npos) {
      continue;
    }
    const auto pos = line.find(sec_key);
    if (pos == std::string::npos) continue;
    const double s = std::strtod(line.c_str() + pos + sec_key.size(), nullptr);
    if (s > 0 && (best < 0 || s < best)) best = s;
  }
  return best;
}

BenchReport::BenchReport(std::string bench_name) : bench_name_(std::move(bench_name)) {}

BenchReport::~BenchReport() {
  if (!written_) write();
}

void BenchReport::add(BenchRecord record) { records_.push_back(std::move(record)); }

std::string BenchReport::write() {
  written_ = true;
  const std::string path = report_path();

  // Keep record lines written by *other* benches (one record per line, the
  // format this writer emits), so repeated bench runs accumulate.
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    const std::string own_key = "{\"bench\": \"" + json_escape(bench_name_) + "\"";
    std::string line;
    while (std::getline(in, line)) {
      const auto brace = line.find('{');
      if (brace == std::string::npos || line.compare(brace, 10, "{\"bench\": ") != 0) continue;
      if (line.compare(brace, own_key.size(), own_key) == 0) continue;
      std::string rec = line.substr(brace);
      if (!rec.empty() && rec.back() == ',') rec.pop_back();
      kept.push_back(std::move(rec));
    }
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "ttstart: cannot write %s\n", path.c_str());
    return {};
  }
  out << "{\n  \"schema\": \"ttstart-bench-v8\",\n  \"results\": [\n";
  bool first = true;
  for (const std::string& rec : kept) {
    out << (first ? "    " : ",\n    ") << rec;
    first = false;
  }
  for (const BenchRecord& r : records_) {
    out << (first ? "" : ",\n") << render_record(bench_name_, r);
    first = false;
  }
  out << "\n  ]\n}\n";
  std::printf("[bench report: %zu record(s) -> %s]\n", records_.size(), path.c_str());
  return path;
}

}  // namespace tt
