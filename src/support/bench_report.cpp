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
  const mc::RunStats& st = r.stats;
  std::ostringstream line;
  line << "    {\"bench\": \"" << json_escape(bench) << "\", \"experiment\": \""
       << json_escape(r.experiment) << "\", \"engine\": \"" << json_escape(r.engine)
       << "\", \"threads\": " << st.threads << ", \"states\": " << st.states
       << ", \"transitions\": " << st.transitions << ", \"seconds\": " << st.seconds
       << ", \"states_per_sec\": " << st.states_per_sec() << ", \"exhausted\": "
       << (st.exhausted ? "true" : "false") << ", \"verdict\": \"" << json_escape(r.verdict)
       << "\"";
  if (!r.reduction.empty()) line << ", \"reduction\": \"" << json_escape(r.reduction) << "\"";
  if (r.reduction_ratio >= 0.0) line << ", \"reduction_ratio\": " << r.reduction_ratio;
  if (r.possibly_one_core >= 0) {
    line << ", \"possibly_one_core\": " << (r.possibly_one_core != 0 ? "true" : "false");
  }
  if (!r.store.empty()) line << ", \"store\": \"" << json_escape(r.store) << "\"";
  if (r.resident_bytes >= 0) line << ", \"resident_bytes\": " << r.resident_bytes;
  mc::for_each_counter(st, [&](mc::Section, const char* name, auto value) {
    line << ", \"" << name << "\": " << value;
  });
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
  out << "{\n  \"schema\": \"ttstart-bench-v10\",\n  \"results\": [\n";
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
