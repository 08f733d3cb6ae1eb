// Tests for the bench report writer (support/bench_report.hpp): the merge
// with other benches' records, JSON escaping, the schema line, the counter
// columns of each section, and scripts/validate_bench_report.py agreeing
// with the counter table in mc/run_stats.hpp.
#include "support/bench_report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

namespace tt {
namespace {

using mc::Section;

/// Points TTSTART_BENCH_JSON at a per-test file (ctest runs each test in its
/// own process, in parallel).
class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "bench_report_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
            std::to_string(::getpid()) + ".json";
    ::setenv("TTSTART_BENCH_JSON", path_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("TTSTART_BENCH_JSON");
    std::remove(path_.c_str());
  }

  /// The file's lines: "{", the schema line, "results": [, one line per
  /// record, "]" and "}".
  [[nodiscard]] std::vector<std::string> lines() const {
    std::ifstream in(path_);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }
  [[nodiscard]] std::vector<std::string> rows() const {
    const auto l = lines();
    return l.size() < 5 ? l : std::vector<std::string>(l.begin() + 3, l.end() - 2);
  }

  std::string path_;
};

BenchRecord record(const std::string& experiment) {
  BenchRecord rec;
  rec.experiment = experiment;
  rec.engine = "seq";
  rec.verdict = "holds";
  rec.stats.states = 7;
  return rec;
}

void write(const std::string& bench, const std::vector<BenchRecord>& records) {
  BenchReport report(bench);
  for (const BenchRecord& r : records) report.add(r);
}

/// Keys of a one-line record (string values hold no escaped quotes).
std::set<std::string> keys_of(const std::string& row) {
  std::set<std::string> keys;
  for (auto open = row.find('"'); open != std::string::npos;) {
    const auto close = row.find('"', open + 1);
    if (row.compare(close + 1, 2, ": ") == 0) keys.insert(row.substr(open + 1, close - open - 1));
    open = row.find('"', close + 1);
  }
  return keys;
}

mc::RunStats every_section() {
  mc::RunStats st;
  for (const Section s : mc::kSections) st.mark(s);
  return st;
}

TEST_F(BenchReportTest, RewriteKeepsOtherBenchesAndReplacesItsOwn) {
  write("bench_a", {record("a/old1"), record("a/old2")});
  write("bench_b", {record("b/1")});
  write("bench_a", {record("a/new")});
  write("bench_c", {record("c/1")});
  const auto r = rows();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_NE(r[0].find("\"experiment\": \"b/1\""), std::string::npos);
  EXPECT_NE(r[1].find("\"experiment\": \"a/new\""), std::string::npos);
  EXPECT_NE(r[2].find("\"experiment\": \"c/1\""), std::string::npos);
}

TEST_F(BenchReportTest, EscapesStringsUnderTheV9SchemaLine) {
  write("bench_\"a\"", {record("quote\"back\\slash\nline\t")});
  const auto l = lines();
  ASSERT_EQ(l.size(), 6u);
  EXPECT_EQ(l[1], "  \"schema\": \"ttstart-bench-v12\",");
  EXPECT_NE(l[3].find("{\"bench\": \"bench_\\\"a\\\"\", "
                      "\"experiment\": \"quote\\\"back\\\\slash\\u000aline\\u0009\""),
            std::string::npos);
}

TEST_F(BenchReportTest, EachSectionAddsExactlyItsCounterColumns) {
  std::vector<BenchRecord> recs = {record("plain")};
  for (const Section s : mc::kSections) {
    recs.push_back(record(mc::to_string(s)));
    recs.back().stats.mark(s);
  }
  write("bench_a", recs);
  const auto r = rows();
  ASSERT_EQ(r.size(), recs.size());
  const std::set<std::string> base = {"bench",  "experiment",  "engine",  "threads",
                                      "states", "transitions", "seconds", "states_per_sec",
                                      "exhausted", "verdict"};
  EXPECT_EQ(keys_of(r[0]), base);
  for (std::size_t i = 0; i < mc::kSections.size(); ++i) {
    std::set<std::string> want = base;
    mc::for_each_counter(every_section(), [&](Section s, const char* name, auto) {
      if (s == mc::kSections[i]) want.insert(name);
    });
    EXPECT_EQ(keys_of(r[i + 1]), want) << mc::to_string(mc::kSections[i]);
  }
}

TEST_F(BenchReportTest, ValidatorAcceptsEveryColumn) {
  BenchRecord rec = record("every/column");
  rec.stats = every_section();
  rec.stats.canon_ops = 12;
  rec.stats.bdd_unique_hit_rate = 0.25;
  rec.reduction = "sym+por";
  rec.reduction_ratio = 2.5;
  rec.possibly_one_core = 0;
  rec.store = "lockfree";
  rec.resident_bytes = 4096;
  write("bench_a", {rec});
  const std::string cmd = "python3 " TTSTART_SOURCE_DIR "/scripts/validate_bench_report.py " +
                          path_ + " --require-reduction sym+por --require-store lockfree";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
}

// The validator's COUNTER_FIELDS is the one listing kept outside the table:
// it must name the same counters in the same order.
TEST(BenchReport, ValidatorColumnsMatchCounterTable) {
  FILE* pipe = ::popen(
      "python3 -c \"import sys; sys.dont_write_bytecode = True; "
      "sys.path.insert(0, '" TTSTART_SOURCE_DIR "/scripts'); "
      "import validate_bench_report as v; print(' '.join(v.COUNTER_FIELDS))\"",
      "r");
  ASSERT_NE(pipe, nullptr);
  std::string listed;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) listed += buf;
  ASSERT_EQ(::pclose(pipe), 0);
  std::string table;
  mc::for_each_counter(every_section(), [&](Section, const char* name, auto) {
    table += (table.empty() ? "" : " ") + std::string(name);
  });
  EXPECT_EQ(listed, table + "\n");
}

}  // namespace
}  // namespace tt
