// Round-trip tests for the tracing layer (DESIGN.md §3.5): spans land in
// the tracer in per-thread order with monotone end times and proper
// nesting, the Chrome trace-event exporter writes the schema
// scripts/validate_trace.py checks, and installing a tracer changes no
// verdict or count of a real verification run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/verifier.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"

namespace {

using tt::obs::ManualSpan;
using tt::obs::Span;
using tt::obs::ThreadEvents;
using tt::obs::TraceEvent;
using tt::obs::Tracer;

std::vector<TraceEvent> own_thread_events(const Tracer& tracer) {
  std::vector<ThreadEvents> all = tracer.drain();
  for (auto& te : all) {
    if (!te.events.empty()) return te.events;
  }
  return {};
}

TEST(TraceTest, DisabledByDefault) {
  EXPECT_FALSE(tt::obs::enabled());
  // All emission paths must be safe no-ops without a tracer.
  {
    Span s("noop");
    s.set_arg("x", 1);
  }
  tt::obs::emit_counter("noop", 1.0);
  tt::obs::emit_instant("noop");
  EXPECT_EQ(tt::obs::now_ns(), 0u);
}

TEST(TraceTest, SpansNestAndTimestampsAreMonotone) {
  Tracer tracer;
  tracer.install();
  {
    Span outer("outer");
    outer.set_arg("depth", 3);
    {
      Span inner("inner");
      inner.set_detail("first");
    }
    { Span inner2("inner2"); }
  }
  tt::obs::emit_counter("frontier", 42.0);
  tracer.uninstall();

  const auto events = own_thread_events(tracer);
  ASSERT_EQ(events.size(), 4u);

  // Spans are recorded at destruction: inner, inner2, outer.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[0].detail, "first");
  EXPECT_STREQ(events[1].name, "inner2");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].arg, 3);
  EXPECT_STREQ(events[2].arg_name, "depth");
  EXPECT_EQ(events[3].kind, tt::obs::EventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[3].value, 42.0);

  // End times monotone in buffer order (what validate_trace.py re-checks).
  std::uint64_t prev_end = 0;
  for (const auto& e : events) {
    if (e.kind != tt::obs::EventKind::kSpan) continue;
    const std::uint64_t end = e.ts_ns + e.dur_ns;
    EXPECT_GE(end, prev_end);
    prev_end = end;
  }

  // Proper nesting: both inner spans start and end inside outer.
  const TraceEvent& outer_ev = events[2];
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(events[i].ts_ns, outer_ev.ts_ns);
    EXPECT_LE(events[i].ts_ns + events[i].dur_ns, outer_ev.ts_ns + outer_ev.dur_ns);
  }
  // inner2 begins after inner ended (sibling spans do not overlap).
  EXPECT_GE(events[1].ts_ns, events[0].ts_ns + events[0].dur_ns);
}

TEST(TraceTest, ManualSpanChainsLevels) {
  Tracer tracer;
  tracer.install();
  {
    ManualSpan level;
    level.begin("level", 0, "depth");
    level.begin("level", 1, "depth");  // closes depth-0 span first
    level.end();
    level.end();  // double end is a no-op
  }
  tracer.uninstall();

  const auto events = own_thread_events(tracer);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].arg, 0);
  EXPECT_EQ(events[1].arg, 1);
  // Back-to-back levels: depth 1 starts no earlier than depth 0 ended.
  EXPECT_GE(events[1].ts_ns, events[0].ts_ns + events[0].dur_ns);
}

TEST(TraceTest, FreshTracerDrainsEmpty) {
  Tracer tracer;
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_FALSE(tracer.installed());
}

TEST(TraceTest, InstallingThreadOwnsTidZero) {
  Tracer tracer;
  tracer.install();
  // A worker emits before the installing thread emits anything: the worker
  // must still land on tid 1, because install() registered the installing
  // thread first (the Chrome exporter labels tid 0 "coordinator").
  std::thread worker([] { tt::obs::emit_instant("from-worker"); });
  worker.join();
  tt::obs::emit_instant("from-coordinator");
  tracer.uninstall();

  const auto all = tracer.drain();
  ASSERT_EQ(all.size(), 2u);
  ASSERT_EQ(all[0].tid, 0u);
  ASSERT_EQ(all[0].events.size(), 1u);
  EXPECT_STREQ(all[0].events[0].name, "from-coordinator");
  ASSERT_EQ(all[1].tid, 1u);
  ASSERT_EQ(all[1].events.size(), 1u);
  EXPECT_STREQ(all[1].events[0].name, "from-worker");
}

TEST(TraceTest, ReinstallSeparatesSessions) {
  // A thread that emitted under one tracer must re-register with the next
  // one instead of writing into the old session's buffer: buffer and
  // generation are read from the same Tracer object, so they cannot pair
  // across sessions.
  Tracer first;
  first.install();
  tt::obs::emit_instant("one");
  first.uninstall();

  Tracer second;
  second.install();
  tt::obs::emit_instant("two");
  second.uninstall();

  ASSERT_EQ(first.event_count(), 1u);
  EXPECT_STREQ(own_thread_events(first)[0].name, "one");
  ASSERT_EQ(second.event_count(), 1u);
  EXPECT_STREQ(own_thread_events(second)[0].name, "two");
}

TEST(TraceTest, BufferSpillsAcrossChunks) {
  Tracer tracer;
  tracer.install();
  constexpr int kEvents = 3000;  // > 2 chunks of 1024
  for (int i = 0; i < kEvents; ++i) tt::obs::emit_counter("c", i);
  tracer.uninstall();
  const auto events = own_thread_events(tracer);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(i));
  }
}

TEST(ChromeTraceTest, ExportedJsonHasSchemaShape) {
  Tracer tracer;
  tracer.install();
  {
    Span run("run");
    run.set_arg("n", 4);
    { Span level("level"); }
  }
  tt::obs::emit_counter("states", 17.0);
  tt::obs::emit_instant("verdict", "holds");
  tracer.uninstall();

  const std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  ASSERT_TRUE(tt::obs::write_chrome_trace(tracer, path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  // Envelope + one record per emitted event + thread metadata.
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"ttstart\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"run\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"level\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"states\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Valid JSON object end, no trailing comma before the array close.
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

// Installing a tracer must not perturb the verification itself: same
// verdict, same exact state/transition counts as an uninstrumented run.
TEST(ObsIntegrationTest, VerdictAndCountsUnchangedUnderTracing) {
  tt::tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.init_window = 2;
  cfg.hub_init_window = 2;

  const auto plain = tt::core::verify(cfg, tt::core::Lemma::kSafety);

  Tracer tracer;
  tracer.install();
  const auto traced = tt::core::verify(cfg, tt::core::Lemma::kSafety);
  tracer.uninstall();

  EXPECT_EQ(traced.holds, plain.holds);
  EXPECT_EQ(traced.stats.states, plain.stats.states);
  EXPECT_EQ(traced.stats.transitions, plain.stats.transitions);
  EXPECT_GT(tracer.event_count(), 0u);

  // The run emitted the documented vocabulary: a verify span wrapping the
  // engine's run span and its per-level spans.
  bool saw_verify = false, saw_level = false;
  for (const auto& te : tracer.drain()) {
    for (const auto& e : te.events) {
      if (e.kind != tt::obs::EventKind::kSpan) continue;
      if (std::string_view(e.name) == "verify") saw_verify = true;
      if (std::string_view(e.name) == "bfs.level") saw_level = true;
    }
  }
  EXPECT_TRUE(saw_verify);
  EXPECT_TRUE(saw_level);
}

// A traced run reports its counters as counter tracks named after their
// RunStats members, with the run's final values, and the file still passes
// scripts/validate_trace.py.
TEST(ObsIntegrationTest, TracedSymPorRunReportsRunCounters) {
  tt::tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  tt::core::VerifyOptions opts;
  opts.reduction = tt::mc::ReductionKind::kSymPor;

  Tracer tracer;
  tracer.install();
  const auto r = tt::core::verify(cfg, tt::core::Lemma::kSafety, opts);
  tracer.uninstall();
  ASSERT_GT(r.stats.canon_ops, 0u);

  const std::string path = ::testing::TempDir() + "trace_sym_por_counters.json";
  ASSERT_TRUE(tt::obs::write_chrome_trace(tracer, path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  auto last_sample = [&](const std::string& name) {  // the run's final value
    const auto at = json.rfind("\"name\": \"" + name + "\"");
    const auto value = json.find("\"value\": ", at == std::string::npos ? json.size() : at);
    return value == std::string::npos ? -1.0 : std::strtod(json.c_str() + value + 9, nullptr);
  };
  EXPECT_EQ(last_sample("canon_ops"), static_cast<double>(r.stats.canon_ops));
  EXPECT_EQ(last_sample("canon_swaps"), static_cast<double>(r.stats.canon_swaps));
  EXPECT_EQ(last_sample("pruned_combos"), static_cast<double>(r.stats.pruned_combos));

  const std::string validate = "python3 " TTSTART_SOURCE_DIR
                               "/scripts/validate_trace.py " + path + " > /dev/null";
  EXPECT_EQ(std::system(validate.c_str()), 0);
  std::remove(path.c_str());
}

}  // namespace
