// ttbench: the benchmark program. It runs one workload's cells through the
// libraries' public entry points, times each call from outside, and prints
// one JSON object of raw measurements on stdout; benchmark/run.py turns
// that into metrics and checks it against golden.json. See README.md.
//
//   ttbench --workload W --seed S [--seconds T] [--quick] [--spill-dir D]
//           [--trace-out FILE]
//   ttbench --record-golden FILE
//
// It sets up the workload 21 times (run.py reports the median as
// setup_s), then runs rotations of untraced passes over the cells while the
// next rotation would end within T seconds (at least one). Pass k of a
// rotation runs every node-fault cell at faulty node (o + k) mod n, with the
// offset o drawn from the seed, so a rotation visits every id; each
// untraced cell is preceded by a fixed reference workload that measures the
// machine's current speed. With --trace-out it then runs pass 0 again and
// the layer replays under obs::Tracer, and writes the Chrome trace to FILE.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bmc/encoder.hpp"
#include "core/verifier.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "support/hash.hpp"
#include "support/lockfree_state_index_map.hpp"
#include "support/one_core_probe.hpp"
#include "support/rng.hpp"
#include "support/sharded_state_index_map.hpp"
#include "tta/star_ir.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ttbench::Cell;
using ttbench::Expect;

constexpr int kSetupReps = 21;
constexpr int kBmcMaxDepth = 64;
constexpr int kMaxThreads = 4;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPUs this process may run on (what `nproc` prints).
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus` (all of them when empty).
void run_on(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

tt::tta::Reduction to_tta(tt::mc::ReductionKind k) {
  switch (k) {
    case tt::mc::ReductionKind::kNone: return tt::tta::Reduction::kNone;
    case tt::mc::ReductionKind::kSymmetry: return tt::tta::Reduction::kSymmetry;
    case tt::mc::ReductionKind::kPartialOrder: return tt::tta::Reduction::kPartialOrder;
    case tt::mc::ReductionKind::kSymPor: return tt::tta::Reduction::kSymPor;
  }
  return tt::tta::Reduction::kNone;
}

// ---------------------------------------------------------------- JSON out

/// Minimal streaming JSON writer (objects, arrays, scalars) onto a FILE.
class Json {
 public:
  explicit Json(std::FILE* f) : f_(f) {}
  Json& obj() { return open('{'); }
  Json& arr() { return open('['); }
  Json& end() {
    std::fputc(stack_.back() == '{' ? '}' : ']', f_);
    stack_.pop_back();
    first_ = false;
    return *this;
  }
  Json& key(std::string_view k) {
    comma();
    str(k);
    std::fputc(':', f_);
    first_ = true;  // the value that follows takes no comma
    return *this;
  }
  Json& val(std::string_view s) {
    comma();
    str(s);
    return *this;
  }
  Json& val(const char* s) { return val(std::string_view(s)); }
  Json& val(bool b) {
    comma();
    std::fputs(b ? "true" : "false", f_);
    return *this;
  }
  Json& val(double d) {
    comma();
    std::fprintf(f_, "%.17g", d);
    return *this;
  }
  Json& val(std::uint64_t u) {
    comma();
    std::fprintf(f_, "%" PRIu64, u);
    return *this;
  }
  Json& val(int i) {
    comma();
    std::fprintf(f_, "%d", i);
    return *this;
  }
  template <class T>
  Json& kv(std::string_view k, T v) {
    return key(k).val(v);
  }

 private:
  Json& open(char c) {
    comma();
    std::fputc(c, f_);
    stack_.push_back(c);
    first_ = true;
    return *this;
  }
  void comma() {
    if (!first_) std::fputc(',', f_);
    first_ = false;
  }
  void str(std::string_view s) {
    std::fputc('"', f_);
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', f_);
        std::fputc(c, f_);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(f_, "\\u%04x", c);
      } else {
        std::fputc(c, f_);
      }
    }
    std::fputc('"', f_);
  }

  std::FILE* f_;
  std::vector<char> stack_;
  bool first_ = true;
};

// ---------------------------------------------------------------- set-up

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool quick = false;
  std::string spill_dir;
  std::string trace_out;
  std::string record_golden;
};

/// The cells of one pass of the rotation, with their model objects.
struct PassCells {
  std::vector<Cell> cells;
  std::vector<std::unique_ptr<tt::tta::Cluster>> clusters;  ///< one per cell
  std::vector<std::unique_ptr<tt::tta::StarIr>> irs;        ///< null unless Cell::star_ir
};

/// A workload expanded from its seed, with every model object built.
struct Prepared {
  std::vector<PassCells> rotation;  ///< pass k runs rotation[k % size]
  double star_ir_s = 0.0;
  tt::Rng rng;  ///< the seed's stream, continued for the per-pass cell orders
};

Prepared set_up(const Options& o, int threads) {
  Prepared p;
  p.rng = tt::Rng(o.seed);
  std::vector<int> offsets;  // one per node-fault cell, drawn on first use
  const int passes = ttbench::rotation(o.workload, o.quick);
  for (int k = 0; k < passes; ++k) {
    PassCells pc;
    std::size_t pick = 0;
    pc.cells = ttbench::make_cells(o.workload, o.quick, threads, [&](int n) {
      if (pick == offsets.size()) offsets.push_back(static_cast<int>(p.rng.below(n)));
      return (offsets[pick++] + k) % n;
    });
    for (Cell& c : pc.cells) {
      c.cfg.validate();
      c.opts.store.spill_dir = o.spill_dir;
      {
        tt::obs::Span span("tta.cluster");
        pc.clusters.push_back(
            std::make_unique<tt::tta::Cluster>(c.cfg, to_tta(c.opts.reduction)));
      }
      if (c.star_ir) {
        tt::obs::Span span("tta.star_ir");
        const auto t0 = Clock::now();
        pc.irs.push_back(std::make_unique<tt::tta::StarIr>(c.cfg));
        p.star_ir_s += since(t0);
      } else {
        pc.irs.push_back(nullptr);
      }
    }
    p.rotation.push_back(std::move(pc));
  }
  return p;
}

// ---------------------------------------------------------------- cells

/// A fixed piece of work that touches nothing of the program: integer
/// arithmetic, a dependent walk through a 16 MiB ring, and inserts into a
/// 1.5 MiB open-addressed table. Run before every untraced cell, its time
/// tells run.py how fast the shared machine is running at that moment
/// (README.md, "Machine speed"); it takes about 30 ms on an idle core.
class Reference {
 public:
  Reference() : ring_(std::size_t{1} << 22), table_(std::size_t{1} << 16) {
    // One cycle through the ring in a scattered order (Sattolo's shuffle).
    for (std::uint32_t i = 0; i < ring_.size(); ++i) ring_[i] = i;
    std::uint64_t x = 1;
    for (std::size_t i = ring_.size() - 1; i > 0; --i) {
      x = tt::mix64(x);
      std::swap(ring_[i], ring_[x % i]);
    }
  }

  double run() {
    const auto t0 = Clock::now();
    std::uint64_t acc = 1;
    for (int i = 0; i < 8'000'000; ++i) acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint32_t at = 0;
    for (int i = 0; i < 100'000; ++i) at = ring_[at];
    std::fill(table_.begin(), table_.end(), Key{});
    const std::size_t mask = table_.size() - 1;
    for (std::uint64_t i = 0; i < 200'000; ++i) {
      const std::uint64_t h = tt::mix64(i % 40'000) | 1;
      std::size_t slot = h & mask;
      while (table_[slot][0] != 0 && table_[slot][0] != h) slot = (slot + 1) & mask;
      table_[slot] = {h, h ^ acc, at};
    }
    sink_ = table_[7][0] + acc + at;
    return since(t0);
  }

 private:
  using Key = std::array<std::uint64_t, 3>;
  std::vector<std::uint32_t> ring_;
  std::vector<Key> table_;
  volatile std::uint64_t sink_ = 0;
};

struct CellResult {
  const Cell* cell = nullptr;
  double seconds = 0.0;
  double reference_s = 0.0;  ///< Reference::run just before the cell; 0 if not run
  bool ok = false;
  std::string verdict;
  std::string error;
  tt::mc::RunStats stats;
  std::uint64_t conflicts = 0;  ///< BMC cell only
};

CellResult run_cell(const Cell& c, const tt::tta::StarIr* ir, Reference* reference) {
  // Hand memory the previous cell freed back to the system, so a cell's
  // peak resident size does not depend on which cells ran before it.
  malloc_trim(0);
  CellResult r;
  r.cell = &c;
  if (reference != nullptr) r.reference_s = reference->run();
  tt::obs::Span span("bench.cell");
  span.set_detail(c.name.c_str());
  try {
    if (c.expect == Expect::kBmcViolation) {
      const auto t0 = Clock::now();
      const auto b = tt::bmc::check_invariant_bounded(ir->system(), ir->safety_expr(), kBmcMaxDepth);
      r.seconds = since(t0);
      r.stats.depth = b.depth;
      r.stats.solver_calls = b.solver_calls;
      r.stats.clauses_reused = b.clauses_reused;
      r.conflicts = b.total_conflicts;
      r.verdict = b.violation_found ? "VIOLATED@" + std::to_string(b.depth) : "no violation";
      r.ok = b.violation_found && b.depth == c.expect_depth &&
             b.solver_calls == c.expect_solver_calls;
    } else {
      const auto t0 = Clock::now();
      auto v = tt::core::verify(c.cfg, c.lemma, c.opts);
      r.seconds = since(t0);
      r.stats = std::move(v.stats);
      r.verdict = v.verdict_text;
      switch (c.expect) {
        case Expect::kHolds: r.ok = v.holds && v.exhausted; break;
        case Expect::kProved: r.ok = v.holds && v.verdict_text.rfind("PROVED@", 0) == 0; break;
        case Expect::kViolated:
          r.ok = !v.holds && v.exhausted && r.stats.depth == c.expect_depth;
          break;
        case Expect::kBmcViolation: break;
      }
    }
    if (!r.ok) r.error = "unexpected verdict: " + r.verdict;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

/// Runs pass k: every cell of its rotation slot once, in an order drawn
/// from the seed's stream, each after the reference work when given.
std::vector<CellResult> run_pass(Prepared& p, std::size_t k, Reference* reference) {
  const PassCells& pc = p.rotation[k % p.rotation.size()];
  std::vector<std::size_t> order(pc.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[p.rng.below(static_cast<std::uint32_t>(i))]);
  }
  std::vector<CellResult> results(pc.cells.size());
  for (const std::size_t i : order) {
    results[i] = run_cell(pc.cells[i], pc.irs[i].get(), reference);
  }
  return results;
}

double pass_seconds(const std::vector<CellResult>& pass) {
  double s = 0.0;
  for (const CellResult& r : pass) s += r.seconds;
  return s;
}

void write_cell(Json& j, const CellResult& r) {
  const Cell& c = *r.cell;
  const tt::mc::RunStats& st = r.stats;
  std::uint64_t max_frontier = 0;
  for (const std::size_t f : st.frontier_sizes) max_frontier = std::max<std::uint64_t>(max_frontier, f);
  j.obj()
      .kv("name", c.name)
      .kv("lemma", tt::core::to_string(c.lemma))
      .kv("engine", c.expect == Expect::kBmcViolation ? "bmc" : tt::mc::to_string(c.opts.engine))
      .kv("reduction", tt::mc::to_string(c.opts.reduction))
      .kv("store", tt::mc::to_string(c.opts.store.kind))
      .kv("threads", c.opts.threads)
      .kv("n", c.cfg.n)
      .kv("faulty_node", c.cfg.faulty_node)
      .kv("golden_key", c.golden_key)
      .kv("golden_reduction", tt::mc::to_string(c.golden_reduction))
      .kv("seconds", r.seconds)
      .kv("reference_s", r.reference_s)
      .kv("ok", r.ok)
      .kv("verdict", r.verdict)
      .kv("error", r.error)
      .kv("states", std::uint64_t{st.states})
      .kv("transitions", std::uint64_t{st.transitions})
      .kv("depth", st.depth)
      .kv("levels", std::uint64_t{st.frontier_sizes.size()})
      .kv("max_frontier", max_frontier)
      .kv("memory_bytes", std::uint64_t{st.memory_bytes})
      .kv("cache_hits", std::uint64_t{st.cache_hits})
      .kv("dup_transitions", std::uint64_t{st.dup_transitions})
      .kv("trim_rounds", std::uint64_t{st.trim_rounds})
      .kv("canon_ops", std::uint64_t{st.canon_ops})
      .kv("ample_sets", std::uint64_t{st.ample_sets})
      .kv("pruned_combos", std::uint64_t{st.pruned_combos})
      .kv("proviso_fallbacks", std::uint64_t{st.proviso_fallbacks})
      .kv("cas_retries", std::uint64_t{st.cas_retries})
      .kv("spill_bytes", std::uint64_t{st.spill_bytes})
      .kv("spill_sync_waits", std::uint64_t{st.spill_sync_waits})
      .kv("solver_calls", std::uint64_t{st.solver_calls})
      .kv("clauses_reused", std::uint64_t{st.clauses_reused})
      .kv("proof_obligations", std::uint64_t{st.proof_obligations})
      .kv("conflicts", r.conflicts)
      .kv("bdd_peak_live_nodes", std::uint64_t{st.bdd_peak_live_nodes})
      .kv("bdd_unique_hit_rate", st.bdd_unique_hit_rate)
      .kv("bdd_op_cache_hit_rate", st.bdd_op_cache_hit_rate)
      .end();
}

void write_pass(Json& j, const std::vector<CellResult>& pass) {
  j.arr();
  for (const CellResult& r : pass) write_cell(j, r);
  j.end();
}

// ---------------------------------------------------------------- tracing

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< duration minus the part child spans cover
};

/// Per span name: count, total and self time, summed across threads.
std::map<std::string, SpanTotals> span_totals(const std::vector<tt::obs::ThreadEvents>& threads) {
  std::map<std::string, SpanTotals> out;
  for (const auto& te : threads) {
    struct Open {
      const tt::obs::TraceEvent* e;
      std::uint64_t end;
      std::uint64_t covered;
    };
    std::vector<const tt::obs::TraceEvent*> spans;
    for (const auto& e : te.events) {
      if (e.kind == tt::obs::EventKind::kSpan) spans.push_back(&e);
    }
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      SpanTotals& t = out[o.e->name];
      ++t.count;
      const double self = static_cast<double>(o.e->dur_ns - std::min(o.covered, o.e->dur_ns)) * 1e-9;
      t.total_s += static_cast<double>(o.e->dur_ns) * 1e-9;
      t.self_s += self;
    };
    for (const auto* e : spans) {
      while (!stack.empty() && stack.back().end <= e->ts_ns) {
        close(stack.back());
        stack.pop_back();
      }
      const std::uint64_t end = e->ts_ns + e->dur_ns;
      if (!stack.empty()) stack.back().covered += std::min(end, stack.back().end) - e->ts_ns;
      stack.push_back({e, end, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

struct ReplayRecord {
  std::size_t cell = 0;
  ttbench::ReplayResult r;
  std::string error;
};

ReplayRecord replay_cell(const PassCells& pc, std::size_t i) {
  const Cell& c = pc.cells[i];
  ReplayRecord rec;
  rec.cell = i;
  tt::obs::Span span("bench.replay");
  span.set_detail(c.name.c_str());
  try {
    std::unique_ptr<tt::tta::Cluster> raw;
    if (c.opts.reduction != tt::mc::ReductionKind::kNone) {
      raw = std::make_unique<tt::tta::Cluster>(c.cfg);
    }
    if (c.opts.store.kind == tt::mc::StoreKind::kShardedLocked) {
      auto store = std::make_unique<tt::ShardedStateIndexMap<tt::tta::Cluster::kWords>>(1);
      rec.r = ttbench::replay_levels(*pc.clusters[i], raw.get(), *store);
      tt::obs::Span release("replay.release");
      store.reset();
    } else {
      auto store = std::make_unique<tt::LockFreeStateIndexMap<tt::tta::Cluster::kWords>>(1);
      store->set_mem_budget(c.opts.store.mem_budget_bytes);
      if (!c.opts.store.spill_dir.empty()) store->set_spill_dir(c.opts.store.spill_dir);
      rec.r = ttbench::replay_levels(*pc.clusters[i], raw.get(), *store);
      tt::obs::Span release("replay.release");
      store.reset();
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  return rec;
}

void write_traced(Json& j, const std::vector<CellResult>& pass,
                  double untraced_wall, double traced_wall,
                  const std::vector<ReplayRecord>& replays,
                  const std::map<std::string, SpanTotals>& spans, const std::string& trace_path,
                  bool trace_written) {
  j.key("traced").obj();
  j.kv("untraced_wall_s", untraced_wall).kv("traced_wall_s", traced_wall);
  j.kv("trace_path", trace_path).kv("trace_written", trace_written);
  j.key("cells");
  write_pass(j, pass);
  j.key("replays").arr();
  for (const ReplayRecord& rec : replays) {
    const ttbench::ReplayResult& r = rec.r;
    const CellResult& v = pass[rec.cell];
    j.obj()
        .kv("name", v.cell->name)
        .kv("engine", tt::mc::to_string(v.cell->opts.engine))
        .kv("threads", v.cell->opts.threads)
        .kv("error", rec.error)
        .kv("states", std::uint64_t{r.states})
        .kv("transitions", std::uint64_t{r.transitions})
        .kv("raw_transitions", std::uint64_t{r.raw_transitions})
        .kv("verify_states", std::uint64_t{v.stats.states})
        .kv("verify_transitions", std::uint64_t{v.stats.transitions})
        .kv("verify_seconds", v.seconds)
        .kv("levels", std::uint64_t{r.levels})
        .kv("inserts", std::uint64_t{r.inserts})
        .kv("cache_hits", std::uint64_t{r.cache_hits})
        .kv("successors_s", r.successors_s)
        .kv("raw_successors_s", r.raw_successors_s)
        .kv("hash_s", r.hash_s)
        .kv("cache_s", r.cache_s)
        .kv("insert_s", r.insert_s)
        .kv("maintain_s", r.maintain_s)
        .end();
  }
  j.end();
  j.key("spans").obj();
  for (const auto& [name, t] : spans) {
    j.key(name)
        .obj()
        .kv("count", t.count)
        .kv("total_s", t.total_s)
        .kv("self_s", t.self_s)
        .end();
  }
  j.end();
  j.end();
}

// ---------------------------------------------------------------- golden

/// Runs every golden row under `seq` and `par`, refuses to write when they
/// disagree or when a row the repository already pins reads differently.
int record_golden(const std::string& path, int threads) {
  struct Pinned {
    const char* key;
    std::uint64_t states;
    std::uint64_t transitions;
  };
  // BENCH_results.json (fig6/safety/n5, fig6/safety2/n5) and
  // tests/core/golden_counts_test.cpp (fig6 n = 4), all at faulty node 0.
  const Pinned pinned[] = {
      {"safety/n5/node0", 70355, 8069907},
      {"safety_2/n5/hub0", 11284739, 27415048},
      {"safety/n4/node0", 6592, 482344},
  };
  struct Row {
    std::string key;
    std::uint64_t states, transitions;
  };
  std::vector<Row> rows;
  bool ok = true;
  for (const ttbench::GoldenRow& g : ttbench::golden_rows()) {
    tt::core::VerifyOptions seq;
    seq.engine = tt::mc::EngineKind::kSequential;
    seq.reduction = g.reduction;
    tt::core::VerifyOptions par = seq;
    par.engine = tt::mc::EngineKind::kParallel;
    par.threads = threads;
    const auto a = tt::core::verify(g.cfg, g.lemma, seq);
    const auto b = tt::core::verify(g.cfg, g.lemma, par);
    const bool agree = a.holds && b.holds && a.exhausted && b.exhausted &&
                       a.stats.states == b.stats.states &&
                       a.stats.transitions == b.stats.transitions;
    std::fprintf(stderr, "%-36s seq %zu/%zu %.2fs  par %zu/%zu %.2fs%s\n", g.key.c_str(),
                 a.stats.states, a.stats.transitions, a.stats.seconds, b.stats.states,
                 b.stats.transitions, b.stats.seconds, agree ? "" : "  DISAGREE");
    ok = ok && agree;
    for (const Pinned& pin : pinned) {
      if (g.key == pin.key && (a.stats.states != pin.states || a.stats.transitions != pin.transitions)) {
        std::fprintf(stderr, "%s: %zu/%zu differs from the pinned %" PRIu64 "/%" PRIu64 "\n",
                     pin.key, a.stats.states, a.stats.transitions, pin.states, pin.transitions);
        ok = false;
      }
    }
    rows.push_back({g.key, a.stats.states, a.stats.transitions});
  }
  if (!ok) {
    std::fprintf(stderr, "golden counts not written: seq/par disagreement or pinned mismatch\n");
    return 1;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"cells\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    \"%s\": {\"states\": %" PRIu64 ", \"transitions\": %" PRIu64 "}%s\n",
                 rows[i].key.c_str(), rows[i].states, rows[i].transitions,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: ttbench --workload W --seed S [--seconds T] [--quick] "
               "[--spill-dir D] [--trace-out FILE]\n"
               "       ttbench --record-golden FILE\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--quick") {
      o.quick = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (a == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || o.seconds < 0) return false;
    } else if (a == "--spill-dir") {
      o.spill_dir = argv[++i];
    } else if (a == "--trace-out") {
      o.trace_out = argv[++i];
    } else if (a == "--record-golden") {
      o.record_golden = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() || !o.record_golden.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return usage();
  const std::vector<int> cpus = usable_cpus();
  const int nproc = cpus.empty() ? std::max(1u, std::thread::hardware_concurrency())
                                 : static_cast<int>(cpus.size());
  const int threads = std::min(kMaxThreads, nproc);
  if (!o.record_golden.empty()) return record_golden(o.record_golden, threads);

  std::vector<double> setup_s, star_ir_s;
  Prepared p;
  try {
    // Each set-up runs on the next CPU in turn, so it starts with cold
    // caches, as the one set-up of a real run does, and the median does not
    // hang on which core the process happened to land on.
    for (int k = 0; k < kSetupReps; ++k) {
      if (!cpus.empty()) run_on({cpus[static_cast<std::size_t>(k) % cpus.size()]});
      const auto t0 = Clock::now();
      Prepared next = set_up(o, threads);
      setup_s.push_back(since(t0));
      star_ir_s.push_back(next.star_ir_s);
      p = std::move(next);
    }
    run_on(cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttbench: set-up failed: %s\n", e.what());
    return 2;
  }
  Reference reference;
  std::vector<std::vector<CellResult>> passes;
  const double rotation = static_cast<double>(p.rotation.size());
  const auto run_start = Clock::now();
  do {
    for (std::size_t k = 0; k < p.rotation.size(); ++k) {
      passes.push_back(run_pass(p, k, &reference));
    }
  } while (since(run_start) * (1.0 + rotation / static_cast<double>(passes.size())) <=
           o.seconds);
  const std::size_t peak_rss = tt::obs::peak_rss_bytes();

  std::vector<CellResult> traced_pass;
  std::vector<ReplayRecord> replays;
  std::map<std::string, SpanTotals> spans;
  double traced_wall = 0.0;
  bool trace_written = false;
  const bool traced = !o.trace_out.empty();
  if (traced) {
    tt::obs::Tracer tracer;
    tracer.install();
    {
      tt::obs::Span span("bench.setup");
      (void)set_up(o, threads);
    }
    {
      tt::obs::Span span("bench.pass");
      traced_pass = run_pass(p, 0, nullptr);
    }
    traced_wall = pass_seconds(traced_pass);
    const PassCells& pc = p.rotation.front();
    for (std::size_t i = 0; i < pc.cells.size(); ++i) {
      if (pc.cells[i].replay) replays.push_back(replay_cell(pc, i));
    }
    tracer.uninstall();
    spans = span_totals(tracer.drain());
    trace_written = tt::obs::write_chrome_trace(tracer, o.trace_out);
  }

  Json j(stdout);
  j.obj()
      .kv("workload", o.workload)
      .kv("seed", std::uint64_t{o.seed})
      .kv("quick", o.quick)
      .kv("threads", threads)
      .kv("nproc", nproc)
      .kv("possibly_one_core", tt::probe_possibly_one_core());
  j.key("setup_s").arr();
  for (const double s : setup_s) j.val(s);
  j.end().key("star_ir_build_s").arr();
  for (const double s : star_ir_s) j.val(s);
  j.end().key("passes").arr();
  for (const auto& pass : passes) write_pass(j, pass);
  j.end();
  j.kv("peak_rss_bytes", std::uint64_t{peak_rss});
  if (traced) {
    write_traced(j, traced_pass, pass_seconds(passes.front()), traced_wall, replays, spans,
                 o.trace_out, trace_written);
  }
  j.end();
  std::fputc('\n', stdout);
  return 0;
}
