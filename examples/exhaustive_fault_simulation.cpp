// Exhaustive fault simulation from the command line: pick a cluster size, a
// faulty component, the fault degree, and a lemma; the tool explores every
// admitted behaviour and reports the verdict (with a counterexample trace
// when the lemma fails).
//
//   ./exhaustive_fault_simulation [options]
//     --n <3..6>            cluster size              (default 3)
//     --lemma <name>        safety|liveness|timeliness|safety_2|
//                           hub_agreement|reintegration
//     --faulty-node <id>    inject a Byzantine node
//     --faulty-hub <0|1>    inject a faulty guardian
//     --degree <1..6>       fault-degree dial         (default 6)
//     --bound <slots>       deadline for timeliness/safety_2
//     --window <slots>      wake-up window delta_init (default 4)
//     --restarts <k>        transient-restart budget (§2.1)
//     --no-feedback         disable the feedback optimization
//     --no-bigbang          disable the big-bang mechanism (§5.2)
//     --engine <kind>       auto|seq|par|sym|kind|ic3 (default auto). seq =
//                           the frontier BFS at one thread on invariant
//                           lemmas and the lasso DFS on liveness lemmas;
//                           par = the frontier BFS / OWCTY on --threads
//                           threads; auto = par. kind =
//                           k-induction and ic3 = IC3/PDR are the SAT-based
//                           proof engines (DESIGN.md §3.10): they run on the
//                           star-cluster IR instead of enumerating states
//                           and can PROVE an invariant lemma outright
//                           (verdict PROVED@k), not merely exhaust a finite
//                           search; invariant lemmas only, --reduction none
//     --reduction <kind>    none|sym|por|sym+por state-space reduction: sym
//                           explores the symmetry quotient (orbit
//                           representatives, DESIGN.md §3.6), por the
//                           ample-set clamp quotient (DESIGN.md §3.8),
//                           sym+por composes both; counterexamples are
//                           re-concretized against the raw model
//     --threads <k>         worker threads for par/auto, k >= 0 (seq runs
//                           on one; default or 0: TTSTART_THREADS env, else
//                           all cores)
//     --store <kind>        locked|lockfree explicit-state store backend
//                           (default locked); lockfree adds closed-set
//                           compression and an out-of-core spill file to
//                           the same owner-sharded inserts (DESIGN.md §3.9). Only
//                           seq/par/auto on invariant lemmas and par/auto
//                           on liveness lemmas keep such a store; lockfree
//                           anywhere else is a usage error (exit 2)
//     --mem-budget-mb <mb>  in-RAM budget for the lockfree store: between
//                           levels, the oldest sealed compressed pages past
//                           the budget are written to disk and read back
//                           from there; counts and verdicts stay exact.
//                           A budget without --store lockfree is a usage
//                           error (exit 2)
//     --spill-dir <path>    directory for the store's spill file
//                           (default: TTSTART_SPILL_DIR, else TMPDIR, else
//                           /tmp); an unwritable directory is a hard error,
//                           never a silent /tmp fallback
//     --trace-out <file>    write a Chrome trace-event JSON (chrome://tracing,
//                           Perfetto) of the run
//     --progress <sec>      print a heartbeat line every <sec> seconds
//     --quiet               suppress heartbeat lines (tracing unaffected)
//
//   Exit codes: 0 the lemma holds, 1 it is violated, 2 usage error, 3 a
//   resource is exhausted (state-id space, or a spill write failed, e.g.
//   on a full disk).
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <system_error>
#include <stdexcept>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/verifier.hpp"
#include "obs/obs.hpp"
#include "support/sharded_state_index_map.hpp"  // StateCapacityError
#include "tta/trace_printer.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "see header comment of exhaustive_fault_simulation.cpp\n");
  return 2;
}

bool spill_dir_writable(const std::string& dir) {
#if defined(__unix__) || defined(__APPLE__)
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  return ::access(dir.c_str(), W_OK | X_OK) == 0;
#else
  (void)dir;
  return true;  // defer to the spill file's own error path
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tt;

  obs::ObsOptions obs_opts;
  if (!obs::parse_obs_args(argc, argv, obs_opts)) return usage();
  obs::ScopedObservability obs_session(obs_opts);

  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.init_window = 4;
  cfg.hub_init_window = 4;
  core::Lemma lemma = core::Lemma::kSafety;
  core::VerifyOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The whole token must be a decimal integer: "abc" and "3x" are usage
    // errors, not 0 and 3.
    auto next_int = [&](int& out) {
      if (i + 1 >= argc) return false;
      const char* first = argv[++i];
      const char* last = first + std::strlen(first);
      const auto [end, ec] = std::from_chars(first, last, out);
      return ec == std::errc{} && end == last;
    };
    if (arg == "--n") {
      if (!next_int(cfg.n)) return usage();
    } else if (arg == "--faulty-node") {
      if (!next_int(cfg.faulty_node)) return usage();
    } else if (arg == "--faulty-hub") {
      if (!next_int(cfg.faulty_hub)) return usage();
    } else if (arg == "--degree") {
      if (!next_int(cfg.fault_degree)) return usage();
    } else if (arg == "--bound") {
      if (!next_int(cfg.timeliness_bound)) return usage();
    } else if (arg == "--window") {
      if (!next_int(cfg.init_window)) return usage();
      cfg.hub_init_window = cfg.init_window;
    } else if (arg == "--restarts") {
      if (!next_int(cfg.transient_restarts)) return usage();
    } else if (arg == "--no-feedback") {
      cfg.feedback = false;
    } else if (arg == "--no-bigbang") {
      cfg.big_bang = false;
    } else if (arg == "--threads") {
      if (!next_int(opts.threads) || opts.threads < 0) return usage();
    } else if (arg == "--engine") {
      if (i + 1 >= argc) return usage();
      if (!mc::parse_engine(argv[++i], opts.engine)) return usage();
    } else if (arg == "--reduction") {
      if (i + 1 >= argc) return usage();
      if (!mc::parse_reduction(argv[++i], opts.reduction)) return usage();
    } else if (arg == "--store") {
      if (i + 1 >= argc) return usage();
      if (!mc::parse_store(argv[++i], opts.store.kind)) return usage();
    } else if (arg == "--mem-budget-mb") {
      int mb = 0;
      if (!next_int(mb) || mb < 0) return usage();
      opts.store.mem_budget_bytes = static_cast<std::size_t>(mb) * 1024 * 1024;
    } else if (arg == "--spill-dir") {
      if (i + 1 >= argc) return usage();
      opts.store.spill_dir = argv[++i];
      // Fail fast, before hours of exploration: the spill file would also
      // hard-error, but only once the budget forces the first spill.
      if (!spill_dir_writable(opts.store.spill_dir)) {
        std::fprintf(stderr, "error: spill directory '%s' is not a writable directory\n",
                     opts.store.spill_dir.c_str());
        return 2;
      }
    } else if (arg == "--lemma") {
      if (i + 1 >= argc) return usage();
      const std::string name = argv[++i];
      if (name == "safety") {
        lemma = core::Lemma::kSafety;
      } else if (name == "liveness") {
        lemma = core::Lemma::kLiveness;
      } else if (name == "timeliness") {
        lemma = core::Lemma::kTimeliness;
      } else if (name == "safety_2") {
        lemma = core::Lemma::kSafety2;
      } else if (name == "hub_agreement") {
        lemma = core::Lemma::kHubAgreement;
      } else if (name == "reintegration") {
        lemma = core::Lemma::kReintegration;
      } else {
        return usage();
      }
    } else {
      return usage();
    }
  }

  std::printf("configuration: %s\n", cfg.summary().c_str());
  std::printf("lemma: %s\n", core::to_string(lemma));

  core::VerificationResult result;
  try {
    result = core::verify(cfg, lemma, opts);
  } catch (const std::invalid_argument& e) {
    // Unsupported flag combination (e.g. a proof engine asked for a liveness
    // lemma or a reduced run) — a usage error, not a crash.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const StateCapacityError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  std::printf("verdict: %s  (states=%zu transitions=%zu depth=%d time=%.2fs mem=%.1fMB)\n",
              result.verdict_text.c_str(), result.stats.states, result.stats.transitions,
              result.stats.depth, result.stats.seconds,
              static_cast<double>(result.stats.memory_bytes) / 1e6);
  std::printf("engine: %s  threads=%d  states/sec=%.0f%s\n",
              mc::to_string(result.engine_used), result.stats.threads,
              result.stats.states_per_sec(),
              result.stats.exhausted ? "" : "  [search truncated by limits]");
  // One machine-greppable `section: name=value ...` line per counter section
  // the run carries (mc/run_stats.hpp); the CI proof-smoke and store-smoke
  // steps assert on the proof and store lines.
  for (const mc::Section section : mc::kSections) {
    if (!result.stats.carries(section)) continue;
    std::ostringstream line;
    line << mc::to_string(section) << ':';
    if (section == mc::Section::kStore) line << ' ' << mc::to_string(opts.store.kind) << ' ';
    if (section == mc::Section::kReduction) line << ' ' << mc::to_string(opts.reduction) << ' ';
    mc::for_each_counter(result.stats, [&](mc::Section s, const char* name, auto value) {
      if (s == section) line << ' ' << name << '=' << value;
    });
    if (section == mc::Section::kReduction) line << " (quotient states above)";
    std::printf("%s\n", line.str().c_str());
  }

  if (!result.holds && !result.trace.empty()) {
    const tta::Cluster cluster(core::prepare_config(cfg, lemma));
    std::printf("\ncounterexample (%zu steps):\n%s", result.trace.size() - 1,
                tta::describe_trace(cluster, result.trace).c_str());
    if (result.loop_start > 0) {
      std::printf("(loops back to t=%zu)\n", result.loop_start);
    }
  }
  return result.holds ? 0 : 1;
}
