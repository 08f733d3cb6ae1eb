#!/usr/bin/env python3
"""Runs the ttbench benchmark: builds it, runs its workloads, computes and
checks every metric named in BENCHMARK.json. See benchmark/README.md.

  python3 benchmark/run.py [--seed S] [--quick]
      Every workload, each in its own process: untraced passes for the
      end-to-end metrics, then a traced pass and the layer replays for the
      per-layer metrics. Prints every metric as `workload metric value
      unit`, checks every verdict and count, writes
      build-benchmark/results/<seed>.json, and exits 1 if any cell failed.
      --quick runs one pass at the smaller sizes.

  python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
      One run of one workload. The last line of stdout is one JSON object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.

The build goes to build-benchmark/ at the root of the checkout, and every
file the benchmark writes stays inside that directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-benchmark"
RESULTS = BUILD / "results"
SPILL = BUILD / "spill"
UNATTRIBUTED_LIMIT = 0.10  # share of the traced wall time no layer span covers
# ttbench's reference work takes this long on an idle core of the 4-vCPU
# machine the bounds were set on; time metrics are scaled to that speed
# (README.md, "Machine speed").
REFERENCE_S = 0.030


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run at all (no result is printed)."""


# ------------------------------------------------------------------ build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ttbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_ttbench(workload, seed, seconds, quick, trace_path=None):
    SPILL.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "ttbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--spill-dir", str(SPILL)]
    if quick:
        cmd.append("--quick")
    if trace_path:
        cmd += ["--trace-out", str(trace_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        raise BenchError(f"ttbench exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout)


# ------------------------------------------------------------------ checks

def load_golden():
    with open(HERE / "golden.json", encoding="utf-8") as f:
        return json.load(f)["cells"]


def check_cells(cells, golden, label):
    """Verdicts (checked by ttbench) and counts against golden.json."""
    failures = []
    for c in cells:
        where = f"{label} {c['name']}"
        if not c["ok"]:
            failures.append(f"{where}: {c['error']}")
            continue
        if not c["golden_key"]:
            continue
        row = golden.get(c["golden_key"])
        if row is None:
            failures.append(f"{where}: no golden row {c['golden_key']}")
        elif c["reduction"] == "none":
            if (c["states"], c["transitions"]) != (row["states"], row["transitions"]):
                failures.append(f"{where}: {c['states']}/{c['transitions']} states/transitions, "
                                f"golden {row['states']}/{row['transitions']}")
        elif c["states"] > row["states"]:
            failures.append(f"{where}: {c['states']} states exceed the bound {row['states']} "
                            f"({c['golden_key']})")
    return failures


def check_traced(t):
    """Replay counts, the Chrome trace, and the unattributed share."""
    failures = []
    for r in t["replays"]:
        if r["error"]:
            failures.append(f"replay {r['name']}: {r['error']}")
        elif (r["states"], r["transitions"]) != (r["verify_states"], r["verify_transitions"]):
            failures.append(f"replay {r['name']}: reached {r['states']}/{r['transitions']}, "
                            f"verify() {r['verify_states']}/{r['verify_transitions']}")
    if not t["trace_written"]:
        failures.append(f"trace {t['trace_path']} not written")
    else:
        validator = ROOT / "scripts" / "validate_trace.py"
        proc = subprocess.run([sys.executable, str(validator), t["trace_path"]],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            failures.append(f"trace {t['trace_path']} fails validate_trace.py: "
                            + proc.stdout.strip()[-400:])
    wall, unattributed = unattributed_time(t["spans"])
    if unattributed > UNATTRIBUTED_LIMIT * wall:
        failures.append(f"unattributed {unattributed:.3f}s exceeds {UNATTRIBUTED_LIMIT:.0%} "
                        f"of the traced {wall:.3f}s")
    return failures


# ------------------------------------------------------------------ metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def explicit(cell):
    return cell["engine"] in ("seq", "par")


def end_to_end(data):
    """Each end-to-end metric as (value, per-pass samples), plus the
    machine-speed scale the time metrics were multiplied by.

    Passes are not repeats: pass k runs the node-fault cells at other
    faulty nodes than pass k-1. So a cell's time is its median time per
    transition over the passes times its mean transitions per pass (its
    median time where it enumerates nothing), and wall_s sums the cells.
    """
    passes = data["passes"]
    scale = REFERENCE_S / median([c["reference_s"] for p in passes for c in p])
    by_cell = {}
    for p in passes:
        for c in p:
            by_cell.setdefault(c["name"], []).append(c)
    time, trans, states = {}, {}, {}
    for name, runs in by_cell.items():
        trans[name] = statistics.mean(c["transitions"] for c in runs)
        states[name] = statistics.mean(c["states"] for c in runs)
        if trans[name] > 0:
            time[name] = median([c["seconds"] / c["transitions"] for c in runs]) * trans[name]
        else:
            time[name] = median([c["seconds"] for c in runs])
        time[name] *= scale

    def rate(counts):
        used = [n for n in counts if counts[n] > 0]
        return ratio(sum(counts[n] for n in used), sum(time[n] for n in used))

    def pass_rate(p, field):
        used = [c for c in p if c[field] > 0]
        return ratio(sum(c[field] for c in used), scale * sum(c["seconds"] for c in used))

    rss = data["peak_rss_bytes"] / 2**20
    return {
        "setup_s": (scale * median(data["setup_s"]), [scale * x for x in data["setup_s"]]),
        "wall_s": (sum(time.values()), [scale * sum(c["seconds"] for c in p) for p in passes]),
        "transitions_per_s": (rate(trans), [pass_rate(p, "transitions") for p in passes]),
        "states_per_s": (rate(states), [pass_rate(p, "states") for p in passes]),
        "peak_rss_mb": (rss, [rss]),
        "stored_states": (sum(states.values()), [sum(c["states"] for c in p) for p in passes]),
    }, scale


# Span name prefix -> the layer (src/ module) whose code it times. The
# benchmark's own spans (bench.*) time ttbench itself, not a layer.
LAYER_PREFIXES = [
    ("bench.", "bench"),
    ("replay.successors", "tta"), ("replay.raw_successors", "tta"), ("replay.", "support"),
    ("tta.", "tta"), ("canon", "tta"),
    ("verify", "core"),
    ("store.", "support"),
    ("bfs.symbolic", "bdd"), ("sym.", "bdd"), ("symlive.", "bdd"), ("liveness.symbolic", "bdd"),
    ("bdd.", "bdd"),
    ("bfs.", "mc"), ("owcty.", "mc"), ("liveness.", "mc"),
    ("kind.", "bmc"), ("ic3.", "bmc"), ("bmc.", "bmc"),
]


def layer_of(span):
    for prefix, layer in LAYER_PREFIXES:
        if span.startswith(prefix):
            return layer
    return "other"


def layers(spans):
    out = {}
    for name, s in spans.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + s["self_s"]
    return out


def unattributed_time(spans):
    """(traced wall time, the part of it no layer span covers)."""
    wall = sum(spans.get(n, {}).get("total_s", 0.0)
               for n in ("bench.setup", "bench.pass", "bench.replay"))
    unattributed = sum(s["self_s"] for n, s in spans.items() if layer_of(n) == "bench")
    return wall, unattributed


def per_layer(data):
    t = data["traced"]
    cells, replays, spans = t["cells"], t["replays"], t["spans"]
    untraced = data["passes"][0]

    def total(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def cell_sum(field, pred=lambda c: True):
        return sum(c[field] for c in cells if pred(c))

    def rep_sum(field):
        return sum(r[field] for r in replays)

    stages = ("successors_s", "hash_s", "cache_s", "insert_s", "maintain_s")
    one_thread = [r for r in replays if r["engine"] == "par" and r["threads"] == 1]
    overhead = sum(r["verify_seconds"] - sum(r[f] for f in stages) for r in one_thread)
    set_ops = sum(r["verify_seconds"] - r["successors_s"] for r in replays if r["engine"] == "sym")

    def same_cell(a, b):
        return all(a[k] == b[k] for k in ("lemma", "n", "faulty_node", "reduction", "engine"))

    speedup = 0.0
    for one in (c for c in untraced if c["engine"] == "par" and c["threads"] == 1):
        for many in (c for c in untraced if same_cell(c, one) and c["threads"] > 1):
            speedup = ratio(one["seconds"], many["seconds"])
    sym_cells = [c for c in cells if c["engine"] == "sym"]
    _, unattributed = unattributed_time(spans)
    transitions = cell_sum("transitions", explicit)

    return {
        "tta.successors_s": rep_sum("successors_s"),
        "tta.ns_per_transition": ratio(rep_sum("successors_s"), rep_sum("transitions")) * 1e9,
        "tta.reduce_s": sum(r["successors_s"] - ratio(r["raw_successors_s"], r["raw_transitions"])
                            * r["transitions"] for r in replays if r["raw_transitions"] > 0),
        "tta.canon_ops": cell_sum("canon_ops"),
        "tta.ample_ratio": ratio(cell_sum("pruned_combos"), cell_sum("ample_sets")),
        "tta.proviso_fallbacks": cell_sum("proviso_fallbacks"),
        "tta.star_ir_build_s": median(data["star_ir_build_s"]),
        "support.hash_s": rep_sum("hash_s"),
        "support.cache_s": rep_sum("cache_s"),
        "support.cache_hit_ratio": ratio(cell_sum("cache_hits", explicit), transitions),
        "support.store_insert_s": rep_sum("insert_s"),
        "support.store_fresh_ratio": ratio(rep_sum("states"), rep_sum("inserts")),
        "support.bytes_per_state": ratio(cell_sum("memory_bytes", explicit),
                                         cell_sum("states", explicit)),
        "support.maintain_s": rep_sum("maintain_s"),
        "support.spill_bytes": cell_sum("spill_bytes"),
        "support.spill_sync_waits": cell_sum("spill_sync_waits"),
        "support.cas_retries": cell_sum("cas_retries"),
        "mc.expand_s": total("bfs.expand", "owcty.expand"),
        "mc.drain_s": total("bfs.drain", "owcty.drain"),
        "mc.overhead_s": overhead,
        "mc.parallel_speedup": speedup,
        "mc.owcty_trim_s": total("owcty.trim_round"),
        "mc.trim_rounds": cell_sum("trim_rounds"),
        "mc.levels": cell_sum("levels", explicit),
        "mc.max_frontier": max([c["max_frontier"] for c in cells if explicit(c)], default=0),
        "bdd.set_ops_s": set_ops,
        "bdd.and_exists_s": total("bdd.and_exists"),
        "bdd.gc_s": total("bdd.gc"),
        "bdd.peak_live_nodes": max([c["bdd_peak_live_nodes"] for c in cells], default=0),
        "bdd.op_cache_hit_rate": median([c["bdd_op_cache_hit_rate"] for c in sym_cells]),
        "bdd.unique_hit_rate": median([c["bdd_unique_hit_rate"] for c in sym_cells]),
        "bmc.kind_s": total("kind.run"),
        "bmc.kind_diameter_s": total("kind.diameter"),
        "bmc.kind_step_s": total("kind.depth"),
        "bmc.ic3_s": total("ic3.run"),
        "bmc.ic3_obligations": cell_sum("proof_obligations"),
        "bmc.bmc_s": total("bmc.run"),
        "sat.solver_calls": cell_sum("solver_calls"),
        "sat.conflicts": cell_sum("conflicts"),
        "sat.clauses_reused": cell_sum("clauses_reused"),
        "core.self_s": spans.get("verify", {}).get("self_s", 0.0),
        "obs.overhead_ratio": ratio(t["traced_wall_s"], t["untraced_wall_s"]) - 1.0,
        "obs.unattributed_s": unattributed,
    }


# Thread-scaling metrics: not evidence of a speedup on a possibly one-core
# machine.
THREAD_SCALING = {"mc.parallel_speedup"}


# ------------------------------------------------------------------ results

def provenance(data, quick, seconds):
    def run(cmd):
        try:
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            return p.stdout.strip() if p.returncode == 0 else None
        except OSError:
            return None

    cache = {}
    try:
        with open(BUILD / "CMakeCache.txt", encoding="utf-8") as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith(("//", "#")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = run([compiler, "--version"]) if compiler else None
    sha = run(["git", "rev-parse", "HEAD"])
    status = run(["git", "status", "--porcelain"])
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "compiler": compiler,
        "compiler_version": version.splitlines()[0] if version else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "nproc": data["nproc"],
        "threads": data["threads"],
        "possibly_one_core": data["possibly_one_core"],
        "seed": data["seed"],
        "reps": len(data["passes"]),
        "quick": quick,
        "seconds": seconds,
    }


def save(seed, workload, entry):
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{seed}.json"
    doc = {"seed": seed, "workloads": {}}
    if path.is_file():
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    doc["workloads"].setdefault(workload, {}).update(entry)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    tmp.replace(path)
    return path


def run_workload(bench, workload, seed, seconds, quick, traced, golden):
    """One ttbench process: untraced passes, then with `traced` a traced
    pass and the layer replays. Returns ({"end_to_end": {name: (value,
    unit)}, "per_layer": ...}, cells attempted, failures, possibly_one_core).
    """
    trace_path = RESULTS / f"trace-{workload}-{seed}.json" if traced else None
    if traced:
        RESULTS.mkdir(parents=True, exist_ok=True)
    data = run_ttbench(workload, seed, seconds, quick, trace_path)
    failures = []
    attempted = 0
    for i, p in enumerate(data["passes"]):
        attempted += len(p)
        failures += check_cells(p, golden, f"pass {i}")
    cells = {c["name"]: {k: c[k] for k in ("states", "transitions", "verdict", "faulty_node")}
             for c in data["passes"][0]}
    values, scale = end_to_end(data)
    spec = bench["end_to_end"]
    metrics = {"end_to_end": {m["name"]: (values[m["name"]][0], m["unit"]) for m in spec}}
    entry = {"provenance": provenance(data, quick, seconds), "cells": cells,
             "failures": list(failures), "machine_scale": scale,
             "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"],
                                     "samples": values[m["name"]][1]} for m in spec}}
    if traced:
        t = data["traced"]
        attempted += len(t["cells"]) + len(t["replays"])
        traced_failures = check_cells(t["cells"], golden, "traced") + check_traced(t)
        failures += traced_failures
        values = per_layer(data)
        metrics["per_layer"] = {m["name"]: (values[m["name"]], m["unit"])
                                for m in bench["per_layer"]}
        entry["traced"] = {
            "failures": traced_failures,
            "unverified": sorted(THREAD_SCALING) if data["possibly_one_core"] else [],
            "layers": layers(t["spans"]), "trace_path": t["trace_path"],
            "replays": t["replays"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics["per_layer"].items()}}
    save(seed, workload, entry)
    return metrics, attempted, failures, data["possibly_one_core"]


def print_metrics(workload, metrics, one_core):
    for name, (value, unit) in metrics.items():
        note = "  (unverified: possibly one core)" if one_core and name in THREAD_SCALING else ""
        print(f"{workload} {name} {value:.6g} {unit}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; one of {', '.join(names)}")
        build()
        golden = load_golden()
        seconds = 0.0 if args.quick else (
            args.seconds if args.seconds is not None else bench["run_seconds"])

        if args.workload is not None:
            kind = "per_layer" if args.trace == 1 else "end_to_end"
            metrics, attempted, failures, one_core = run_workload(
                bench, args.workload, args.seed, seconds, args.quick, args.trace == 1, golden)
            print_metrics(args.workload, metrics[kind], one_core)
            for f in failures:
                log("FAIL " + f)
            print(json.dumps({
                "correct": not failures, "attempted": attempted, "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics[kind].items()}}))
            return 1 if failures else 0

        total, failed = 0, []
        for w in names:
            metrics, attempted, failures, one_core = run_workload(
                bench, w, args.seed, seconds, args.quick, True, golden)
            print_metrics(w, metrics["end_to_end"], one_core)
            print_metrics(w, metrics["per_layer"], one_core)
            total += attempted
            failed += [f"{w}: {f}" for f in failures]
        for f in failed:
            print("FAIL " + f)
        print(f"{total} cell runs, {len(failed)} failed; results in {RESULTS / f'{args.seed}.json'}")
        return 1 if failed else 0
    except BenchError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
