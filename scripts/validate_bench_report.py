#!/usr/bin/env python3
"""Validate a ttstart-bench report file (BENCH_results.json).

Accepts schema ttstart-bench-v10, the one the benches write and the committed
report carries. Besides the required run columns, a record may carry row
metadata (METADATA_FIELDS) and the counter columns of each RunStats section
its run carries (COUNTER_FIELDS, by section). The counters are defined, and
documented, once: the TT_RUN_COUNTERS table in src/mc/run_stats.hpp. A
tier-1 test (BenchReport.ValidatorColumnsMatchCounterTable) fails when this
list drifts from that table. Numeric fields must be non-negative.

Checks the envelope, the per-record field set and types, and basic value
sanity (non-negative counts/times, verdict non-empty, threads >= 1). The
--require* flags (see --help) additionally fail unless the named benches,
engines, experiment/engine pairs, reductions or stores contributed at least
one record; CI uses them so no leg of the sweep can silently drop out. A
reduced row counts for --require-reduction only if it carries `canon_ops`,
and a por/sym+por row only if it also carries the por section's columns.

Exit code 0 on success, 1 on any violation (all violations are listed).
"""

import argparse
import json
import sys

REQUIRED_FIELDS = {
    "bench": str,
    "experiment": str,
    "engine": str,
    "threads": int,
    "states": int,
    "transitions": int,
    "seconds": (int, float),
    "states_per_sec": (int, float),
    "exhausted": bool,
    "verdict": str,
}

SCHEMA = "ttstart-bench-v10"

METADATA_FIELDS = {
    "reduction": str,
    "reduction_ratio": (int, float),
    "possibly_one_core": bool,
    "store": str,
    "resident_bytes": int,
}

# The counter columns, by section, in src/mc/run_stats.hpp table order.
COUNTER_FIELDS = {
    name: (int, float) if name.endswith("_rate") else int
    for name in (
        "solver_calls clauses_reused frames proof_obligations "  # proof
        "bdd_peak_live_nodes bdd_gc_collections bdd_unique_hit_rate "  # bdd
        "bdd_op_cache_hit_rate bdd_iterations "
        "pages_compressed spill_bytes bloom_negatives "  # store
        "spill_async_pages spill_sync_waits "
        "trim_rounds residue_states "  # owcty
        "canon_ops canon_swaps "  # reduction
        "ample_sets pruned_combos proviso_fallbacks"  # por
    ).split()
}

POR_FIELDS = ("ample_sets", "pruned_combos", "proviso_fallbacks")

# Optional per-record fields; typed when present.
OPTIONAL_FIELDS = {**METADATA_FIELDS, **COUNTER_FIELDS}

REDUCTION_NAMES = ("none", "sym", "por", "sym+por")
POR_REDUCTIONS = ("por", "sym+por")
STORE_NAMES = ("locked", "lockfree")


def validate(doc, require, require_engines, require_engine_for, require_reduction,
             require_stores):
    errors = []
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    schema = doc.get("schema")
    if schema != SCHEMA:
        errors.append(f"schema is {schema!r}, expected {SCHEMA!r}")
    results = doc.get("results")
    if not isinstance(results, list):
        return errors + ["'results' is missing or not an array"]
    if not results:
        errors.append("'results' is empty")

    seen_benches = set()
    seen_engines = set()
    seen_experiment_engines = set()
    seen_reductions = set()
    seen_stores = set()
    for i, rec in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{where}: not an object")
            continue
        for field, ftype in {**REQUIRED_FIELDS, **OPTIONAL_FIELDS}.items():
            if field not in rec:
                if field in REQUIRED_FIELDS:
                    errors.append(f"{where}: missing field '{field}'")
                continue
            v = rec[field]
            if not isinstance(v, ftype) or (ftype is not bool and isinstance(v, bool)):
                errors.append(
                    f"{where}: field '{field}' has type "
                    f"{type(v).__name__}, expected {ftype}"
                )
            elif field == "reduction" and v not in REDUCTION_NAMES:
                errors.append(
                    f"{where}: reduction is {v!r}, "
                    f"expected one of {REDUCTION_NAMES!r}"
                )
            elif field == "store" and v not in STORE_NAMES:
                errors.append(
                    f"{where}: store is {v!r}, "
                    f"expected one of {STORE_NAMES!r}"
                )
            elif isinstance(v, (int, float)) and not isinstance(v, bool) and v < 0:
                errors.append(f"{where} ({rec.get('experiment')}): {field} < 0")
        unknown = set(rec) - set(REQUIRED_FIELDS) - set(OPTIONAL_FIELDS)
        if unknown:
            errors.append(f"{where}: unknown field(s) {sorted(unknown)}")
        if isinstance(rec.get("engine"), str):
            seen_engines.add(rec["engine"])
            if isinstance(rec.get("experiment"), str):
                seen_experiment_engines.add((rec["experiment"], rec["engine"]))
        if isinstance(rec.get("bench"), str):
            seen_benches.add(rec["bench"])
            exp = rec.get("experiment")
            if isinstance(rec.get("threads"), int) and rec["threads"] < 1:
                errors.append(f"{where} ({exp}): threads < 1")
            if rec.get("experiment") == "" or rec.get("verdict") == "":
                errors.append(f"{where}: empty experiment or verdict")
        reduction = rec.get("reduction")
        if (
            isinstance(reduction, str)
            and reduction != "none"
            and isinstance(rec.get("canon_ops"), int)
        ):
            # por/sym+por rows only count as present when they carry the
            # partial-order columns too — a row that lost them would hide a
            # stats-plumbing regression.
            if reduction not in POR_REDUCTIONS or all(
                isinstance(rec.get(f), int) for f in POR_FIELDS
            ):
                seen_reductions.add(reduction)
        if isinstance(rec.get("store"), str):
            seen_stores.add(rec["store"])

    for bench in require:
        if bench not in seen_benches:
            errors.append(f"required bench '{bench}' contributed no records")
    for engine in require_engines:
        if engine not in seen_engines:
            errors.append(f"required engine '{engine}' contributed no records")
    for spec in require_engine_for:
        substr, _, engine = spec.partition(":")
        if not substr or not engine:
            errors.append(f"--require-engine-for {spec!r}: expected SUBSTR:ENGINE")
            continue
        if not any(
            substr in exp and eng == engine for exp, eng in seen_experiment_engines
        ):
            errors.append(
                f"no record with {substr!r} in its experiment ran on engine "
                f"'{engine}'"
            )
    for name in require_reduction:
        if name not in REDUCTION_NAMES or name == "none":
            errors.append(
                f"--require-reduction: unknown reduction {name!r}, expected "
                f"one of {[n for n in REDUCTION_NAMES if n != 'none']!r}"
            )
        elif name not in seen_reductions:
            errors.append(
                f"no record with reduction {name!r} carrying its reduction "
                "columns (--require-reduction)"
            )
    for store in require_stores:
        if store not in seen_stores:
            errors.append(f"required store '{store}' contributed no records")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="path to BENCH_results.json")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="BENCH",
        help="bench name that must have >= 1 record (repeatable)",
    )
    parser.add_argument(
        "--require-engine",
        action="append",
        default=[],
        metavar="ENGINE[,ENGINE...]",
        help="engine name(s) that must each have >= 1 record "
        "(repeatable; commas separate names within one flag)",
    )
    parser.add_argument(
        "--require-engine-for",
        action="append",
        default=[],
        metavar="SUBSTR:ENGINE",
        help="require >= 1 record whose experiment contains SUBSTR to have "
        "run on ENGINE (repeatable)",
    )
    parser.add_argument(
        "--require-reduction",
        default="",
        metavar="LIST",
        help="comma list of reduction names (e.g. 'sym,por,sym+por'); each "
        "must have >= 1 record carrying its reduction columns",
    )
    parser.add_argument(
        "--require-store",
        action="append",
        default=[],
        metavar="STORE",
        help="store name ('locked'/'lockfree') that must have "
        ">= 1 record (repeatable)",
    )
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.report}: {e}", file=sys.stderr)
        return 1

    errors = validate(
        doc,
        args.require,
        [e for spec in args.require_engine for e in spec.split(",") if e],
        args.require_engine_for,
        [n for n in args.require_reduction.split(",") if n],
        args.require_store,
    )
    if errors:
        for e in errors:
            print(f"{args.report}: {e}", file=sys.stderr)
        print(f"{len(errors)} violation(s)", file=sys.stderr)
        return 1

    n = len(doc["results"])
    benches = len({r["bench"] for r in doc["results"]})
    print(f"{args.report}: OK — {n} record(s) from {benches} bench(es)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
