#!/usr/bin/env python3
"""Validate a ttstart-bench report file (BENCH_results.json).

Accepts schema ttstart-bench-v8, the one the benches write and the
committed report carries. It allows these optional per-record fields:
- symbolic-engine runs: `iterations` (image/BFS steps to the fixpoint) and
  `peak_live_nodes` (peak live BDD nodes);
- parallel OWCTY liveness runs: `trim_rounds` (trimming sweeps to the
  fixpoint) and `residue_states` (goal-free states left alive afterwards);
- reductions: `reduction` ("none"/"sym"/"por"/"sym+por"), `canon_ops`
  (canonicalization operations on the emission path), `orbit_states` (orbit
  representatives stored by a reduced run), `reduction_ratio`
  (states(unreduced)/states(reduced) when the paired baseline ran), and the
  caveat flag `possibly_one_core` (true when a multi-threaded row may have
  run on a single hardware core, so its speedup is not meaningful);
- partial-order reduction (DESIGN.md 3.8): `ample_sets` (emissions whose
  independence gate was open), `pruned_combos` (emissions redirected to the
  clamped-horizon representative), and `proviso_fallbacks` (emissions
  declined into full expansion);
- explicit stores: `store` ("locked"/"lockfree"), `cas_retries` (failed slot
  claims on the lock-free insert path), `spill_bytes` (compressed bytes
  evicted out of core), and the out-of-core pipeline columns (DESIGN.md
  3.9): `spill_sync_waits` (synchronous barriers the write-behind pipeline
  had to take), `spill_async_pages` (sealed pages handed to the I/O thread
  without blocking), and `resident_bytes` (store-resident footprint at run
  end);
- SAT proof engines (DESIGN.md 3.10): `solver_calls` (solve() invocations
  on the run's single incremental solver — for bounded BMC exactly one per
  depth probed), `clauses_reused` (learned clauses carried across those
  calls), `frames` (IC3 frame count / k-induction unrolling depth), and
  `proof_obligations` (IC3 obligation-queue pops).
Optional numeric fields must be non-negative when present.

Checks the envelope, the per-record field set and types, and basic value
sanity (non-negative counts/times, verdict non-empty, threads >= 1). With
--require, additionally fails unless every named bench contributed at least
one record — the CI bench-smoke job uses this to catch a bench binary that
silently stopped reporting. With --require-engine (a single name or a comma
list, repeatable), fails unless every named engine has at least one record —
CI uses `--require-engine sym` so the symbolic leg cannot silently drop out
of the comparison, and `--require-engine kind,ic3` so the proof engines
cannot silently drop out of the unbounded-proofs bench. With
--require-engine-for SUBSTR:ENGINE, fails unless at least one record whose
experiment name contains SUBSTR ran on ENGINE — CI uses
`--require-engine-for liveness:par` so liveness checking cannot silently
fall back off the parallel engine. With --require-reduction LIST (a comma
list of reduction names, e.g. `sym,por,sym+por`), fails unless every named
reduction has at least one record carrying its `canon_ops` and
`orbit_states` columns (por/sym+por rows must additionally carry the
`ample_sets`/`pruned_combos`/`proviso_fallbacks` columns) — CI uses this so
neither the symmetry-quotient nor the partial-order-reduced rows can
silently drop out of the sweep. With --require-store, fails unless at least
one record carries the named `store` — CI uses `--require-store lockfree`
so the lock-free store rows cannot silently drop out of the hot-path bench.

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

SCHEMA = "ttstart-bench-v8"

# Optional per-record fields; typed when present.
OPTIONAL_FIELDS = {
    "iterations": int,
    "peak_live_nodes": int,
    "trim_rounds": int,
    "residue_states": int,
    "reduction": str,
    "canon_ops": int,
    "orbit_states": int,
    "reduction_ratio": (int, float),
    "possibly_one_core": bool,
    "store": str,
    "cas_retries": int,
    "spill_bytes": int,
    "ample_sets": int,
    "pruned_combos": int,
    "proviso_fallbacks": int,
    "spill_sync_waits": int,
    "spill_async_pages": int,
    "resident_bytes": int,
    "solver_calls": int,
    "clauses_reused": int,
    "frames": int,
    "proof_obligations": int,
}

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
        for field, ftype in REQUIRED_FIELDS.items():
            if field not in rec:
                errors.append(f"{where}: missing field '{field}'")
            elif not isinstance(rec[field], ftype) or (
                ftype is int and isinstance(rec[field], bool)
            ):
                errors.append(
                    f"{where}: field '{field}' has type "
                    f"{type(rec[field]).__name__}, expected {ftype}"
                )
        for field, ftype in OPTIONAL_FIELDS.items():
            if field not in rec:
                continue
            v = rec[field]
            if not isinstance(v, ftype) or (
                ftype is not bool and isinstance(v, bool)
            ):
                errors.append(
                    f"{where}: optional field '{field}' has type "
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
                errors.append(f"{where}: optional field '{field}' < 0")
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
            for field in ("states", "transitions", "seconds", "states_per_sec"):
                v = rec.get(field)
                if isinstance(v, (int, float)) and v < 0:
                    errors.append(f"{where} ({exp}): {field} < 0")
            if rec.get("experiment") == "" or rec.get("verdict") == "":
                errors.append(f"{where}: empty experiment or verdict")
        reduction = rec.get("reduction")
        if (
            isinstance(reduction, str)
            and reduction != "none"
            and isinstance(rec.get("canon_ops"), int)
            and isinstance(rec.get("orbit_states"), int)
        ):
            # por/sym+por rows only count as present when they carry the
            # partial-order columns too — a row that lost them would hide a
            # stats-plumbing regression.
            if reduction not in POR_REDUCTIONS or all(
                isinstance(rec.get(f), int)
                for f in ("ample_sets", "pruned_combos", "proviso_fallbacks")
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
