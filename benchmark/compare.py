#!/usr/bin/env python3
"""Compares two ttbench result files (build-benchmark/results/<seed>.json).

  python3 benchmark/compare.py A.json B.json

For each workload and end-to-end metric it prints one row rating B against
A: improved, unchanged, regressed, or unresolved, judged against the
metric's bound in BENCHMARK.json. A metric is unresolved when its spread
exceeds the bound, unless B is better in every sample. The spread is
estimated from the samples inside the runs (passes, or repeated set-ups):
their interquartile range over their median, over the square root of
their number. With one seed on both sides pass k of A and of B ran the
same inputs, so the samples are the per-pass ratios B_k / A_k; otherwise
the larger spread of the two runs counts. It then prints
the per-layer differences of the traced runs, and whether the per-cell
state and transition counts match. Exits 1 when a metric regressed or a
count differs.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(samples):
    """Spread of a value taken over `samples`: their interquartile range
    over their median, divided by the square root of their number (one run
    gives one value, so its spread is estimated from the samples in it)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    med = statistics.median(samples)
    return (q3 - q1) / abs(med) / len(samples) ** 0.5 if med else 0.0


def rate(metric, a, b, paired):
    """(rating, relative change of B's value against A's).

    `paired`: both runs used one seed, so sample k of A and of B come from
    the same inputs and the spread is taken over the ratios B_k / A_k.
    """
    lower = metric["better"] == "lower"
    va, vb = a["value"], b["value"]
    change = (vb - va) / abs(va) if va else 0.0
    worse = change > 0 if lower else change < 0
    bound = metric["bound"]
    sa, sb = a["samples"], b["samples"]

    def better(x, y):
        return x < y if lower else x > y

    if paired and len(sa) == len(sb) and all(sa):
        ratios = [y / x for x, y in zip(sa, sb)]
        noisy = spread(ratios) > bound
        all_better = all(better(r, 1.0) for r in ratios)
    else:
        noisy = max(spread(sa), spread(sb)) > bound
        all_better = all(better(y, x) for x in sa for y in sb)
    if noisy:
        return ("improved" if all_better else "unresolved"), change
    if abs(change) <= bound:
        return "unchanged", change
    return ("regressed" if worse else "improved"), change


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    docs = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    paired = docs[0].get("seed") == docs[1].get("seed")
    a_all, b_all = docs[0]["workloads"], docs[1]["workloads"]
    regressed = False
    counts_differ = False

    print(f"{'workload':<17} {'metric':<19} {'A':>14} {'B':>14} {'change':>8}  rating")
    for w in sorted(set(a_all) & set(b_all)):
        a_w, b_w = a_all[w], b_all[w]
        if "metrics" in a_w and "metrics" in b_w:
            for m in bench["end_to_end"]:
                a, b = a_w["metrics"][m["name"]], b_w["metrics"][m["name"]]
                rating, change = rate(m, a, b, paired)
                regressed |= rating == "regressed"
                print(f"{w:<17} {m['name']:<19} {a['value']:>14.6g} {b['value']:>14.6g} "
                      f"{change:>+8.1%}  {rating}")
            same = a_w["cells"] == b_w["cells"]
            counts_differ |= not same
            print(f"{w:<17} {'counts':<19} {'':>14} {'':>14} {'':>8}  "
                  f"{'identical' if same else 'DIFFER'}")

    print(f"\n{'workload':<17} {'per-layer metric':<26} {'A':>14} {'B':>14} {'change':>8}")
    for w in sorted(set(a_all) & set(b_all)):
        a_t, b_t = a_all[w].get("traced"), b_all[w].get("traced")
        if not a_t or not b_t:
            continue
        for m in bench["per_layer"]:
            va = a_t["metrics"][m["name"]]["value"]
            vb = b_t["metrics"][m["name"]]["value"]
            change = f"{(vb - va) / abs(va):+8.1%}" if va else f"{'':>8}"
            note = "  unverified" if m["name"] in b_t.get("unverified", []) else ""
            print(f"{w:<17} {m['name']:<26} {va:>14.6g} {vb:>14.6g} {change}{note}")
    return 1 if regressed or counts_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
