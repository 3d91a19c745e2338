#!/usr/bin/env python3
"""Compare two benchmark result sets, metric by metric.

  python3 benchmark/compare.py A.json B.json [--paired] [--per-layer]
                               [--spec FILE]

A is the parent (baseline) and B the change, both written by collect.py.
Each end-to-end metric is judged on the workloads in SCOPE (every workload
for a metric SCOPE does not name); the other pairs are left out, since
their numbers repeat another workload's or cannot move. Every pair gets
one verdict, judged with the metric's direction and bound.

Exact metrics (EXACT) are deterministic for a seed: the same code reads
the same value on every run. They are compared seed by seed, which needs
both sets to have run the same seeds (unresolved otherwise). Every value
equal is unchanged; any difference is improved or regressed by the sign
of the mean per-seed relative gain. The bound plays no part.

Timing metrics are judged on their medians:

  unresolved  either side's spread, (q3 - q1) / median over its runs,
              exceeds the bound -- unless every run of B is better than
              every run of A, which is improved
  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound, or,
              with --paired, B wins at least nine tenths of the seed pairs
              (ties count for neither) and the medians differ by more than
              A's quartile distance
  unchanged   otherwise

--paired needs two sets collected together by `collect.py --pair-out`,
which alternates the two sides seed by seed, so host drift reaches both
alike; without it a gain below the bound is never claimed, since two sets
of one commit taken minutes apart differ by more than their spreads.

A pair missing from either document is unresolved. --per-layer also
prints each per-layer metric of the two traced runs with its relative
change, for attribution; those carry no verdict. Exits 1 when any pair
regressed, 2 when --paired is given for sets that were not paired, 0
otherwise.
"""
import argparse
import json
import math
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")

# The workloads each end-to-end metric is judged on. `live` replays the
# `caida` trace through the same dispatch, so its per-core cost, ARE and
# recall repeat `caida`'s; detection is judged where queries run beside
# ingest.
SCOPE = {
    "core_cycles_per_pkt": ("caida", "skew"),
    "are_elephant": ("caida", "skew"),
    "topk_recall": ("caida", "skew"),
    "hh_recall": ("live",),
    "detect_delay_ms_p50": ("live",),
    "detect_delay_ms_p90": ("live",),
}
# Metrics that are a function of the seed and the code alone.
EXACT = {"are_elephant", "topk_recall", "hh_recall", "detect_delay_ms_p50",
         "detect_delay_ms_p90"}


def spread(entry):
    """Interquartile range as a share of the median."""
    median = entry["median"]
    if median == 0:
        return 0.0 if entry["q3"] == entry["q1"] else math.inf
    return (entry["q3"] - entry["q1"]) / abs(median)


def direction(metric):
    return 1 if metric["better"] == "higher" else -1


def exact_verdict(metric, a, b):
    """Seed-by-seed verdict of a deterministic metric; values aligned by seed."""
    if a["values"] == b["values"]:
        return "unchanged", 0.0
    sign = direction(metric)
    gain = statistics.mean(sign * (vb - va) / (abs(va) or 1.0)
                           for va, vb in zip(a["values"], b["values"]))
    if gain < 0:
        return "regressed", gain
    if gain > 0:
        return "improved", gain
    return "unresolved", gain


def verdict(metric, a, b, paired=False):
    """Verdict of a timing metric: (verdict, gain), gain > 0 when B is better."""
    if a is None or b is None:
        return "unresolved", math.nan
    sign = direction(metric)
    base = abs(a["median"]) or 1.0
    gain = sign * (b["median"] - a["median"]) / base
    bound = metric["bound"]
    if spread(a) > bound or spread(b) > bound:
        if all(sign * (vb - va) > 0 for va in a["values"] for vb in b["values"]):
            return "improved", gain
        return "unresolved", gain
    if -gain > bound:
        return "regressed", gain
    if gain > bound:
        return "improved", gain
    if paired and gain > 0:
        wins = sum(sign * (vb - va) > 0
                   for va, vb in zip(a["values"], b["values"]))
        if (wins >= 0.9 * len(a["values"]) and
                gain * base > a["q3"] - a["q1"]):
            return "improved", gain
    return "unchanged", gain


def is_paired(doc_a, doc_b):
    return (doc_a.get("pair_id") is not None and
            doc_a.get("pair_id") == doc_b.get("pair_id") and
            doc_a.get("seeds") == doc_b.get("seeds"))


def compare(spec, doc_a, doc_b, paired=False):
    """One row per in-scope (workload, end-to-end metric) pair of the spec."""
    same_seeds = doc_a.get("seeds") is not None and \
        doc_a.get("seeds") == doc_b.get("seeds")
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        side_a = doc_a.get("workloads", {}).get(name, {}).get("end_to_end", {})
        side_b = doc_b.get("workloads", {}).get(name, {}).get("end_to_end", {})
        for m in spec["end_to_end"]:
            if name not in SCOPE.get(m["name"], (name,)):
                continue
            a, b = side_a.get(m["name"]), side_b.get(m["name"])
            exact = m["name"] in EXACT
            if a is None or b is None or (exact and not same_seeds):
                result, gain = "unresolved", math.nan
            elif exact:
                result, gain = exact_verdict(m, a, b)
            else:
                result, gain = verdict(m, a, b, paired)
            rows.append({"workload": name, "metric": m["name"],
                         "unit": m["unit"], "exact": exact,
                         "bound": m["bound"], "verdict": result, "gain": gain,
                         "a": a["median"] if a else None,
                         "b": b["median"] if b else None,
                         "spread_a": spread(a) if a else None,
                         "spread_b": spread(b) if b else None})
    return rows


def fmt(x, pct=False, signed=True):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "-"
    if pct:
        return f"{x * 100:+.1f}%" if signed else f"{x * 100:.1f}%"
    return f"{x:.6g}"


def per_layer_lines(spec, doc_a, doc_b):
    lines = []
    for w in spec["workloads"]:
        name = w["name"]
        get = lambda doc: (doc.get("workloads", {}).get(name, {})
                           .get("per_layer", {}).get("metrics", {}))
        la, lb = get(doc_a), get(doc_b)
        for m in spec["per_layer"]:
            a, b = la.get(m["name"]), lb.get(m["name"])
            if a is None or b is None:
                continue
            va, vb = a["value"], b["value"]
            change = (vb - va) / abs(va) if va else None
            lines.append(f"  {name:6s} {m['name']:36s} {fmt(va):>12s} "
                         f"{fmt(vb):>12s} {fmt(change, pct=True):>8s} "
                         f"{m['unit']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="parent result set")
    ap.add_argument("b", help="changed result set")
    ap.add_argument("--paired", action="store_true",
                    help="sets collected together by collect.py --pair-out")
    ap.add_argument("--per-layer", action="store_true")
    ap.add_argument("--spec", default=SPEC, help="BENCHMARK.json to judge by")
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.a) as f:
        doc_a = json.load(f)
    with open(args.b) as f:
        doc_b = json.load(f)
    if args.paired and not is_paired(doc_a, doc_b):
        print("compare.py: --paired needs two sets from one "
              "`collect.py --pair-out` run (same pair_id and seeds)",
              file=sys.stderr)
        return 2

    rows = compare(spec, doc_a, doc_b, args.paired)
    print(f"{'workload':8s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'gain':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for r in rows:
        bound = "exact" if r["exact"] else f"{r['bound'] * 100:5.3g}%"
        print(f"{r['workload']:8s} {r['metric']:22s} {fmt(r['a']):>12s} "
              f"{fmt(r['b']):>12s} {fmt(r['gain'], True):>8s} "
              f"{fmt(r['spread_a'], True, False):>9s} "
              f"{fmt(r['spread_b'], True, False):>9s} "
              f"{bound:>6s}  {r['verdict']}")
    counts = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
          + (" (paired)" if args.paired else ""))
    if args.per_layer:
        print("\nper-layer (traced run of each set; no verdict)")
        print("\n".join(per_layer_lines(spec, doc_a, doc_b)))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
