#!/usr/bin/env python3
"""Unit tests of compare.py's verdict rules and collect.py's result checks.

Run: python3 benchmark/test_compare.py   (or: bash benchmark/run.sh --selftest)
"""
import contextlib
import glob
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import collect  # noqa: E402
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "fixture"}],
    "end_to_end": [
        {"name": "tput", "unit": "Mpps", "better": "higher", "bound": 0.10},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.10},
    ],
    "per_layer": [{"name": "layer.ns", "unit": "ns", "better": "lower"}],
}


def entry(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def steady(center):
    """Ten runs within +-1% of center: spread well under a 10% bound."""
    return entry([center * (1 + d / 1000) for d in (-9, -6, -4, -2, 0, 1, 3, 5, 7, 9)])


def doc(tput, lat):
    return {"workloads": {"w": {"end_to_end": {"tput": tput, "lat": lat}}}}


TPUT, LAT = SPEC["end_to_end"]


class VerdictRules(unittest.TestCase):
    def test_identical_sets_are_unchanged(self):
        self.assertEqual(compare.verdict(TPUT, steady(20), steady(20))[0],
                         "unchanged")

    def test_worse_than_bound_regresses_in_each_direction(self):
        self.assertEqual(compare.verdict(TPUT, steady(20), steady(17))[0],
                         "regressed")
        self.assertEqual(compare.verdict(LAT, steady(2.0), steady(2.3))[0],
                         "regressed")

    def test_worse_within_bound_is_unchanged(self):
        self.assertEqual(compare.verdict(TPUT, steady(20), steady(19))[0],
                         "unchanged")
        self.assertEqual(compare.verdict(LAT, steady(2.0), steady(2.1))[0],
                         "unchanged")

    def test_better_beyond_bound_improves(self):
        self.assertEqual(compare.verdict(TPUT, steady(20), steady(23))[0],
                         "improved")
        self.assertEqual(compare.verdict(LAT, steady(2.0), steady(1.7))[0],
                         "improved")

    def test_better_within_bound_is_unchanged(self):
        # Beyond both spreads but inside the bound: host drift looks like
        # this, so it is no improvement.
        result, gain = compare.verdict(TPUT, steady(20), steady(21.5))
        self.assertEqual(result, "unchanged")
        self.assertGreater(gain, compare.spread(steady(20)))

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = entry([14, 16, 18, 20, 20, 20, 22, 24, 26, 28])
        self.assertGreater(compare.spread(noisy), TPUT["bound"])
        self.assertEqual(compare.verdict(TPUT, noisy, steady(20))[0],
                         "unresolved")
        self.assertEqual(compare.verdict(TPUT, steady(20), noisy)[0],
                         "unresolved")
        # Even a large median drop stays unresolved, not regressed.
        self.assertEqual(compare.verdict(TPUT, noisy, steady(15))[0],
                         "unresolved")

    def test_wide_spread_but_every_run_better_improves(self):
        noisy = entry([14, 16, 18, 20, 20, 20, 22, 24, 26, 28])
        self.assertEqual(compare.verdict(TPUT, noisy, steady(40))[0],
                         "improved")
        self.assertEqual(compare.verdict(LAT, noisy, steady(10))[0],
                         "improved")

    def test_missing_side_is_unresolved(self):
        self.assertEqual(compare.verdict(TPUT, None, steady(20))[0],
                         "unresolved")
        rows = compare.compare(SPEC, doc(steady(20), steady(2)), {})
        self.assertEqual({r["verdict"] for r in rows}, {"unresolved"})

    def test_paired_sub_bound_gain_needs_nine_tenths_of_the_pairs(self):
        a = steady(20)
        b = entry([v * 1.05 for v in a["values"]])  # every pair 5% faster
        self.assertEqual(compare.verdict(TPUT, a, b)[0], "unchanged")
        self.assertEqual(compare.verdict(TPUT, a, b, paired=True)[0],
                         "improved")
        # Eight wins of ten is not enough.
        mixed = entry([v * (1.05 if i < 8 else 0.99)
                       for i, v in enumerate(a["values"])])
        self.assertEqual(compare.verdict(TPUT, a, mixed, paired=True)[0],
                         "unchanged")
        # Every pair wins, but by less than A's quartile distance.
        tiny = entry([v * 1.001 for v in a["values"]])
        self.assertEqual(compare.verdict(TPUT, a, tiny, paired=True)[0],
                         "unchanged")

    def test_paired_regression_is_still_judged_by_the_bound(self):
        a = steady(20)
        slower = entry([v * 0.95 for v in a["values"]])
        self.assertEqual(compare.verdict(TPUT, a, slower, paired=True)[0],
                         "unchanged")


ARE = {"name": "are_elephant", "unit": "ratio", "better": "lower",
       "bound": 0.25}
REAL = {
    "workloads": [{"name": "caida", "why": "x"}, {"name": "live", "why": "x"}],
    "end_to_end": [ARE,
                   {"name": "setup_s", "unit": "s", "better": "lower",
                    "bound": 0.25}],
    "per_layer": [],
}


def real_doc(are_values, seeds=tuple(range(1, 11))):
    side = {"end_to_end": {"are_elephant": entry(list(are_values)),
                           "setup_s": steady(0.05)}}
    return {"seeds": list(seeds), "workloads": {"caida": side, "live": side}}


class ExactAndScoped(unittest.TestCase):
    ARE_VALUES = [0.0120 + i * 0.0001 for i in range(10)]

    def test_identical_exact_values_are_unchanged(self):
        a = entry(self.ARE_VALUES)
        self.assertEqual(compare.exact_verdict(ARE, a, a), ("unchanged", 0.0))

    def test_any_exact_difference_is_judged_even_within_the_bound(self):
        a = entry(self.ARE_VALUES)
        worse = entry([v * 1.01 for v in self.ARE_VALUES])
        better = entry([v * 0.99 for v in self.ARE_VALUES])
        self.assertEqual(compare.exact_verdict(ARE, a, worse)[0], "regressed")
        self.assertEqual(compare.exact_verdict(ARE, a, better)[0], "improved")
        # One seed moved, the median did not: still a regression.
        one = entry(self.ARE_VALUES[:-1] + [self.ARE_VALUES[-1] * 1.001])
        self.assertEqual(a["median"], one["median"])
        self.assertEqual(compare.exact_verdict(ARE, a, one)[0], "regressed")

    def test_exact_metrics_need_the_same_seeds(self):
        rows = compare.compare(REAL, real_doc(self.ARE_VALUES),
                               real_doc(self.ARE_VALUES, range(11, 21)))
        verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
        self.assertEqual(verdicts[("caida", "are_elephant")], "unresolved")
        self.assertEqual(verdicts[("caida", "setup_s")], "unchanged")

    def test_pairs_outside_the_scope_are_left_out(self):
        rows = compare.compare(REAL, real_doc(self.ARE_VALUES),
                               real_doc(self.ARE_VALUES))
        pairs = {(r["workload"], r["metric"]) for r in rows}
        self.assertEqual(pairs, {("caida", "are_elephant"), ("caida", "setup_s"),
                                 ("live", "setup_s")})


def run_compare(spec, doc_a, doc_b, *flags):
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for name, content in (("spec", spec), ("a", doc_a), ("b", doc_b)):
            paths.append(os.path.join(d, name + ".json"))
            with open(paths[-1], "w") as f:
                json.dump(content, f)
        with open(os.devnull, "w") as sink:
            stdout, stderr = sys.stdout, sys.stderr
            sys.stdout = sys.stderr = sink
            try:
                return compare.main([paths[1], paths[2], "--spec", paths[0],
                                     "--per-layer", *flags])
            finally:
                sys.stdout, sys.stderr = stdout, stderr


class CompareMain(unittest.TestCase):
    def test_exit_code_is_1_only_on_regression(self):
        base = doc(steady(20), steady(2.0))
        self.assertEqual(run_compare(SPEC, base, base), 0)
        self.assertEqual(run_compare(SPEC, base, doc(steady(23), steady(1.5))), 0)
        self.assertEqual(run_compare(SPEC, base, doc(steady(20), steady(3.0))), 1)

    def test_exact_regression_fails_the_comparison(self):
        a = real_doc(ExactAndScoped.ARE_VALUES)
        b = real_doc([v * 1.02 for v in ExactAndScoped.ARE_VALUES])
        self.assertEqual(run_compare(REAL, a, a), 0)
        self.assertEqual(run_compare(REAL, a, b), 1)

    def test_paired_needs_a_paired_collection(self):
        a = dict(doc(steady(20), steady(2.0)), seeds=[1], pair_id="x")
        self.assertEqual(run_compare(SPEC, a, dict(a, pair_id="y"), "--paired"), 2)
        self.assertEqual(run_compare(SPEC, a, a, "--paired"), 0)


class PairedCollection(unittest.TestCase):
    def test_sides_alternate_and_share_seeds_and_pair_id(self):
        calls = []

        def fake_run(spec, workload, seed, seconds, trace, root):
            calls.append((seed, root, trace))
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in spec["per_layer" if trace else "end_to_end"]}
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": metrics}

        real_run, collect.run_once = collect.run_once, fake_run
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                docs = collect.collect(SPEC, ["w"], [1, 2, 3], 1, ["A", "B"])
        finally:
            collect.run_once = real_run
        untraced = [(seed, root) for seed, root, trace in calls if not trace]
        self.assertEqual(untraced, [(1, "A"), (1, "B"), (2, "B"), (2, "A"),
                                    (3, "A"), (3, "B")])
        self.assertEqual(docs[0]["seeds"], docs[1]["seeds"])
        self.assertIsNotNone(docs[0]["pair_id"])
        self.assertEqual(docs[0]["pair_id"], docs[1]["pair_id"])
        self.assertTrue(compare.is_paired(docs[0], docs[1]))


class ResultLineChecks(unittest.TestCase):
    def line(self, **metrics):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}

    def test_accepts_a_complete_line(self):
        collect.validate(self.line(tput=(20.5, "Mpps"), lat=(1.5, "ms")),
                         SPEC, trace=False)
        collect.validate(self.line(**{"layer.ns": (0, "ns")}), SPEC, trace=True)

    def test_rejects_missing_wrong_unit_and_zero(self):
        with self.assertRaises(ValueError):
            collect.validate(self.line(tput=(20.5, "Mpps")), SPEC, trace=False)
        with self.assertRaises(ValueError):
            collect.validate(self.line(tput=(20.5, "pps"), lat=(1.5, "ms")),
                             SPEC, trace=False)
        with self.assertRaises(ValueError):
            collect.validate(self.line(tput=(0, "Mpps"), lat=(1.5, "ms")),
                             SPEC, trace=False)


class CommittedBaseline(unittest.TestCase):
    def test_committed_sets_agree_under_the_real_spec(self):
        spec = collect.load_spec()
        sets = sorted(glob.glob(os.path.join(collect.HERE, "results", "*.json")))
        if len(sets) < 2:
            self.skipTest("no committed result sets")
        with open(sets[0]) as f:
            a = json.load(f)
        with open(sets[1]) as f:
            b = json.load(f)
        self.assertTrue(compare.is_paired(a, b))
        for paired in (False, True):
            rows = compare.compare(spec, a, b, paired)
            bad = [(r["workload"], r["metric"], r["verdict"]) for r in rows
                   if r["verdict"] in ("regressed", "unresolved")]
            self.assertEqual(bad, [])
            # Same commit, same seeds: every exact metric repeats exactly.
            self.assertTrue(all(r["verdict"] == "unchanged"
                                for r in rows if r["exact"]))


if __name__ == "__main__":
    unittest.main()
