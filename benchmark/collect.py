#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one result-set document.

  python3 benchmark/collect.py --out benchmark/results/NAME.json
      [--pair-out OTHER.json [--pair-root DIR]]
      [--runs 10] [--first-seed 1] [--seconds S] [--workloads caida,skew,live]
  python3 benchmark/collect.py --smoke [--first-seed N]

Each run is the BENCHMARK.json command with --workload, --seed, --seconds
and --trace appended, as an external harness invokes it, from the repo
root. Every result line is validated against BENCHMARK.json. Per workload
the document keeps each end-to-end metric's value from every seed with
their median and quartiles (Python's statistics.quantiles, n=4), and the
per-layer metrics of one traced run. --smoke runs every workload once per
mode at smoke scale and only validates.

--pair-out collects a second set in the same pass, seed by seed, from the
tree at --pair-root (default: this one, for a repeat of the same commit),
alternating which side runs first. The two documents share a pair_id, so
`compare.py --paired` can judge their timings pair by pair. The paired
tree builds into its own .bench_build.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(result, spec, trace):
    """Raise ValueError unless `result` is a well-formed result line."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        raise ValueError("result is not correct")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted < 1")
    expected = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        raise ValueError(f"metrics differ: missing {missing}, extra {extra}")
    for m in expected:
        entry = got[m["name"]]
        if entry.get("unit") != m["unit"]:
            raise ValueError(f"{m['name']}: unit {entry.get('unit')!r}, "
                             f"expected {m['unit']!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{m['name']}: value {value!r}")
        if not trace and value == 0:
            raise ValueError(f"{m['name']}: end-to-end metric is 0")


def run_once(spec, workload, seed, seconds, trace, smoke=False, echo=False,
             root=ROOT):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    env = None
    if os.path.realpath(root) != os.path.realpath(ROOT):
        # Relative, so the other tree builds into its own .bench_build.
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    validate(result, spec, trace)
    return result


def summarize(values):
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else (values[0],) * 3)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform()}


def commit(root):
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def collect(spec, workloads, seeds, seconds, roots):
    """One document per tree in `roots`; with two, their runs alternate."""
    pair_id = time.strftime("%Y%m%dT%H%M%S") if len(roots) > 1 else None
    docs = [{"schema": "instameasure-benchmark-results/1",
             "commit": commit(root), "host": host(), "seconds": seconds,
             "seeds": seeds, "pair_id": pair_id, "workloads": {}}
            for root in roots]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w in workloads:
        values = [{n: [] for n in units} for _ in roots]
        attempted = [0] * len(roots)
        failed = [0] * len(roots)
        for i, seed in enumerate(seeds):
            # Alternate which side runs first, so neither always follows
            # the other's heat.
            order = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
            for side in order:
                result = run_once(spec, w, seed, seconds, trace=False,
                                  root=roots[side])
                attempted[side] += result["attempted"]
                failed[side] += result["failed"]
                for name in units:
                    values[side][name].append(result["metrics"][name]["value"])
                print(f"{w} seed {seed} side {'AB'[side]}: " + "  ".join(
                    f"{n}={values[side][n][-1]:.6g}" for n in units),
                    file=sys.stderr)
        for side, root in enumerate(roots):
            traced = run_once(spec, w, seeds[0], seconds, trace=True, root=root)
            docs[side]["workloads"][w] = {
                "attempted": attempted[side], "failed": failed[side],
                "end_to_end": {n: {"unit": units[n], **summarize(v)}
                               for n, v in values[side].items()},
                "per_layer": {"seed": seeds[0], "metrics": traced["metrics"]},
            }
    return docs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="result-set document to write")
    ap.add_argument("--pair-out", help="second, paired result set to write")
    ap.add_argument("--pair-root", default=ROOT,
                    help="tree the paired set runs from (default: this one)")
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    if args.smoke:
        for w in workloads:
            for trace in (False, True):
                run_once(spec, w, args.first_seed, seconds, trace, smoke=True,
                         echo=True)
        print(f"smoke: {len(workloads)} workloads x 2 modes passed every "
              "check; every result line matches BENCHMARK.json")
        return 0
    if not args.out or args.runs < 1:
        ap.error("--out and --runs >= 1 are required unless --smoke")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    outs = [args.out] + ([args.pair_out] if args.pair_out else [])
    roots = [ROOT, os.path.abspath(args.pair_root)][:len(outs)]
    for out, doc in zip(outs, collect(spec, workloads, seeds, seconds, roots)):
        with open(out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
