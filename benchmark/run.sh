#!/usr/bin/env bash
# The repo benchmark (see benchmark/README.md). Run from the repo root.
#
#   bash benchmark/run.sh --workload caida|skew|live [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last stdout line is the JSON result
#   bash benchmark/run.sh [--seed N] [--seconds S]
#       every workload with tracing on: prints every metric, writes
#       benchmark/out/<workload>.trace.json
#   bash benchmark/run.sh --smoke [--seed N]
#       scale 0.02, one pass per workload and mode, every check and metric
#   bash benchmark/run.sh --selftest
#       unit tests of compare.py
#
# im_benchmark is built from source on first use into $CARGO_TARGET_DIR
# (default .bench_build at the repo root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

usage() {
  echo "run.sh: $1" >&2
  echo "usage: run.sh [--workload caida|skew|live] [--seed N] [--seconds S]" \
       "[--trace 0|1] [--smoke] [--selftest]" >&2
  exit 2
}

workload=""
seed=1
seconds=25
trace=0
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload|--seed|--seconds|--trace)
      [ $# -ge 2 ] || usage "missing value for $1"
      case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
      esac
      shift 2 ;;
    --smoke) smoke=1; shift ;;
    --selftest) exec python3 "$here/test_compare.py" ;;
    *) usage "unknown argument $1" ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -le 4 ] || jobs=4
if [ ! -f "$build/Makefile" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target im_benchmark -j "$jobs" >&2

bench=("$build/im_benchmark" --out-dir "$here/out" --seed "$seed")
if [ -n "$workload" ]; then
  args=(--workload "$workload" --seconds "$seconds" --trace "$trace")
  [ "$smoke" = 0 ] || args+=(--smoke)
  exec "${bench[@]}" "${args[@]}"
fi
if [ "$smoke" = 1 ]; then
  exec python3 "$here/collect.py" --smoke --first-seed "$seed"
fi
for w in caida skew live; do
  "${bench[@]}" --workload "$w" --seconds "$seconds" --trace 1
done
