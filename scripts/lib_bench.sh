# Shared helpers for the Release-build benchmark gate scripts
# (check_batch_speedup.sh, check_query_overhead.sh, check_audit_overhead.sh,
# check_wsaf_lookup.sh, check_resize_pause.sh). Source after cd'ing to the
# repo root:
#   cd "$(dirname "$0")/.."
#   source scripts/lib_bench.sh
# Callers are `set -euo pipefail`; every helper returns nonzero on failure.

# bench_build <build-dir> <target>: configure (Release) + build one target.
bench_build() {
  local build=$1 target=$2
  cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build" -j --target "$target" >/dev/null
}

# bench_micro_json <build-dir> <filter-regex> <min-time> <out-json>: run
# bench_micro with google-benchmark JSON output into <out-json>.
bench_micro_json() {
  local build=$1 filter=$2 min_time=$3 out=$4
  "$build"/bench/bench_micro \
    --benchmark_filter="$filter" \
    --benchmark_min_time="$min_time" \
    --benchmark_format=json >"$out"
}

# bench_mpps <json> <name>...: extract each named benchmark's Mpps counter
# from a google-benchmark JSON report, one value per line, in argument
# order. Fails (KeyError) if a requested benchmark is missing.
bench_mpps() {
  python3 - "$@" <<'EOF'
import json
import sys

path, names = sys.argv[1], sys.argv[2:]
with open(path) as f:
    report = json.load(f)
mpps = {
    b["name"]: b["Mpps"]
    for b in report["benchmarks"]
    if b.get("run_type", "iteration") == "iteration" and "Mpps" in b
}
for name in names:
    print(mpps[name])
EOF
}

# bench_ratio_gate <label-a> <mpps-a> <label-b> <mpps-b> <floor>
#                  <fail-msg> <ok-msg>
# Prints the two throughputs and their ratio b/a; exits 1 with FAIL when
# the ratio falls below <floor>.
bench_ratio_gate() {
  python3 - "$@" <<'EOF'
import sys

label_a, a, label_b, b, floor, fail_msg, ok_msg = sys.argv[1:8]
a, b, floor = float(a), float(b), float(floor)
ratio = b / a
print(f"{label_a:<21} {a:8.3f} Mpps")
print(f"{label_b:<21} {b:8.3f} Mpps")
print(f"{'ratio':<21} {ratio:8.3f}  (floor {floor})")
if ratio < floor:
    print(f"FAIL: {fail_msg}")
    sys.exit(1)
print(f"OK: {ok_msg}")
EOF
}
