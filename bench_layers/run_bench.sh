#!/usr/bin/env bash
# Run the whole layered benchmark: every workload as its own process,
# untraced and then traced, building first if needed.
#
#   bench_layers/run_bench.sh [--seed S] [--out DIR] [--seconds T]
#
# Writes DIR/<workload>.json (untraced, end-to-end metrics),
# DIR/<workload>.layers.json (traced, per-layer metrics),
# DIR/<workload>.trace.json (Chrome trace of the bench spans) and
# DIR/<workload>.log, then prints every metric with its unit through
# compare.py. Exits nonzero when a run fails or any correctness check fails.
# Defaults: seed 1, DIR .bench_build/results, T = run_seconds of BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed=1
out="$root/.bench_build/results"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed S] [--out DIR] [--seconds T]" >&2; exit 2 ;;
  esac
done

mkdir -p "$out"
cd "$root"
status=0
for w in $(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json); do
  echo "== $w (seed $seed, ${seconds} s untraced + ${seconds} s traced)" >&2
  python3 "$here/run.py" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
    --out "$out/$w.json" > "$out/$w.log" 2>&1 || { echo "   untraced run failed, see $out/$w.log" >&2; status=1; }
  python3 "$here/run.py" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
    --out "$out/$w.layers.json" --chrome-trace "$out/$w.trace.json" >> "$out/$w.log" 2>&1 \
    || { echo "   traced run failed, see $out/$w.log" >&2; status=1; }
done

python3 "$here/compare.py" "$out" || status=1
exit "$status"
