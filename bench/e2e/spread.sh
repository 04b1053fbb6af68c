#!/usr/bin/env bash
# Run each workload N times, with seeds 1..N, and print every metric's
# median, quartiles, quartile spread as a share of the median, and
# max/min. The regression bounds in BENCHMARK.json are set from these
# numbers; a bound is met when the spread stays below a third of it.
#
# usage: bench/e2e/spread.sh N [SECONDS] [--trace] [WORKLOAD ...]
#   SECONDS  host seconds per run (default: run_seconds of BENCHMARK.json)
#   --trace  report the per-layer metrics instead of the end-to-end ones
#   WORKLOAD default: every workload in BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/../.."

n=${1:?usage: spread.sh N [SECONDS] [--trace] [WORKLOAD ...]}
shift
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [[ $# -gt 0 && $1 =~ ^[0-9]+$ ]]; then seconds=$1; shift; fi
trace=0
if [[ $# -gt 0 && $1 == --trace ]]; then trace=1; shift; fi
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi

# reads the runs' result lines on stdin
stats=$(cat <<'EOF'
import json, statistics, sys
workload, trace = sys.argv[1], sys.argv[2] == "1"
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m.get("bound") for m in bench["per_layer" if trace else "end_to_end"]}
runs = [json.loads(l) for l in sys.stdin if l.startswith("{")]
if not runs:
    sys.exit(f"{workload}: no run printed a result")
wrong = sum(1 for r in runs if not r["correct"])
failed = sum(r["failed"] for r in runs)
attempted = sum(r["attempted"] for r in runs)
print(f"{workload}: {len(runs)} runs, {wrong} incorrect, {failed}/{attempted} units failed")
names = list(runs[0]["metrics"])
if set(names) != set(bounds):
    print(f"  metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(bounds))}")
print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'max/min':>8s} {'bound':>6s}")
for m in names:
    v = [r["metrics"][m]["value"] for r in runs]
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    spread = (q3 - q1) / med if med else 0.0
    ratio = max(v) / min(v) if min(v) > 0 else float("inf")
    b = bounds.get(m)
    verdict = "" if b is None else ("ok" if spread < b / 3 else "WIDE")
    shown = "-" if b is None else str(b)
    print(f"  {m:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {ratio:8.4f} {shown:>6s} {verdict}")
EOF
)

dune build ./bench/e2e/stm_e2e.exe
exe=_build/default/bench/e2e/stm_e2e.exe

for w in "${workloads[@]}"; do
  for seed in $(seq 1 "$n"); do
    "$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      2>/dev/null | tail -n 1 || true
  done | python3 -c "$stats" "$w" "$trace"
done
