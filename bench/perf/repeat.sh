#!/usr/bin/env bash
# Run each workload several times, one seed per run, and print every
# metric's median, interquartile range and max/min spread (both as a
# share of the median), next to its bound in BENCHMARK.json.
#
#   bash bench/perf/repeat.sh [-n RUNS] [-s SECONDS] [-t 0|1] [-b FIRST_SEED] [WORKLOAD...]
#
# Defaults: 5 runs, run_seconds from BENCHMARK.json, untraced, seeds
# 2024, 2025, ...  and all four workloads.  Result lines are kept in
# bench/perf/_out/repeat-WORKLOAD.jsonl.
set -euo pipefail
cd "$(dirname "$0")/../.."
runs=5 seconds="" trace=0 first_seed=2024
while getopts "n:s:t:b:" opt; do
  case $opt in
    n) runs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    t) trace=$OPTARG ;;
    b) first_seed=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[ -n "$seconds" ] || seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(sweep query_hot query_cold epoch_ingest)
mkdir -p bench/perf/_out
for w in "${workloads[@]}"; do
  out="bench/perf/_out/repeat-$w.jsonl"
  : > "$out"
  for i in $(seq 0 $((runs - 1))); do
    seed=$((first_seed + i))
    start=$(date +%s.%N)
    bash bench/perf/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      2>"bench/perf/_out/repeat-$w-$seed.log" | tail -n 1 >> "$out"
    echo "$w seed $seed: $(python3 -c "print(f'{$(date +%s.%N) - $start:.1f}s')")" >&2
  done
  python3 - "$out" "$w" <<'EOF'
import json, statistics, sys
path, workload = sys.argv[1], sys.argv[2]
runs = [json.loads(l) for l in open(path) if l.strip()]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
print(f"== {workload}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
      f"failed {[r['failed'] for r in runs]}")
print(f"{'metric':36} {'median':>14} {'IQR/med':>8} {'range/med':>9} {'bound':>6}  unit")
for name in runs[0]["metrics"]:
    vals = [r["metrics"][name]["value"] for r in runs]
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    share = lambda x: x / med if med else float("nan")
    bound = bounds.get(name)
    print(f"{name:36} {med:14.6g} {share(q3 - q1):8.3f} {share(max(vals) - min(vals)):9.3f} "
          f"{bound if bound is not None else '':>6}  {runs[0]['metrics'][name]['unit']}")
EOF
done
