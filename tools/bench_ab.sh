#!/usr/bin/env bash
# A/B the round-ledger benchmark: a base revision against the work tree.
#
#   tools/bench_ab.sh BASE_REV [--pairs N] [--workloads W1,W2]
#                              [--first-seed S] [--out DIR]
#
# Exports BASE_REV with `git archive`, builds roundbench for each side in a
# build directory of its own (CARGO_TARGET_DIR), then runs N alternating
# pairs (default 10) of untraced runs per workload (default: every workload
# in BENCHMARK.json), at BENCHMARK.json's run_seconds. Pair i runs both
# sides at seed S+i (default S=1), and which side runs first flips on every
# pair: run order alone moves some metrics by several percent. The two
# result sets go to DIR/base.jsonl and DIR/change.jsonl (default DIR: a new
# temporary directory), a per-metric count of the pairs the change won is
# printed, and the script ends with `compare.py diff` and exits with its
# status. It builds roundbench twice, so it is not a ctest.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

usage() {
  sed -n '4,5p' "$0" | sed 's/^# //' >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
BASE_REV="$1"
shift
PAIRS=10
WORKLOADS=""
FIRST_SEED=1
OUT=""
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --pairs) PAIRS="$2"; shift 2 ;;
    --workloads) WORKLOADS="$2"; shift 2 ;;
    --first-seed) FIRST_SEED="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[[ "$PAIRS" =~ ^[1-9][0-9]*$ && "$FIRST_SEED" =~ ^[0-9]+$ ]] || usage

if [[ -z "$WORKLOADS" ]]; then
  WORKLOADS="$(python3 -c 'import json, sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    BENCHMARK.json)"
fi
SECONDS_PER_RUN="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)"
OUT="${OUT:-$(mktemp -d)}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"

BASE_SRC="$OUT/base-src"
rm -rf "$BASE_SRC"
mkdir -p "$BASE_SRC"
git archive "$BASE_REV" | tar -x -C "$BASE_SRC"
echo "bench_ab: base $(git rev-parse --short "$BASE_REV") in $BASE_SRC;" \
     "change = work tree $ROOT; results in $OUT"
rm -f "$OUT/base.jsonl" "$OUT/change.jsonl"

# run SIDE WORKLOAD SEED [--record FILE]: one roundbench run of one side.
run() {
  local side="$1" workload="$2" seed="$3"
  shift 3
  local tree="$ROOT"
  [[ "$side" == base ]] && tree="$BASE_SRC"
  CARGO_TARGET_DIR="$OUT/$side-build" python3 "$tree/roundbench/run.py" \
    --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" \
    --trace 0 "$@" > "$OUT/$side.last.log" 2>&1
}

# Build both sides (and warm each up with a short run) before timing.
for side in base change; do
  echo "bench_ab: building $side"
  first="${WORKLOADS%%,*}"
  SECONDS_PER_RUN=1 run "$side" "$first" 0 \
    || { echo "bench_ab: $side build or warm-up run failed:" >&2;
         tail -20 "$OUT/$side.last.log" >&2; exit 1; }
done

failures=0
IFS=',' read -r -a workload_list <<< "$WORKLOADS"
for workload in "${workload_list[@]}"; do
  for ((i = 0; i < PAIRS; ++i)); do
    seed=$((FIRST_SEED + i))
    order=(base change)
    ((i % 2 == 1)) && order=(change base)
    status=""
    for side in "${order[@]}"; do
      if run "$side" "$workload" "$seed" --record "$OUT/$side.jsonl"; then
        status+=" $side ok"
      else
        status+=" $side FAILED"
        failures=$((failures + 1))
      fi
    done
    echo "bench_ab: $workload pair $((i + 1))/$PAIRS seed $seed:$status"
  done
done
[[ $failures -eq 0 ]] || echo "bench_ab: $failures runs failed" >&2

echo "==> pairs won by the change (same workload and seed), per metric"
python3 - "$OUT/base.jsonl" "$OUT/change.jsonl" BENCHMARK.json <<'EOF'
import json
import sys

def load(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return {(r["workload"], r["seed"]): r["result"]["metrics"] for r in rows}

base, change = load(sys.argv[1]), load(sys.argv[2])
with open(sys.argv[3]) as f:
    metrics = json.load(f)["end_to_end"]
for workload in sorted({w for w, _ in base}):
    seeds = sorted(s for w, s in base if w == workload and (w, s) in change)
    wins = []
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        won = sum(sign * (change[(workload, s)][m["name"]]["value"] -
                          base[(workload, s)][m["name"]]["value"]) > 0
                  for s in seeds)
        wins.append(f"{m['name']} {won}/{len(seeds)}")
    print(f"{workload:12} " + "  ".join(wins))
EOF

echo "==> compare.py diff base change"
python3 roundbench/compare.py diff "$OUT/base.jsonl" "$OUT/change.jsonl"
