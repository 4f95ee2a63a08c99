#!/usr/bin/env bash
# CI entry point: configure, build, and run the test suite in labeled stages.
#
#   tools/ci.sh                 # plain RelWithDebInfo build + staged ctest
#   tools/ci.sh address         # ASan build
#   tools/ci.sh undefined       # UBSan build
#   tools/ci.sh address,undefined
#   tools/ci.sh thread          # TSan build (exercises par/ + obs stress)
#
# Stages run fast-to-slow so cheap failures surface first:
#   unit -> property -> integration -> stress
# then the unlabeled tests (tool smoke tests), then a determinism smoke:
# fig3 at --threads 1 vs --threads 8 must emit byte-identical stdout, and
# the estimator benches' shape checks.
#
# The build tree goes to build-ci[-<sanitizer>] so it never collides with a
# developer's ./build. The main tree and the TSan sub-build compile with
# -Werror: the build is warning-clean and stays that way.
#
# Plain runs write this host's bench snapshots (BENCH_ingestion.json,
# BENCH_obs.json, BENCH_design.json, BENCH_serve.json) under
# $BUILD_DIR/bench/ and print their paths; the committed copies at the repo
# root change only by a deliberate cp.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE="${1:-}"
BUILD_DIR="build-ci"
CMAKE_ARGS=()
if [[ -n "$SANITIZE" ]]; then
  BUILD_DIR="build-ci-${SANITIZE//,/-}"
  CMAKE_ARGS+=("-DHARVEST_SANITIZE=${SANITIZE}")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}" -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$(nproc)"
BENCH_OUT="$BUILD_DIR/bench"

for label in unit property integration stress; do
  echo "==> ctest -L ${label}"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L "$label" -j "$(nproc)"
done

echo "==> ctest (unlabeled: tool smoke tests)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -LE \
  'unit|property|integration|stress' -j "$(nproc)"

echo "==> determinism smoke: fig3 --threads 1 vs --threads 8"
T1_OUT="$(mktemp)"
T8_OUT="$(mktemp)"
trap 'rm -f "$T1_OUT" "$T8_OUT"' EXIT
"$BUILD_DIR/bench/fig3_ips_error" --fast --threads 1 > "$T1_OUT"
"$BUILD_DIR/bench/fig3_ips_error" --fast --threads 8 > "$T8_OUT"
if ! diff -q "$T1_OUT" "$T8_OUT" > /dev/null; then
  echo "FAIL: fig3 stdout differs between --threads 1 and --threads 8" >&2
  diff "$T1_OUT" "$T8_OUT" >&2 || true
  exit 1
fi
echo "ok: byte-identical output at 1 and 8 threads"

echo "==> estimator shape checks: ablation_estimators, ext_sequence_ope"
# The only programs that run DM, clipped IPS, SWITCH and the sequence
# estimators end to end; each exits 1 when one of its [ok] checks fails.
for bench in ablation_estimators ext_sequence_ope; do
  "$BUILD_DIR/bench/$bench" --fast > "$T1_OUT" \
    || { cat "$T1_OUT" >&2; echo "FAIL: $bench shape check" >&2; exit 1; }
done
echo "ok: every estimator shape check holds"

echo "==> chaos ingestion: corrupted-log sweep + injection-off identity"
# The hardened read path must degrade gracefully on corrupted logs (the
# bench's own shape check exits nonzero if error does not grow with the
# corruption rate), and with injection off harvest_inspect must emit the
# same bytes as a run with no --inject flag at all.
"$BUILD_DIR/bench/chaos_ingestion" --fast > /dev/null
"$BUILD_DIR/tools/harvest_inspect" --selftest \
  --inject "torn=0.05,dup=0.02,corrupt=0.03,bad-p=0.01" --inject-seed 7 \
  > /dev/null
"$BUILD_DIR/tools/harvest_inspect" --selftest > "$T1_OUT"
"$BUILD_DIR/tools/harvest_inspect" --selftest --inject "" > "$T8_OUT"
if ! diff -q "$T1_OUT" <(tail -n +2 "$T8_OUT") > /dev/null; then
  echo "FAIL: --inject \"\" changes harvest_inspect output beyond the" \
       "injection report line" >&2
  exit 1
fi
echo "ok: chaos sweep monotone; injection-off output identical"

echo "==> store: compact fixture corpus, text-vs-HLOG identity, corruption"
STORE_DIR="$(mktemp -d)"
trap 'rm -f "$T1_OUT" "$T8_OUT"; rm -rf "$STORE_DIR"' EXIT
"$BUILD_DIR/tools/harvest_compact" --make-demo "$STORE_DIR/demo.log" \
  --demo-records 20000
# --verify scavenges the text and the HLOG output and requires the datasets
# to be bit-identical; run it at 1 and 8 threads to cover the parallel scan.
for threads in 1 8; do
  "$BUILD_DIR/tools/harvest_compact" "$STORE_DIR/demo.log" \
    "$STORE_DIR/demo.hlog" \
    --event decide --context load --action choice --reward reward \
    --actions 3 --reward-lo=-0.5 --reward-hi 1.5 \
    --rows-per-block 512 --blocks-per-shard 4 \
    --threads "$threads" --verify > /dev/null
done
# Compaction must be deterministic: same text in, same bytes out.
"$BUILD_DIR/tools/harvest_compact" "$STORE_DIR/demo.log" \
  "$STORE_DIR/demo2.hlog" \
  --event decide --context load --action choice --reward reward \
  --actions 3 --reward-lo=-0.5 --reward-hi 1.5 \
  --rows-per-block 512 --blocks-per-shard 4 > /dev/null
if ! cmp -s "$STORE_DIR/demo.hlog" "$STORE_DIR/demo2.hlog"; then
  echo "FAIL: harvest_compact output is not deterministic" >&2
  exit 1
fi
# Corrupted-block sweep: damaged corpora must still be analyzable, with the
# damage ledgered as corrupt-block quarantine instead of a crash.
for frac in 0.1 0.5; do
  "$BUILD_DIR/tools/harvest_compact" "$STORE_DIR/demo.log" \
    "$STORE_DIR/bad.hlog" \
    --event decide --context load --action choice --reward reward \
    --actions 3 --reward-lo=-0.5 --reward-hi 1.5 \
    --rows-per-block 512 --blocks-per-shard 4 \
    --corrupt-blocks "$frac" --corrupt-seed 7 > /dev/null
  "$BUILD_DIR/tools/harvest_inspect" "$STORE_DIR/bad.hlog" \
    --diagnostics > /dev/null
done
echo "ok: HLOG round-trip identical at 1 and 8 threads; corruption quarantined"

echo "==> store: partitioned dataset + parallel merge round-trip"
# Text -> dataset directory (manifest + part files), verified against the
# text scavenge, then autodetected by harvest_inspect.
"$BUILD_DIR/tools/harvest_compact" "$STORE_DIR/demo.log" "$STORE_DIR/ds" \
  --event decide --context load --action choice --reward reward \
  --actions 3 --reward-lo=-0.5 --reward-hi 1.5 \
  --partition-rows 4096 --rows-per-block 512 --blocks-per-shard 4 \
  --verify > /dev/null
"$BUILD_DIR/tools/harvest_inspect" "$STORE_DIR/ds" --diagnostics > /dev/null
# Zone-map pushdown: a time-windowed inspect over the dataset must prune.
"$BUILD_DIR/tools/harvest_inspect" "$STORE_DIR/ds" --min-time 9000 \
  > "$STORE_DIR/inspect_window.txt"
grep -q "pruning: predicate" "$STORE_DIR/inspect_window.txt" \
  || { echo "FAIL: no pruning summary for a windowed inspect" >&2; exit 1; }
# Merge the dataset's parts plus a standalone file into one shard file,
# twice at different thread counts: byte-identical output or fail.
"$BUILD_DIR/tools/harvest_compact" --merge "$STORE_DIR/merged1.hlog" \
  "$STORE_DIR/ds" "$STORE_DIR/demo.hlog" --threads 1 > /dev/null
"$BUILD_DIR/tools/harvest_compact" --merge "$STORE_DIR/merged8.hlog" \
  "$STORE_DIR/ds" "$STORE_DIR/demo.hlog" --threads 8 > /dev/null
if ! cmp -s "$STORE_DIR/merged1.hlog" "$STORE_DIR/merged8.hlog"; then
  echo "FAIL: merge output differs between --threads 1 and --threads 8" >&2
  exit 1
fi
# Chaos on one named member of the dataset: the damage must stay confined
# to that shard and surface as corrupt-block quarantine on the next scan.
"$BUILD_DIR/tools/harvest_compact" --corrupt "$STORE_DIR/ds" \
  --corrupt-blocks 0.5 --corrupt-seed 3 \
  --corrupt-shard part-00001.hlog > /dev/null
"$BUILD_DIR/tools/harvest_inspect" "$STORE_DIR/ds" --diagnostics \
  > "$STORE_DIR/inspect_damaged.txt"
grep -q "corrupt-block" "$STORE_DIR/inspect_damaged.txt" \
  || { echo "FAIL: shard corruption not ledgered as corrupt-block" >&2; \
       exit 1; }
# And merging the damaged dataset must conserve the ledger (the tool exits
# nonzero when kept + quarantined != input rows).
"$BUILD_DIR/tools/harvest_compact" --merge "$STORE_DIR/merged-dmg.hlog" \
  "$STORE_DIR/ds" --threads 8 > /dev/null
echo "ok: dataset verified; merge byte-identical at 1 and 8 threads;" \
     "shard chaos ledgered and conserved"

if [[ -z "$SANITIZE" ]]; then
  echo "==> ingestion throughput: HLOG scan must beat text parse >= 3x"
  "$BUILD_DIR/bench/ingestion_throughput" --fast --threads 4 --reps 3 \
    --min-speedup 3 --json-out "$STORE_DIR/ingest_classic.json"
  echo "==> scale-out ingestion: zone-map pruning must deliver >= 10x"
  # 10M rows synthesized into a partitioned dataset; the bench itself
  # asserts pruned == filtered, scan conservation, and merge determinism.
  "$BUILD_DIR/bench/ingestion_throughput" --rows 10000000 --reps 3 \
    --workdir "$STORE_DIR/ingest_scaled" --min-prune-speedup 10 \
    --json-out "$STORE_DIR/ingest_scaled.json"
  # This run's snapshot of both modes.
  printf '{"classic": %s, "scaled": %s}\n' \
    "$(cat "$STORE_DIR/ingest_classic.json")" \
    "$(cat "$STORE_DIR/ingest_scaled.json")" > "$BENCH_OUT/BENCH_ingestion.json"
  echo "wrote $BENCH_OUT/BENCH_ingestion.json"
fi

echo "==> obs: recorder overhead gate + trace analyzer round-trip"
if [[ -z "$SANITIZE" ]]; then
  # The flight recorder must be ~free on the hot path: instrumented
  # scavenge->estimate within 5% of baseline (the median of 21 per-rep
  # on/off ratios), and default configs drop-free. A committed copy of the
  # JSON snapshot lets review spot perf regressions.
  "$BUILD_DIR/bench/obs_overhead" --reps 21 --records 8000 --iters 4 \
    --max-overhead 0.05 --json-out "$BENCH_OUT/BENCH_obs.json"
else
  # Sanitizer builds skew timing; run the bench for coverage, gate off.
  "$BUILD_DIR/bench/obs_overhead" --fast > /dev/null
fi
# A real bench run must produce a chrome trace the analyzer can read back
# into per-worker utilization and a critical path.
OBS_TRACE="$STORE_DIR/table2.trace.json"
"$BUILD_DIR/bench/table2_load_balancing" --fast --threads 4 \
  --trace-out "$OBS_TRACE" > /dev/null
OBS_REPORT="$("$BUILD_DIR/tools/harvest_trace" "$OBS_TRACE")"
for needle in "per-worker utilization" "critical path" "par.task"; do
  if ! grep -q "$needle" <<< "$OBS_REPORT"; then
    echo "FAIL: harvest_trace report missing '$needle'" >&2
    echo "$OBS_REPORT" >&2
    exit 1
  fi
done
echo "ok: overhead within gate; trace analyzer reconstructs worker report"

echo "==> serve: closed-loop harvest (serve -> HLOG -> retrain -> swap)"
# Three rounds of the online loop: the retrained snapshots must lift the
# mean reward above the round-0 uniform-randomization baseline.
"$BUILD_DIR/tools/harvest_serve" --rounds 3 --decisions 6000 --threads 2 \
  --workdir "$STORE_DIR/serve_loop" --check-improvement > /dev/null
echo "ok: closed loop improves on the logging policy"

echo "==> serve: crash-safe persistence (kill -9 mid-loop -> --resume)"
# A run with --snapshot-dir must leave a resumable store behind even when
# killed mid-loop, and a corrupted snapshot must cost a quarantine, never a
# crash. First a fresh run for the uniform round-0 baseline.
SERVE_DIR="$STORE_DIR/serve_persist"
"$BUILD_DIR/tools/harvest_serve" --rounds 2 --decisions 6000 --threads 2 \
  --workdir "$SERVE_DIR" --snapshot-dir "$STORE_DIR/snap_fresh" \
  > "$STORE_DIR/serve_fresh.txt"
UNIFORM_MEAN="$(awk '/^round 0:/ { sub(/.*mean_reward=/, ""); print $1 }' \
  "$STORE_DIR/serve_fresh.txt")"
[[ -f "$STORE_DIR/snap_fresh/CURRENT" ]] \
  || { echo "FAIL: --snapshot-dir run left no CURRENT pointer" >&2; exit 1; }
# Kill a long run as soon as its first snapshot lands on disk.
SNAP_DIR="$STORE_DIR/snap_killed"
"$BUILD_DIR/tools/harvest_serve" --rounds 200 --decisions 6000 --threads 2 \
  --workdir "$SERVE_DIR" --snapshot-dir "$SNAP_DIR" > /dev/null &
SERVE_PID=$!
for _ in $(seq 1 200); do
  [[ -f "$SNAP_DIR/CURRENT" ]] && break
  sleep 0.05
done
[[ -f "$SNAP_DIR/CURRENT" ]] \
  || { echo "FAIL: killed run published no snapshot within 10s" >&2; exit 1; }
sleep 0.2  # let a couple more rounds publish before the kill
kill -9 "$SERVE_PID" 2> /dev/null || true
wait "$SERVE_PID" 2> /dev/null || true
# The restarted loop must warm-start from the killed run's last snapshot:
# its round 0 serves a retrained policy, not uniform, so its mean must beat
# the fresh run's uniform round 0 by a clear margin.
"$BUILD_DIR/tools/harvest_serve" --rounds 2 --decisions 6000 --threads 2 \
  --workdir "$SERVE_DIR" --snapshot-dir "$SNAP_DIR" --resume \
  > "$STORE_DIR/serve_resumed.txt"
grep -q "^resumed from snapshot id=" "$STORE_DIR/serve_resumed.txt" \
  || { echo "FAIL: --resume did not resume from the killed run's store" >&2; \
       cat "$STORE_DIR/serve_resumed.txt" >&2; exit 1; }
RESUMED_MEAN="$(awk '/^round 0:/ { sub(/.*mean_reward=/, ""); print $1 }' \
  "$STORE_DIR/serve_resumed.txt")"
awk -v fresh="$UNIFORM_MEAN" -v resumed="$RESUMED_MEAN" \
  'BEGIN { exit !(resumed > fresh + 0.02) }' \
  || { echo "FAIL: resumed round 0 (${RESUMED_MEAN}) does not beat the" \
            "uniform round 0 (${UNIFORM_MEAN})" >&2; exit 1; }
# Corrupt the CURRENT target: the next --resume must quarantine it, fall
# back to an older intact snapshot, and exit 0.
head -c 64 /dev/zero > "$SNAP_DIR/$(cat "$SNAP_DIR/CURRENT")"
"$BUILD_DIR/tools/harvest_serve" --rounds 1 --decisions 6000 --threads 2 \
  --workdir "$SERVE_DIR" --snapshot-dir "$SNAP_DIR" --resume \
  > "$STORE_DIR/serve_quarantine.txt" 2> "$STORE_DIR/serve_quarantine.err"
grep -q "quarantined" "$STORE_DIR/serve_quarantine.err" \
  || { echo "FAIL: corrupted snapshot was not quarantined" >&2; exit 1; }
grep -q "^resumed from snapshot id=" "$STORE_DIR/serve_quarantine.txt" \
  || { echo "FAIL: no fallback resume after quarantine" >&2; exit 1; }
ls "$SNAP_DIR"/*.quarantined > /dev/null 2>&1 \
  || { echo "FAIL: no .quarantined file left behind" >&2; exit 1; }
echo "ok: kill -9 mid-loop resumed from disk (uniform ${UNIFORM_MEAN} ->" \
     "resumed ${RESUMED_MEAN}); corruption quarantined with fallback"

echo "==> design: plan -> serve under the plan -> measured variance gate"
# The full design loop on a small synthetic harvest: the planner must beat
# (or tie) its own eps-greedy baseline on the predicted worst-case OPE
# variance, and the variance measured on the planned arm's re-harvest must
# be no worse than the eps-greedy control arm serving the same contexts.
if [[ -z "$SANITIZE" ]]; then
  # Plain runs also write this host's snapshot.
  "$BUILD_DIR/tools/harvest_design" --selfloop --decisions 12000 \
    --threads 2 --workdir "$STORE_DIR/design_loop" --check \
    --bench "$BENCH_OUT/BENCH_design.json" > /dev/null
  echo "wrote $BENCH_OUT/BENCH_design.json"
else
  "$BUILD_DIR/tools/harvest_design" --selfloop --decisions 12000 \
    --threads 2 --workdir "$STORE_DIR/design_loop" --check > /dev/null
fi
# The emitted plan must round-trip through the offline mode (JSON parse +
# re-plan from the same harvest).
"$BUILD_DIR/tools/harvest_design" \
  --harvest "$STORE_DIR/design_loop/harvest0" \
  --out "$STORE_DIR/design_loop/plan_offline.json" > /dev/null
# Propensity pushdown on the CLI: carve the low-propensity exploration
# stratum out of the eps-greedy control arm (propensities there are exactly
# eps/K or 1-eps+eps/K, so --max-propensity 0.5 selects the exploration
# draws) and prove the selection conserves rows and is scannable.
"$BUILD_DIR/tools/harvest_compact" \
  --merge "$STORE_DIR/design_loop/explore_stratum.hlog" \
  "$STORE_DIR/design_loop/arm_epsgreedy" --max-propensity 0.5 \
  | grep -q "conservation: .* OK" \
  || { echo "FAIL: propensity-filtered merge broke conservation" >&2; exit 1; }
"$BUILD_DIR/tools/harvest_inspect" \
  "$STORE_DIR/design_loop/explore_stratum.hlog" --min-propensity 0.01 \
  | grep -q "pruning: predicate" \
  || { echo "FAIL: inspect printed no pruning summary" >&2; exit 1; }
echo "ok: planned logging never worse than eps-greedy; plan JSON" \
     "round-trips; propensity stratum extraction conserves rows"

if [[ -z "$SANITIZE" ]]; then
  echo "==> serve: throughput + tail-latency + zero-allocation gate"
  # Container-safe thresholds; the committed JSON tracks the real numbers.
  # The gate itself exits nonzero on < --min-mops decisions per second per
  # core, p99 above --max-p99-us, or ANY decide-path allocation (counted by
  # the harvest_allocgate allocator override). The floor of 4 is a third of
  # the committed ~12 Mdec/s/core: a host 1.7x slower still clears it, a
  # decide() regression of 3x or more does not.
  "$BUILD_DIR/bench/micro_decision_latency" --serve-throughput \
    --serve-threads 2 --serve-seconds 2 --swap-ms 5 \
    --min-mops 4 --max-p99-us 500 --json-out "$BENCH_OUT/BENCH_serve.json"
  echo "ok: serve gate passed; wrote $BENCH_OUT/BENCH_serve.json"
fi

if [[ -z "$SANITIZE" ]]; then
  echo "==> roundbench: workload smokes, break tests, result-set comparer"
  # The round-ledger benchmark is a CMake package of its own (roundbench/),
  # built here inside the CI tree with its tests on: each workload end to end
  # (ope-replay checks every estimate bit-for-bit against a 2-thread
  # reference pass), each output check broken on purpose and shown to fire,
  # and compare.py's unit tests. It compiles the sources without sanitizers,
  # so sanitizer runs skip it.
  cmake -B "$BUILD_DIR/roundbench" -S roundbench -DROUNDBENCH_TESTS=ON
  cmake --build "$BUILD_DIR/roundbench" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR/roundbench" --output-on-failure
  echo "ok: roundbench workloads, break tests and comparer tests pass"
fi

if [[ -z "$SANITIZE" ]]; then
  echo "==> par + obs + serve: pool and stress suites under TSan"
  # The pool's queue, the SPSC handoff (drain-while-recording) and the
  # snapshot swap/reclaim protocol are the races this repo's locks and
  # memory orderings exist to make safe; prove them under the analyzer even
  # on plain CI runs.
  cmake -B build-ci-obs-tsan -S . -DHARVEST_SANITIZE=thread \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-ci-obs-tsan -j "$(nproc)" \
    --target par_tests par_stress_tests recorder_stress_tests \
    serve_stress_tests
  TSAN_TESTS='ThreadPool|ParallelFor|ParallelReduce|ObsStress|DefaultPool'
  TSAN_TESTS+='|RecorderStressTest|ServeStressTest'
  ctest --test-dir build-ci-obs-tsan --output-on-failure -R "$TSAN_TESTS" \
    -j "$(nproc)"
  echo "ok: pool, recorder and serve stress clean under TSan"
fi
