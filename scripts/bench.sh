#!/usr/bin/env bash
# Engine-comparison benchmarks: the production engine (compiled +
# columnar) vs the paper-literal reference (eid/reference.h: per-tuple
# interpreter extension and string-fingerprint join).
#
# Smoke mode (default) runs the comparison at small n so CI can prove the
# benches still build, run, and emit JSON in a few seconds. --full sweeps
# up to n=4096 — the configuration whose numbers EXPERIMENTS.md records.
#
# Output: BENCH_derivation.json (bench_scaling_ilfd), BENCH_matcher.json
# (bench_scaling_matcher), BENCH_scaling.json (the thread sweeps of both)
# and BENCH_snapshot.json (bench_snapshot: save/load vs cold rebuild).
# Each mode writes fresh files, so its guards read only what this build
# measured: smoke under build/bench-smoke/, leaving the committed records
# alone; --full under build/bench-full/, and once the guards pass it
# replaces the committed files at the repo root with them. --full runs
# every benchmark the committed files hold records of, so a record no
# benchmark emits any more cannot survive a refresh. BM_ParallelIdentify
# and the matcher-engine benchmarks set fixed iterations and repetitions
# themselves (one n=4096 op outlasts any minimum time); every record is
# the median repetition, with its count as "samples".
#
# After the runs, the quadratic-fallback guard fails the script when any
# blocked-fixture record evaluated as many candidate pairs as the full
# cross product — i.e. the staged generator silently degenerated into
# the all-pairs sweep it exists to replace.
#
# Usage:
#   scripts/bench.sh          # smoke: small n, fast
#   scripts/bench.sh --full   # full sweep, identify up to n=65536
set -euo pipefail

cd "$(dirname "$0")/.."

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

if [[ ! -x build/bench/bench_scaling_ilfd || ! -x build/bench/bench_snapshot ]]; then
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$(nproc)" \
    --target bench_scaling_ilfd bench_scaling_matcher bench_snapshot
fi

if [[ "$FULL" == "1" ]]; then
  DERIVATION_FILTER='BM_(Derivation|Extension)(Compiled|Interpreter)'
  MATCHER_FILTER='BM_Matcher(Compiled|Interpreter)'
  SCALING_FILTER='BM_Parallel(Matcher|Identify(Blocked)?)/'
  EXTENSION_SCALING_FILTER='BM_ParallelExtension/'
  MIN_TIME=0.2
  OUT=build/bench-full
else
  DERIVATION_FILTER='BM_Derivation(Compiled|Interpreter)/256$|BM_Extension(Compiled|Interpreter)/1024$'
  MATCHER_FILTER='BM_Matcher(Compiled|Interpreter)/1024/'
  SCALING_FILTER='BM_ParallelIdentifyBlocked/4096/'
  EXTENSION_SCALING_FILTER=''
  MIN_TIME=0.05
  OUT=build/bench-smoke
fi
rm -rf "$OUT"  # fresh records only: the emitters merge into what exists
mkdir -p "$OUT"

echo "=== bench_scaling_ilfd -> $OUT/BENCH_derivation.json ==="
EID_BENCH_JSON="$OUT/BENCH_derivation.json" ./build/bench/bench_scaling_ilfd \
  --benchmark_filter="$DERIVATION_FILTER" \
  --benchmark_min_time="$MIN_TIME"

echo "=== bench_scaling_matcher -> $OUT/BENCH_matcher.json ==="
EID_BENCH_JSON="$OUT/BENCH_matcher.json" ./build/bench/bench_scaling_matcher \
  --benchmark_filter="$MATCHER_FILTER" \
  --benchmark_min_time="$MIN_TIME"

echo "=== bench_scaling_matcher (blocked identify) -> $OUT/BENCH_scaling.json ==="
EID_BENCH_JSON="$OUT/BENCH_scaling.json" ./build/bench/bench_scaling_matcher \
  --benchmark_filter="$SCALING_FILTER" \
  --benchmark_min_time="$MIN_TIME"

if [[ -n "$EXTENSION_SCALING_FILTER" ]]; then
  echo "=== bench_scaling_ilfd (extension threads) -> $OUT/BENCH_scaling.json ==="
  EID_BENCH_JSON="$OUT/BENCH_scaling.json" ./build/bench/bench_scaling_ilfd \
    --benchmark_filter="$EXTENSION_SCALING_FILTER" \
    --benchmark_min_time="$MIN_TIME"
fi

echo "=== bench_snapshot -> $OUT/BENCH_snapshot.json ==="
if [[ "$FULL" == "1" ]]; then
  EID_BENCH_JSON="$OUT/BENCH_snapshot.json" ./build/bench/bench_snapshot --full
else
  EID_BENCH_JSON="$OUT/BENCH_snapshot.json" ./build/bench/bench_snapshot
fi

echo "=== snapshot-structure guard ($OUT/BENCH_snapshot.json) ==="
awk '/"name": "snapshot"/ {
  seen = 1
  lm = $0; sub(/.*"load_ms": /, "", lm); sub(/[,}].*/, "", lm)
  fb = $0; sub(/.*"file_bytes": /, "", fb); sub(/[,}].*/, "", fb)
  if (lm + 0 <= 0 || fb + 0 <= 0) { print "DEGENERATE RECORD: " $0; bad = 1 }
}
END {
  if (!seen) { print "no snapshot records in BENCH_snapshot.json"; exit 1 }
  if (bad) exit 1
  print "snapshot records carry positive load times and file sizes"
}' "$OUT/BENCH_snapshot.json"

echo "=== quadratic-fallback guard ($OUT/BENCH_scaling.json) ==="
awk '/"name": "identify_blocked"/ {
  seen = 1
  cp = $0; sub(/.*"candidate_pairs": /, "", cp); sub(/[,}].*/, "", cp)
  xp = $0; sub(/.*"cross_product": /, "", xp); sub(/[,}].*/, "", xp)
  if (cp + 0 >= xp + 0) { print "QUADRATIC FALLBACK: " $0; bad = 1 }
}
END {
  if (!seen) { print "no identify_blocked records in BENCH_scaling.json"
               exit 1 }
  if (bad) exit 1
  print "blocked fixtures stayed below the cross product"
}' "$OUT/BENCH_scaling.json"

echo "=== compiled-engine speedup guard ($OUT/BENCH_matcher.json) ==="
# The columnar compiled engine must stay comfortably ahead of the
# reference's per-tuple interpreter (the matcher_interpreter records,
# eid::reference::BuildMatchingTable): at every n where both records
# exist the ratio interpreter/compiled must be >= 1.5 (EXPERIMENTS.md S8
# records ~2x at n=4096; 1.5 leaves slack for noisy CI machines without
# letting a regression to parity slip through).
awk '/"name": "matcher_(compiled|interpreter)"/ {
  name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
  n = $0; sub(/.*"n": /, "", n); sub(/[,}].*/, "", n)
  ns = $0; sub(/.*"ns_op": /, "", ns); sub(/[,}].*/, "", ns)
  if (name == "matcher_compiled") compiled[n] = ns + 0
  else interp[n] = ns + 0
}
END {
  for (n in compiled) {
    if (!(n in interp)) continue
    seen = 1
    ratio = interp[n] / compiled[n]
    printf "n=%s compiled=%.3fms interpreter=%.3fms ratio=%.2fx\n", \
           n, compiled[n] / 1e6, interp[n] / 1e6, ratio
    if (ratio < 1.5) { print "COMPILED ENGINE REGRESSION: ratio < 1.5x"; bad = 1 }
  }
  if (!seen) { print "no matcher engine pairs in BENCH_matcher.json"; exit 1 }
  if (bad) exit 1
  print "compiled engine holds >= 1.5x over the reference interpreter"
}' "$OUT/BENCH_matcher.json"

echo
echo "wrote BENCH_derivation.json, BENCH_matcher.json, BENCH_scaling.json" \
     "and BENCH_snapshot.json to $OUT"
if [[ "$FULL" == "1" ]]; then
  cp "$OUT"/BENCH_derivation.json "$OUT"/BENCH_matcher.json \
     "$OUT"/BENCH_scaling.json "$OUT"/BENCH_snapshot.json .
  echo "replaced the committed BENCH_*.json at the repo root with them"
fi
