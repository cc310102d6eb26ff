#!/usr/bin/env bash
# Runs the benchmark suite, aggregates per-repetition JSON into bench-history
# documents (schema ipin.bench.v1, one BENCH_<name>.json per bench), ready
# for archiving and for the tools/bench_compare regression gate.
#
# Usage:
#   scripts/run_benches.sh [--quick] [--build-dir=build] [--out-dir=bench-out]
#                          [--reps=3] [--scale=0.05] [--datasets=slashdot]
#                          [--threads=1] [--ledger-dir=DIR]
#
#   --quick      micro-benches (micro_irs, micro_sketch, micro_structures)
#                plus the table4_memory harness, 2 reps, minimal measuring
#                time — the CI smoke configuration, a couple of minutes.
#                table4_memory's vHLL and sealed-arena byte tallies are
#                allocator-counted, so every push compares deterministic
#                memory numbers against the committed baseline.
#   full (default) additionally runs the fig3/fig4/serving harnesses and
#                uses 3 reps.
#   --threads=N  worker-pool size for every bench (harnesses get --threads=N,
#                micro benches inherit it via IPIN_THREADS). Defaults to 1 so
#                bench-history documents stay comparable across machines;
#                pass --threads=0 for the hardware default when measuring
#                scaling curves (see EXPERIMENTS.md).
#   --ledger-dir=DIR  write one ipin.run.v1 manifest per bench invocation
#                (exported as IPIN_LEDGER_DIR; defaults to <out-dir>/ledgers).
#                Inspect with build/tools/ipin_runs.
#
# Outputs in --out-dir:
#   BENCH_micro_irs.json, BENCH_micro_sketch.json, ...   (ipin.bench.v1)
#   reps/<bench>.rep<N>.json                              (raw per-rep data)
#
# Compare two runs:
#   build/tools/bench_compare --baseline=old/BENCH_micro_irs.json \
#       --current=new/BENCH_micro_irs.json --threshold=0.15

set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
BUILD_DIR=build
OUT_DIR=bench-out
REPS=""
SCALE=0.05
DATASETS=slashdot
OMEGA_PCT=10
THREADS=1
LEDGER_DIR=""

for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --out-dir=*) OUT_DIR="${arg#*=}" ;;
    --reps=*) REPS="${arg#*=}" ;;
    --scale=*) SCALE="${arg#*=}" ;;
    --datasets=*) DATASETS="${arg#*=}" ;;
    --omega-pct=*) OMEGA_PCT="${arg#*=}" ;;
    --threads=*) THREADS="${arg#*=}" ;;
    --ledger-dir=*) LEDGER_DIR="${arg#*=}" ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# Micro benches use google-benchmark's own flag parser, which rejects
# unknown flags, so the pool size and ledger directory reach them through
# the environment (harnesses pick IPIN_LEDGER_DIR up as well).
export IPIN_THREADS="$THREADS"
export IPIN_LEDGER_DIR="${LEDGER_DIR:-$OUT_DIR/ledgers}"
mkdir -p "$IPIN_LEDGER_DIR"

if [[ -z "$REPS" ]]; then
  REPS=$(( QUICK == 1 ? 2 : 3 ))
fi

for exe in bench_micro_irs bench_micro_sketch tools/bench_history; do
  if [[ ! -x "$BUILD_DIR/bench/$exe" && ! -x "$BUILD_DIR/$exe" ]]; then
    echo "missing $exe under $BUILD_DIR — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 2
  fi
done

mkdir -p "$OUT_DIR/reps"

GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
COMPILER=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null | head -1)
COMPILER_ID=$("${COMPILER:-c++}" --version 2>/dev/null | head -1 || true)
COMPILER_ID=${COMPILER_ID:-unknown}

aggregate() {
  local bench="$1"; shift
  "$BUILD_DIR/tools/bench_history" \
    --bench="$bench" \
    --out="$OUT_DIR/BENCH_${bench}.json" \
    --git_sha="$GIT_SHA" \
    --compiler="$COMPILER_ID" \
    --dataset="$DATASETS" \
    --omega="${OMEGA_PCT}%" \
    "$@"
}

# --- micro-benches (google-benchmark JSON) --------------------------------
MICRO_BENCHES=(micro_irs micro_sketch micro_structures)

for bench in "${MICRO_BENCHES[@]}"; do
  reps=()
  for ((r = 1; r <= REPS; ++r)); do
    rep_file="$OUT_DIR/reps/${bench}.rep${r}.json"
    echo "== bench_${bench} rep $r/$REPS"
    args=(--benchmark_format=json --benchmark_out="$rep_file" \
          --benchmark_out_format=json)
    if [[ $QUICK == 1 ]]; then
      args+=(--benchmark_min_time=0.02)
    fi
    "$BUILD_DIR/bench/bench_${bench}" "${args[@]}" >/dev/null
    reps+=("$rep_file")
  done
  aggregate "$bench" "${reps[@]}"
done

# --- harness benches (ipin.metrics.v1 reports) ----------------------------
HARNESSES=(table4_memory)
if [[ $QUICK == 0 ]]; then
  HARNESSES=(fig3_processing_time fig4_oracle_query table4_memory
             oracle_serving)
fi
for bench in "${HARNESSES[@]}"; do
  reps=()
  for ((r = 1; r <= REPS; ++r)); do
    rep_file="$OUT_DIR/reps/${bench}.rep${r}.json"
    echo "== bench_${bench} rep $r/$REPS"
    "$BUILD_DIR/bench/bench_${bench}" \
      --datasets="$DATASETS" --scale="$SCALE" --threads="$THREADS" \
      --metrics_out="$rep_file" >/dev/null
    reps+=("$rep_file")
  done
  aggregate "$bench" "${reps[@]}"
done

echo
echo "bench-history documents:"
ls -l "$OUT_DIR"/BENCH_*.json
