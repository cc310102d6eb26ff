#!/usr/bin/env bash
# End-to-end test of the bench-history pipeline: bench_history aggregation
# (both input formats) and the bench_compare regression gate's exit codes.
#
# Usage: bench_tools_test.sh <bench_history> <bench_compare>

set -euo pipefail

BENCH_HISTORY=$1
BENCH_COMPARE=$2
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# --- fixtures -------------------------------------------------------------
# Two google-benchmark-format reps with slightly different timings.
cat > "$WORKDIR/rep1.json" <<'EOF'
{"context": {"date": "x"}, "benchmarks": [
  {"name": "BM_Scan/100", "real_time": 100.0, "cpu_time": 99.0,
   "time_unit": "us"},
  {"name": "BM_Scan/200", "real_time": 210.0, "cpu_time": 205.0,
   "time_unit": "us"}
]}
EOF
cat > "$WORKDIR/rep2.json" <<'EOF'
{"context": {"date": "x"}, "benchmarks": [
  {"name": "BM_Scan/100", "real_time": 104.0, "cpu_time": 103.0,
   "time_unit": "us"},
  {"name": "BM_Scan/200", "real_time": 190.0, "cpu_time": 188.0,
   "time_unit": "us"}
]}
EOF
# One ipin.metrics.v1 run report.
cat > "$WORKDIR/report.json" <<'EOF'
{"schema": "ipin.metrics.v1",
 "counters": {"irs.exact.edges_scanned": 5000},
 "gauges": {"mem.vhll.bytes": 123456.0},
 "histograms": {"oracle.query_us": {"count": 10, "sum": 1000, "min": 50,
   "max": 200, "mean": 100.0, "p50": 95.0, "p95": 180.0, "p99": 198.0,
   "buckets": [{"le": 127, "count": 10}]}},
 "spans": []}
EOF

# --- bench_history: google-benchmark input --------------------------------
"$BENCH_HISTORY" --bench=micro_test --out="$WORKDIR/BENCH_micro_test.json" \
  --git_sha=abc123 --compiler="g++ 12" --dataset=slashdot --omega=10% \
  "$WORKDIR/rep1.json" "$WORKDIR/rep2.json" \
  || fail "bench_history (google-benchmark input) exited nonzero"

grep -q '"schema": "ipin.bench.v1"' "$WORKDIR/BENCH_micro_test.json" \
  || fail "output missing ipin.bench.v1 schema tag"
grep -q '"git_sha": "abc123"' "$WORKDIR/BENCH_micro_test.json" \
  || fail "output missing git_sha"
grep -q '"reps": 2' "$WORKDIR/BENCH_micro_test.json" \
  || fail "output missing reps"
grep -q '"BM_Scan/100"' "$WORKDIR/BENCH_micro_test.json" \
  || fail "output missing metric BM_Scan/100"
# min of BM_Scan/100 over the two reps is 100, median 102.
grep -q '"min": 100' "$WORKDIR/BENCH_micro_test.json" \
  || fail "wrong min for BM_Scan/100"
grep -q '"median": 102' "$WORKDIR/BENCH_micro_test.json" \
  || fail "wrong median for BM_Scan/100"

# --- bench_history: metrics-report input ----------------------------------
"$BENCH_HISTORY" --bench=harness_test \
  --out="$WORKDIR/BENCH_harness_test.json" "$WORKDIR/report.json" \
  || fail "bench_history (metrics-report input) exited nonzero"
grep -q '"irs.exact.edges_scanned"' "$WORKDIR/BENCH_harness_test.json" \
  || fail "counter metric missing from aggregated report"
grep -q '"oracle.query_us/p95"' "$WORKDIR/BENCH_harness_test.json" \
  || fail "histogram p95 metric missing from aggregated report"

# Rejects garbage input.
echo 'not json' > "$WORKDIR/garbage.json"
if "$BENCH_HISTORY" --bench=x --out="$WORKDIR/x.json" \
    "$WORKDIR/garbage.json" 2>/dev/null; then
  fail "bench_history accepted unparsable input"
fi

# --- bench_compare: identical inputs exit 0 -------------------------------
"$BENCH_COMPARE" --baseline="$WORKDIR/BENCH_micro_test.json" \
  --current="$WORKDIR/BENCH_micro_test.json" \
  || fail "bench_compare nonzero on identical inputs"

# --- bench_compare: injected regression exits nonzero ---------------------
# Degrade BM_Scan/100 by 50% (well past the 10% default threshold).
sed 's/"median": 102/"median": 153/' "$WORKDIR/BENCH_micro_test.json" \
  > "$WORKDIR/BENCH_regressed.json"
if "$BENCH_COMPARE" --baseline="$WORKDIR/BENCH_micro_test.json" \
    --current="$WORKDIR/BENCH_regressed.json" > "$WORKDIR/compare.out"; then
  fail "bench_compare exit 0 on a 50% regression"
fi
grep -q 'REGRESSION' "$WORKDIR/compare.out" \
  || fail "regression not flagged in output"

# Same diff passes with a permissive threshold.
"$BENCH_COMPARE" --baseline="$WORKDIR/BENCH_micro_test.json" \
  --current="$WORKDIR/BENCH_regressed.json" --threshold=0.60 \
  || fail "bench_compare nonzero below explicit threshold"

# An *improvement* must not trip the gate.
sed 's/"median": 102/"median": 51/' "$WORKDIR/BENCH_micro_test.json" \
  > "$WORKDIR/BENCH_improved.json"
"$BENCH_COMPARE" --baseline="$WORKDIR/BENCH_micro_test.json" \
  --current="$WORKDIR/BENCH_improved.json" \
  || fail "bench_compare flagged an improvement as regression"

# --- bench_compare: a metric in only one file is named, never a failure --
# A current file whose bench dropped BM_Scan/200: the baseline's metric is
# printed by name with its side, and the gate still exits 0.
cat > "$WORKDIR/rep_retired.json" <<'EOF'
{"context": {"date": "x"}, "benchmarks": [
  {"name": "BM_Scan/100", "real_time": 102.0, "cpu_time": 101.0,
   "time_unit": "us"}
]}
EOF
"$BENCH_HISTORY" --bench=micro_test --out="$WORKDIR/BENCH_retired.json" \
  "$WORKDIR/rep_retired.json" || fail "bench_history (one rep) exited nonzero"
"$BENCH_COMPARE" --baseline="$WORKDIR/BENCH_micro_test.json" \
  --current="$WORKDIR/BENCH_retired.json" > "$WORKDIR/one_side.out" \
  || fail "a metric missing from the current file must not fail the gate"
grep -Eq '^BM_Scan/200 +only in baseline$' "$WORKDIR/one_side.out" \
  || fail "a baseline-only metric should be printed by name and side"

# --- provenance -----------------------------------------------------------
# bench_history stamps the collecting machine's environment into the
# document so later comparisons can tell like-for-like from cross-machine.
grep -q '"provenance"' "$WORKDIR/BENCH_micro_test.json" \
  || fail "aggregated document missing provenance object"
grep -q '"hostname"' "$WORKDIR/BENCH_micro_test.json" \
  || fail "provenance missing hostname"
grep -q '"build_type"' "$WORKDIR/BENCH_micro_test.json" \
  || fail "provenance missing build_type"
grep -Eq '"threads": [0-9]+' "$WORKDIR/BENCH_micro_test.json" \
  || fail "provenance missing threads"

# Differing provenance warns (stderr) without failing the comparison.
sed 's/"hostname": "[^"]*"/"hostname": "elsewhere"/' \
  "$WORKDIR/BENCH_micro_test.json" > "$WORKDIR/BENCH_elsewhere.json"
"$BENCH_COMPARE" --baseline="$WORKDIR/BENCH_micro_test.json" \
  --current="$WORKDIR/BENCH_elsewhere.json" 2>"$WORKDIR/prov_warn.txt" \
  || fail "provenance-only difference must not fail the gate"
grep -q 'warning: hostname differs' "$WORKDIR/prov_warn.txt" \
  || fail "differing hostname should warn on stderr"
# Identical provenance stays silent.
"$BENCH_COMPARE" --baseline="$WORKDIR/BENCH_micro_test.json" \
  --current="$WORKDIR/BENCH_micro_test.json" 2>"$WORKDIR/prov_quiet.txt" \
  > /dev/null
if grep -q 'warning:' "$WORKDIR/prov_quiet.txt"; then
  fail "identical provenance should not warn"
fi

# Usage / parse errors exit 2 (distinct from the regression exit 1).
set +e
"$BENCH_COMPARE" 2>/dev/null
[[ $? -eq 2 ]] || fail "missing-flags usage error should exit 2"
"$BENCH_COMPARE" --baseline="$WORKDIR/garbage.json" \
  --current="$WORKDIR/BENCH_micro_test.json" 2>"$WORKDIR/parse_err.txt"
[[ $? -eq 2 ]] || fail "parse error should exit 2"
grep -q 'cannot parse' "$WORKDIR/parse_err.txt" \
  || fail "parse error should print a 'cannot parse' diagnostic"
"$BENCH_COMPARE" --baseline="$WORKDIR/no_such_file.json" \
  --current="$WORKDIR/BENCH_micro_test.json" 2>"$WORKDIR/missing_err.txt"
[[ $? -eq 2 ]] || fail "missing baseline file should exit 2"
grep -q 'cannot open' "$WORKDIR/missing_err.txt" \
  || fail "missing file should print a 'cannot open' diagnostic"
set -e

echo "bench_tools_test: all checks passed"
