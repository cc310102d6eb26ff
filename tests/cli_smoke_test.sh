#!/usr/bin/env bash
# End-to-end smoke test of the ipin_cli binary: every subcommand in a
# realistic generate -> index -> query pipeline. Invoked by ctest with the
# binary path as $1 and the build mode ("obs-enabled" or "obs-disabled")
# as $2. Under -DIPIN_OBS_DISABLED the IPIN_* instrumentation macros
# compile out, so assertions on recorded metric/span content only hold in
# obs-enabled builds; the plumbing (valid JSON, schema tags) holds in both.
set -euo pipefail

CLI="$1"
OBS_MODE="${2:-obs-enabled}"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

"${CLI}" generate --dataset=slashdot --scale=0.01 --out="${WORK}/net.txt" \
  | grep -q "wrote"
"${CLI}" stats "${WORK}/net.txt" | grep -q "interactions"
"${CLI}" build-index --in="${WORK}/net.txt" --window-pct=10 \
  --out="${WORK}/index.bin" | grep -q "built index"
"${CLI}" topk --index="${WORK}/index.bin" --k=5 | grep -q "combined reach"
"${CLI}" query --index="${WORK}/index.bin" --seeds=0,1,2 \
  | grep -q "estimated influence"
"${CLI}" simulate --in="${WORK}/net.txt" --seeds=0,1,2 --p=0.5 --runs=5 \
  | grep -q "TCIC spread"
"${CLI}" convert --in="${WORK}/net.txt" --dimacs="${WORK}/net.gr"
head -1 "${WORK}/net.gr" | grep -q "^p sp"

# The report command must emit a pipeline summary and, with --metrics_out,
# a valid JSON run report containing the headline instrumentation.
"${CLI}" report --in="${WORK}/net.txt" --window-pct=10 \
  --metrics_out="${WORK}/m.json" | grep -q "pipeline report"
test -s "${WORK}/m.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${WORK}/m.json" > /dev/null
else
  echo "python3 unavailable; skipping JSON syntax validation" >&2
fi
grep -q '"ipin.metrics.v1"' "${WORK}/m.json"
# build-index also honors the global flag.
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index2.bin" \
  --metrics_out="${WORK}/m2.json" > /dev/null
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q '"irs.exact.edges_scanned"' "${WORK}/m.json"
  grep -q '"sketch.vhll' "${WORK}/m.json"
  grep -q '"oracle.sketch.query_us"' "${WORK}/m.json"
  # Histogram snapshots carry interpolated percentiles.
  grep -q '"p95"' "${WORK}/m.json"
  grep -q '"irs.approx.edges_scanned"' "${WORK}/m2.json"
fi

# --trace_out writes a Chrome trace_event JSON file with span events.
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index3.bin" \
  --trace_out="${WORK}/trace.json" > /dev/null
test -s "${WORK}/trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${WORK}/trace.json" > /dev/null
fi
grep -q '"traceEvents"' "${WORK}/trace.json"
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q '"ph":"B"' "${WORK}/trace.json"
  grep -q 'irs.approx.compute' "${WORK}/trace.json"
fi

# report --format selects the exporter: prom and json must both work.
# (Capture to files: grep -q on a pipe would SIGPIPE the CLI mid-write.)
"${CLI}" report --in="${WORK}/net.txt" --format=prom > "${WORK}/report.prom"
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q '^# TYPE irs_exact_edges_scanned_total counter' "${WORK}/report.prom"
  grep -q '_p95 ' "${WORK}/report.prom"
fi
"${CLI}" report --in="${WORK}/net.txt" --format=json > "${WORK}/report.json"
grep -q '"ipin.metrics.v1"' "${WORK}/report.json"
if "${CLI}" report --in="${WORK}/net.txt" --format=nonsense 2>/dev/null; then
  echo "expected failure on bad --format" >&2
  exit 1
fi

# Failure paths must fail loudly — and missing/unreadable inputs are the
# user's problem, reported with a one-line diagnostic and exit code 2.
set +e
"${CLI}" topk --index="${WORK}/does-not-exist.bin" 2>"${WORK}/err1.txt"
[ $? -eq 2 ] || { echo "missing index should exit 2" >&2; exit 1; }
grep -q "cannot open index" "${WORK}/err1.txt" \
  || { echo "missing index should print a cannot-open line" >&2; exit 1; }
[ "$(wc -l < "${WORK}/err1.txt")" -eq 1 ] \
  || { echo "missing index should print exactly one stderr line" >&2; exit 1; }
"${CLI}" stats "${WORK}/no-such-net.txt" 2>"${WORK}/err2.txt"
[ $? -eq 2 ] || { echo "missing dataset should exit 2" >&2; exit 1; }
grep -q "cannot open dataset" "${WORK}/err2.txt" \
  || { echo "missing dataset should print a cannot-open line" >&2; exit 1; }
"${CLI}" frobnicate 2>/dev/null
[ $? -ne 0 ] || { echo "expected failure on unknown command" >&2; exit 1; }
# A scale outside (0, 1] is a usage error, not a crash.
"${CLI}" generate --dataset=enron --scale=2 --out="${WORK}/never.txt" \
  2>"${WORK}/err_scale.txt"
[ $? -eq 2 ] || { echo "--scale=2 should exit 2" >&2; exit 1; }
grep -q "scale must lie in" "${WORK}/err_scale.txt" \
  || { echo "--scale=2 should say why" >&2; exit 1; }
[ ! -e "${WORK}/never.txt" ] \
  || { echo "--scale=2 must not write output" >&2; exit 1; }
# Sketch flags the library would assert on are usage errors, not aborts.
for cmd in build-index report; do
  for precision in 3 19; do
    "${CLI}" "${cmd}" --in="${WORK}/net.txt" --precision="${precision}" \
      --out="${WORK}/never.bin" 2>"${WORK}/err_precision.txt"
    [ $? -eq 2 ] \
      || { echo "${cmd} --precision=${precision} should exit 2" >&2; exit 1; }
    grep -q "precision must lie in" "${WORK}/err_precision.txt" \
      || { echo "${cmd} --precision=${precision} should say why" >&2; exit 1; }
  done
done
for cmd in build-index report; do
  "${CLI}" "${cmd}" --in="${WORK}/net.txt" --window-pct=-5 \
    --out="${WORK}/never.bin" 2>"${WORK}/err_window.txt"
  [ $? -eq 2 ] || { echo "${cmd} --window-pct=-5 should exit 2" >&2; exit 1; }
  grep -q "window-pct must be >= 0" "${WORK}/err_window.txt" \
    || { echo "${cmd} --window-pct=-5 should say why" >&2; exit 1; }
done
[ ! -e "${WORK}/never.bin" ] \
  || { echo "a rejected sketch flag must not write output" >&2; exit 1; }
set -e

# Lenient parsing: a damaged edge file loads with --lenient, fails without.
printf '0 1 5\ngarbage line\n1 2 6\n' > "${WORK}/damaged.txt"
if "${CLI}" stats "${WORK}/damaged.txt" 2>/dev/null; then
  echo "strict parse should reject a damaged file" >&2
  exit 1
fi
"${CLI}" stats "${WORK}/damaged.txt" --lenient | grep -q "interactions"

# Checkpointed builds: the flags produce checkpoint files, and a rerun
# resumes from them instead of rescanning.
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index4.bin" \
  --checkpoint_dir="${WORK}/ckpt" --checkpoint_every=500 \
  | grep -q "checkpointing:"
ls "${WORK}/ckpt" | grep -q '\.ipinckpt$'
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index5.bin" \
  --checkpoint_dir="${WORK}/ckpt" --checkpoint_every=500 \
  | grep -q "resumed [1-9]"
cmp "${WORK}/index4.bin" "${WORK}/index5.bin" \
  || { echo "resumed index differs from the uninterrupted one" >&2; exit 1; }

# The build writes the same index bytes at every thread count, with
# checkpoints or without; 3 threads split beta = 512 cells into parts of
# unequal size.
for threads in 1 3; do
  "${CLI}" build-index --in="${WORK}/net.txt" --window-pct=10 \
    --threads="${threads}" --out="${WORK}/index_t${threads}.bin" > /dev/null
  "${CLI}" build-index --in="${WORK}/net.txt" --window-pct=10 \
    --threads="${threads}" --checkpoint_dir="${WORK}/ckpt_t${threads}" \
    --checkpoint_every=500 --out="${WORK}/index_ckpt_t${threads}.bin" \
    > /dev/null
done
for built in index_t3 index_ckpt_t1 index_ckpt_t3; do
  cmp "${WORK}/index_t1.bin" "${WORK}/${built}.bin" \
    || { echo "${built} differs from the 1-thread index" >&2; exit 1; }
done

# Failpoints are reachable from the environment: an injected load error
# must fail the command...
if IPIN_FAILPOINTS="graph_io.load=error" "${CLI}" stats "${WORK}/net.txt" \
    2>/dev/null; then
  echo "expected failure with graph_io.load failpoint armed" >&2
  exit 1
fi
# ...and a corrupted saved index must degrade, not crash: flip one byte in
# a section payload and the query must still answer.
cp "${WORK}/index.bin" "${WORK}/index_corrupt.bin"
python3 - "$WORK/index_corrupt.bin" <<'EOF' 2>/dev/null || \
  printf '\x41' | dd of="${WORK}/index_corrupt.bin" bs=1 seek=200 \
    conv=notrunc status=none
import sys
path = sys.argv[1]
with open(path, "r+b") as f:
    f.seek(200)
    byte = f.read(1)
    f.seek(200)
    f.write(bytes([byte[0] ^ 0x20]))
EOF
"${CLI}" query --index="${WORK}/index_corrupt.bin" --seeds=0,1,2 \
  2>"${WORK}/err3.txt" | grep -q "estimated influence"
grep -qi "degraded" "${WORK}/err3.txt" \
  || { echo "degraded load should warn on stderr" >&2; exit 1; }

# Run ledger: --ledger_dir persists one ipin.run.v1 manifest per command
# in both build modes (the ledger is cold-path code, never compiled out).
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index6.bin" \
  --ledger_dir="${WORK}/ledgers" 2>"${WORK}/led1.txt" > /dev/null
grep -q "wrote run ledger to" "${WORK}/led1.txt" \
  || { echo "ledger path line missing" >&2; exit 1; }
ls "${WORK}/ledgers" | grep -q '\.ipinrun$' \
  || { echo "no .ipinrun file written" >&2; exit 1; }
grep -aq '"ipin.run.v1"' "${WORK}/ledgers"/*.ipinrun \
  || { echo "ledger missing schema tag" >&2; exit 1; }
grep -aq '"outcome":"ok"' "${WORK}/ledgers"/*.ipinrun \
  || { echo "ledger missing ok outcome" >&2; exit 1; }
# The IPIN_LEDGER_DIR env fallback works too.
IPIN_LEDGER_DIR="${WORK}/ledgers_env" "${CLI}" stats "${WORK}/net.txt" \
  > /dev/null 2>&1
ls "${WORK}/ledgers_env" | grep -q '\.ipinrun$' \
  || { echo "IPIN_LEDGER_DIR fallback did not write a ledger" >&2; exit 1; }

# End-of-command summary line on success, at the default log level.
grep -q "done in .*peak rss .*threads" "${WORK}/led1.txt" \
  || { echo "summary line missing" >&2; exit 1; }
# ...and never on the (single-line stderr) error paths.
set +e
"${CLI}" topk --index="${WORK}/does-not-exist.bin" 2>"${WORK}/err4.txt"
set -e
if grep -q "done in" "${WORK}/err4.txt"; then
  echo "summary line must not appear on failure" >&2; exit 1
fi
[ "$(wc -l < "${WORK}/err4.txt")" -eq 1 ] \
  || { echo "error path grew beyond one stderr line" >&2; exit 1; }

# Heartbeats: --progress_out appends ipin.heartbeat.v1 lines; the final
# beat on stop guarantees at least one in obs-enabled builds. In disabled
# builds the flag is an accepted no-op.
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index7.bin" \
  --progress_out="${WORK}/hb.jsonl" --heartbeat_ms=20 > /dev/null
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  test -s "${WORK}/hb.jsonl"
  grep -q '"ipin.heartbeat.v1"' "${WORK}/hb.jsonl"
  grep -q '"rss_bytes"' "${WORK}/hb.jsonl"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${WORK}/hb.jsonl" <<'EOF'
import json, sys
prev = 0
for line in open(sys.argv[1]):
    beat = json.loads(line)
    assert beat["seq"] > prev, (beat["seq"], prev)
    prev = beat["seq"]
EOF
  fi
  # An unopenable --progress_out is the user's problem: exit 2.
  set +e
  "${CLI}" stats "${WORK}/net.txt" \
    --progress_out="${WORK}/no/such/dir/hb.jsonl" 2>/dev/null
  [ $? -eq 2 ] || { echo "bad --progress_out should exit 2" >&2; exit 1; }
  set -e
fi

# A resumed checkpointed build records a checkpoint.resume event in its
# ledger (the run ledger works in both obs modes).
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index8.bin" \
  --checkpoint_dir="${WORK}/ckpt2" --checkpoint_every=500 > /dev/null
"${CLI}" build-index --in="${WORK}/net.txt" --out="${WORK}/index9.bin" \
  --checkpoint_dir="${WORK}/ckpt2" --checkpoint_every=500 \
  --ledger_dir="${WORK}/ledgers_resume" > /dev/null
grep -aq '"outcome":"resumed"' "${WORK}/ledgers_resume"/*.ipinrun \
  || { echo "resumed build ledger lacks resumed outcome" >&2; exit 1; }
grep -aq '"checkpoint.resume"' "${WORK}/ledgers_resume"/*.ipinrun \
  || { echo "resumed build ledger lacks checkpoint.resume event" >&2; exit 1; }
cmp "${WORK}/index8.bin" "${WORK}/index9.bin" \
  || { echo "ledgered resume changed the index bytes" >&2; exit 1; }

echo "cli smoke test OK"
