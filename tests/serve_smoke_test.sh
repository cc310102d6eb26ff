#!/usr/bin/env bash
# Fault drill for the oracle serving layer, end to end through the real
# binaries: ipin_cli builds an index, ipin_oracled serves it, and the
# retrying ipin_oracle_client drives it. The drill asserts the four
# robustness guarantees of the serving layer:
#   (a) under overload the server sheds (OVERLOADED + retry hint) instead
#       of growing the queue without bound,
#   (b) when exact evaluation is too slow it degrades to sketch answers
#       within the deadline (degraded=true), and hopeless deadlines get
#       DEADLINE_EXCEEDED instead of a late answer,
#   (c) a corrupted index file rolls back on reload — the old epoch keeps
#       serving, zero crashes — and recovers once the file is fixed,
#   (d) SIGTERM drains in-flight work and exits 0 — also with a reload
#       wedged in the loader, whether the reload verb, SIGHUP or the
#       --reload_check_ms poll started it; SIGHUP reloads like the verb;
#       SIGKILL mid-reload leaves the on-disk index intact for the next
#       start.
#
# A fifth phase drills the observability surface: wire-propagated trace
# context (explicit trace ids echoed and recorded), the "metrics" and
# "debug" verbs, the slow-query flight recorder (a failpoint-delayed query
# must show up with per-stage timings), the SIGUSR1 dump, and — in
# obs-enabled builds — the Chrome trace written by --trace_out, which must
# carry every serve stage lane and close each stage of the request's lane.
#
# Invoked by ctest: $1=ipin_cli $2=ipin_oracled $3=ipin_oracle_client
# $4=obs mode ("obs-enabled"/"obs-disabled"; metric assertions only hold in
# obs-enabled builds). Optional: $5=ipin_top (dashboard smoke),
# $6=artifact dir (falls back to $IPIN_SMOKE_ARTIFACTS; the Chrome trace
# and flight-recorder dump are copied there for CI upload).
set -euo pipefail

CLI="$1"
DAEMON="$2"
CLIENT="$3"
OBS_MODE="${4:-obs-enabled}"
IPIN_TOP="${5:-}"
ARTIFACTS="${6:-${IPIN_SMOKE_ARTIFACTS:-}}"
WORK="$(mktemp -d)"
SOCK="${WORK}/ipin.sock"
# Phases 2-5 bind --port=0 (kernel-assigned) and publish the endpoint via
# --port_file: nothing in this script names a fixed TCP port, so parallel
# ctest runs cannot collide. wait_ready reads the file back pid-matched.
PORT_FILE="${WORK}/daemon.port"
PORT=""
DAEMON_PID=""

PIDFILE_DIR="${WORK}/pids"
mkdir -p "${PIDFILE_DIR}"

# Every daemon start drops a PID file; cleanup kills them ALL. Tracking only
# the "current" daemon leaks the previous phase's process when a later phase
# fails between stop_daemon and the next start, and leaves the backgrounded
# reload client of phase 4 running. ctest then hangs on the orphan holding
# the log pipe open.
register_daemon() {
  DAEMON_PID=$!
  echo "${DAEMON_PID}" > "${PIDFILE_DIR}/daemon.${DAEMON_PID}.pid"
}

cleanup() {
  local pidfile pid
  for pidfile in "${PIDFILE_DIR}"/*.pid; do
    [ -e "${pidfile}" ] || continue
    pid="$(cat "${pidfile}")"
    kill -KILL "${pid}" 2>/dev/null || true
  done
  # Stray background jobs (e.g. the phase-4 reload client).
  local job
  for job in $(jobs -p); do kill -KILL "${job}" 2>/dev/null || true; done
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() { echo "serve smoke FAILED: $*" >&2; exit 1; }

# Waits for the daemon's port file to report the freshly started pid ($1 is
# the log file, for diagnostics). The daemon writes the file only once its
# socket is accepting, and matching the pid defeats stale files left by a
# previous incarnation. Exports PORT (the bound TCP port, or -1 for a
# unix-socket daemon).
wait_ready() {
  PORT=""
  for _ in $(seq 1 150); do
    if [ -f "${PORT_FILE}" ] \
        && grep -q "pid=${DAEMON_PID} " "${PORT_FILE}"; then
      PORT="$(sed -n 's/.*port=\(-\{0,1\}[0-9]*\).*/\1/p' "${PORT_FILE}")"
      return 0
    fi
    if [ -n "${DAEMON_PID}" ] && ! kill -0 "${DAEMON_PID}" 2>/dev/null; then
      cat "$1" >&2
      fail "daemon died before becoming ready"
    fi
    sleep 0.1
  done
  cat "$1" >&2
  fail "daemon did not publish its port file"
}

# SIGTERMs the daemon and asserts a clean drain (exit 0 + drain line).
stop_daemon() {
  local log="$1"
  kill -TERM "${DAEMON_PID}"
  local rc=0
  wait "${DAEMON_PID}" || rc=$?
  DAEMON_PID=""
  [ "${rc}" -eq 0 ] || { cat "${log}" >&2; fail "drain exited ${rc}"; }
  grep -q "ipin_oracled: drained, exiting" "${log}" \
    || { cat "${log}" >&2; fail "missing drain line"; }
}

# Extracts "key=value" from client output.
field() { sed -n "s/.*$2=\([^ ]*\).*/\1/p" "$1" | head -1; }

# --- Build a small dataset and index -------------------------------------
"${CLI}" generate --dataset=slashdot --scale=0.01 --out="${WORK}/net.txt" \
  > /dev/null
"${CLI}" build-index --in="${WORK}/net.txt" --window-pct=10 \
  --out="${WORK}/index.bin" > /dev/null
cp "${WORK}/index.bin" "${WORK}/index.good"

# --- Options that would leave every query hanging are usage errors -------
# --workers=0 would start no evaluation slot; a negative queue capacity
# would wrap. Both must print usage and exit 2 before binding the socket.
for bad in --workers=0 --queue_capacity=-1 --max_connections=0; do
  set +e
  "${DAEMON}" --index="${WORK}/index.bin" --socket="${SOCK}" "${bad}" \
    > /dev/null 2> "${WORK}/bad_flag.txt"
  rc=$?
  set -e
  [ "${rc}" -eq 2 ] || fail "${bad} should exit 2, got ${rc}"
  grep -q "usage: ipin_oracled" "${WORK}/bad_flag.txt" \
    || fail "${bad} should print usage"
  test ! -e "${SOCK}" || fail "${bad} must not bind the socket"
done

# --- Phase 1: basic serving + clean SIGTERM drain ------------------------
"${DAEMON}" --index="${WORK}/index.bin" --socket="${SOCK}" \
  --port_file="${PORT_FILE}" --graph="${WORK}/net.txt" --workers=2 \
  --metrics_out="${WORK}/m1.json" > "${WORK}/d1.log" 2>&1 &
register_daemon
wait_ready "${WORK}/d1.log"

"${CLIENT}" --socket="${SOCK}" --seeds=0,1,2 --mode=sketch \
  > "${WORK}/q_sketch.txt"
grep -q "status=OK" "${WORK}/q_sketch.txt"
[ "$(field "${WORK}/q_sketch.txt" degraded)" = "0" ] \
  || fail "sketch query must not be degraded"
"${CLIENT}" --socket="${SOCK}" --seeds=0,1,2 --mode=exact \
  > "${WORK}/q_exact.txt"
[ "$(field "${WORK}/q_exact.txt" degraded)" = "0" ] \
  || fail "exact query with a loaded map must not degrade"
"${CLIENT}" --socket="${SOCK}" --method=health | grep -q "status=OK"
"${CLIENT}" --socket="${SOCK}" --method=stats > "${WORK}/stats.txt"
grep -q "queue_capacity=" "${WORK}/stats.txt" || fail "stats missing queue"

stop_daemon "${WORK}/d1.log"
test ! -e "${SOCK}" || fail "socket not unlinked after drain"
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q '"serve.requests.ok"' "${WORK}/m1.json" \
    || fail "metrics report missing serve.requests.ok"
fi

# --- Phase 2: overload + degradation under a slow-eval failpoint ---------
# serve.eval=delay(30) makes every exact attempt burn 30 ms against a 10 ms
# exact budget: auto queries must fall back to sketch (degraded=true), and a
# 16-way closed loop against 2 workers and a 4-deep queue must shed.
IPIN_FAILPOINTS="serve.eval=delay(30)" \
  "${DAEMON}" --index="${WORK}/index.bin" --port=0 \
  --port_file="${PORT_FILE}" \
  --graph="${WORK}/net.txt" --workers=2 --queue_capacity=4 \
  --exact_budget_ms=10 --retry_after_ms=20 \
  --metrics_out="${WORK}/m2.json" > "${WORK}/d2.log" 2>&1 &
register_daemon
wait_ready "${WORK}/d2.log"

"${CLIENT}" --port="${PORT}" --seeds=0,1,2 --mode=auto \
  --requests=200 --concurrency=16 > "${WORK}/burst.txt" || true
cat "${WORK}/burst.txt"
ok="$(field "${WORK}/burst.txt" ok)"
degraded="$(field "${WORK}/burst.txt" degraded)"
overloaded="$(field "${WORK}/burst.txt" overloaded)"
bad="$(field "${WORK}/burst.txt" bad)"
transport="$(field "${WORK}/burst.txt" transport_errors)"
[ "${ok}" -ge 1 ] || fail "overloaded server answered nothing"
[ "${degraded}" -ge 1 ] || fail "slow exact eval did not degrade to sketch"
[ "${overloaded}" -ge 1 ] || fail "no load shedding under overload"
[ "${bad}" -eq 0 ] || fail "unexpected BAD_REQUEST during burst"
[ "${transport}" -eq 0 ] || fail "connections broke during burst"
[ "${ok}" -eq "${degraded}" ] \
  || fail "every OK under the slow-eval fault should be degraded"

# A hopeless deadline gets DEADLINE_EXCEEDED, not a late answer.
"${CLIENT}" --port="${PORT}" --seeds=0,1,2 --mode=auto --deadline_ms=1 \
  > "${WORK}/q_deadline.txt" || true
grep -q "status=DEADLINE_EXCEEDED" "${WORK}/q_deadline.txt" \
  || fail "1ms deadline should be exceeded under the slow-eval fault"

# A retrying client eventually gets through the overload.
"${CLIENT}" --port="${PORT}" --seeds=0,1 --mode=sketch \
  --requests=40 --concurrency=12 --retry_overloaded --max_attempts=6 \
  > "${WORK}/burst_retry.txt" || true
retry_ok="$(field "${WORK}/burst_retry.txt" ok)"
[ "${retry_ok}" -ge 30 ] \
  || fail "retry_overloaded client only got ${retry_ok}/40 through"

stop_daemon "${WORK}/d2.log"
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q '"serve.requests.shed"' "${WORK}/m2.json" \
    || fail "metrics report missing serve.requests.shed"
  grep -q '"serve.requests.degraded"' "${WORK}/m2.json" \
    || fail "metrics report missing serve.requests.degraded"
fi

# --- Phase 3: corrupt reload rolls back; fixed file recovers -------------
"${DAEMON}" --index="${WORK}/index.bin" --port=0 \
  --port_file="${PORT_FILE}" \
  --metrics_out="${WORK}/m3.json" > "${WORK}/d3.log" 2>&1 &
register_daemon
wait_ready "${WORK}/d3.log"

"${CLIENT}" --port="${PORT}" --seeds=0,1,2 > "${WORK}/q_pre.txt"
epoch_pre="$(field "${WORK}/q_pre.txt" epoch)"

# Flip one byte inside a section payload: the reload must verify, reject,
# and keep the old index serving on the old epoch.
printf '\x41' | dd of="${WORK}/index.bin" bs=1 seek=200 conv=notrunc \
  status=none
"${CLIENT}" --port="${PORT}" --method=reload > "${WORK}/r_bad.txt" || true
grep -q "rolled_back=1" "${WORK}/r_bad.txt" \
  || fail "corrupt reload did not report rollback"
"${CLIENT}" --port="${PORT}" --seeds=0,1,2 > "${WORK}/q_post.txt"
grep -q "status=OK" "${WORK}/q_post.txt" \
  || fail "old index stopped serving after corrupt reload"
[ "$(field "${WORK}/q_post.txt" epoch)" = "${epoch_pre}" ] \
  || fail "epoch moved on a rolled-back reload"

# Restore the good bytes: the next reload must swap and advance the epoch.
cp "${WORK}/index.good" "${WORK}/index.bin"
"${CLIENT}" --port="${PORT}" --method=reload > "${WORK}/r_good.txt"
grep -q "rolled_back=0" "${WORK}/r_good.txt" \
  || fail "reload of the restored file rolled back"
epoch_post="$(field "${WORK}/r_good.txt" epoch)"
[ "${epoch_post}" -gt "${epoch_pre}" ] \
  || fail "epoch did not advance after a good reload"

# SIGHUP reloads too, on the same reload thread as the verb: after the file
# is replaced the epoch advances, and the daemon keeps answering.
cp "${WORK}/index.good" "${WORK}/index.new"
mv "${WORK}/index.new" "${WORK}/index.bin"
kill -HUP "${DAEMON_PID}"
epoch_hup=""
for _ in $(seq 1 50); do
  kill -0 "${DAEMON_PID}" 2>/dev/null \
    || { cat "${WORK}/d3.log" >&2; fail "SIGHUP killed the daemon"; }
  "${CLIENT}" --port="${PORT}" --method=health > "${WORK}/h_hup.txt" || true
  epoch_hup="$(field "${WORK}/h_hup.txt" epoch)"
  [ -n "${epoch_hup}" ] && [ "${epoch_hup}" -gt "${epoch_post}" ] && break
  sleep 0.1
done
[ -n "${epoch_hup}" ] && [ "${epoch_hup}" -gt "${epoch_post}" ] \
  || fail "SIGHUP did not advance the epoch past ${epoch_post}"
grep -q "ipin_oracled: SIGHUP index reload: ok" "${WORK}/d3.log" \
  || fail "SIGHUP reload not logged"
"${CLIENT}" --port="${PORT}" --seeds=0,1,2 | grep -q "status=OK" \
  || fail "daemon stopped answering after SIGHUP"

stop_daemon "${WORK}/d3.log"
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q '"serve.reload.rollback"' "${WORK}/m3.json" \
    || fail "metrics report missing serve.reload.rollback"
fi

# --- Phase 4: SIGKILL mid-reload leaves the index servable ---------------
# serve.reload=delay(1000) holds every reload (including the startup one)
# for a second; killing the daemon in the middle of a client-triggered
# reload must not hurt the on-disk index.
IPIN_FAILPOINTS="serve.reload=delay(1000)" \
  "${DAEMON}" --index="${WORK}/index.bin" --port=0 \
  --port_file="${PORT_FILE}" > "${WORK}/d4.log" 2>&1 &
register_daemon
wait_ready "${WORK}/d4.log"
"${CLIENT}" --port="${PORT}" --method=reload > /dev/null 2>&1 || true &
sleep 0.3
kill -KILL "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
DAEMON_PID=""
wait || true  # reap the backgrounded client

"${DAEMON}" --index="${WORK}/index.bin" --port=0 \
  --port_file="${PORT_FILE}" > "${WORK}/d5.log" 2>&1 &
register_daemon
wait_ready "${WORK}/d5.log"
"${CLIENT}" --port="${PORT}" --seeds=0,1,2 \
  | grep -q "status=OK" || fail "index unusable after SIGKILL mid-reload"
stop_daemon "${WORK}/d5.log"

# --- Phase 4b: SIGTERM during a wedged file-watch reload ----------------
# The --reload_check_ms poll runs on the frontend's reload thread, so a
# reload wedged in the loader (serve.reload=delay(4000), which also holds
# the startup load) is detached at the drain deadline like a verb reload:
# the daemon exits 0 well before the wedge clears.
IPIN_FAILPOINTS="serve.reload=delay(4000)" \
  "${DAEMON}" --index="${WORK}/index.bin" --port=0 \
  --port_file="${PORT_FILE}" --reload_check_ms=50 --drain_deadline_ms=200 \
  > "${WORK}/d4b.log" 2>&1 &
register_daemon
wait_ready "${WORK}/d4b.log"
cp "${WORK}/index.good" "${WORK}/index.new"
mv "${WORK}/index.new" "${WORK}/index.bin"
sleep 0.3  # the poll has picked the new file up and is wedged in the load
term_start="$(date +%s%N)"
kill -TERM "${DAEMON_PID}"
rc=0
wait "${DAEMON_PID}" || rc=$?
term_ms=$(( ($(date +%s%N) - term_start) / 1000000 ))
DAEMON_PID=""
[ "${rc}" -eq 0 ] || { cat "${WORK}/d4b.log" >&2; fail "drain exited ${rc}"; }
[ "${term_ms}" -lt 1500 ] || { cat "${WORK}/d4b.log" >&2; \
  fail "SIGTERM during a wedged poll reload took ${term_ms} ms"; }
grep -q "ipin_oracled: drained, exiting" "${WORK}/d4b.log" \
  || fail "missing drain line after the wedged poll reload"
grep -q "detaching" "${WORK}/d4b.log" \
  || { cat "${WORK}/d4b.log" >&2; fail "the poll reload was not in flight"; }

# --- Phase 5: observability — trace context, metrics/debug, flight recorder
# serve.eval=delay(30) slows every exact evaluation past the 5 ms slow-query
# threshold, so the traced query below must land in the slow ring with its
# eval stage blamed. audit_rate=1 audits every sketch-served answer.
IPIN_FAILPOINTS="serve.eval=delay(30)" \
  "${DAEMON}" --index="${WORK}/index.bin" --port=0 \
  --port_file="${PORT_FILE}" \
  --graph="${WORK}/net.txt" --workers=2 --slow_query_us=5000 \
  --audit_rate=1 --trace_out="${WORK}/trace.json" \
  --metrics_out="${WORK}/m6.json" > "${WORK}/d6.log" 2>&1 &
register_daemon
wait_ready "${WORK}/d6.log"

# An explicit trace id rides the wire and comes back padded to 16 hex chars.
"${CLIENT}" --port="${PORT}" --seeds=0,1,2 --mode=exact \
  --trace_id=c0ffee > "${WORK}/q_traced.txt"
grep -q "trace_id=0000000000c0ffee" "${WORK}/q_traced.txt" \
  || fail "explicit trace id not echoed"
# A query without one still prints the (client-generated) trace id.
"${CLIENT}" --port="${PORT}" --seeds=0,1,2 --mode=sketch \
  > "${WORK}/q_gen.txt"
grep -q "trace_id=" "${WORK}/q_gen.txt" || fail "no trace id on plain query"

# The metrics verb scrapes inline; Prometheus text only in obs-enabled
# builds (the obs-disabled registry is empty, but the verb must still
# answer OK).
"${CLIENT}" --port="${PORT}" --method=metrics > "${WORK}/metrics.txt"
grep -q "status=OK" "${WORK}/metrics.txt" || fail "metrics verb not OK"
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q "# TYPE" "${WORK}/metrics.txt" \
    || fail "metrics payload is not Prometheus text"
  grep -q "serve_requests_accepted_total" "${WORK}/metrics.txt" \
    || fail "metrics payload missing serve counters"
fi

# The debug verb dumps the flight recorder: the delayed query is in there,
# identified by its trace id, with per-stage timings.
"${CLIENT}" --port="${PORT}" --method=debug > "${WORK}/debug.txt"
grep -q "ipin.debug.v1" "${WORK}/debug.txt" || fail "debug verb missing schema"
grep -q "eval_us" "${WORK}/debug.txt" || fail "debug dump missing timings"
grep -q "0000000000c0ffee" "${WORK}/debug.txt" \
  || fail "slow traced query not in the flight recorder"

# SIGUSR1 logs the same dump without interrupting service.
kill -USR1 "${DAEMON_PID}"
for _ in $(seq 1 50); do
  if grep -q "flight recorder dump" "${WORK}/d6.log"; then break; fi
  sleep 0.1
done
grep -q "flight recorder dump" "${WORK}/d6.log" \
  || fail "SIGUSR1 did not log the flight recorder dump"
"${CLIENT}" --port="${PORT}" --method=health | grep -q "status=OK" \
  || fail "server unhealthy after SIGUSR1 dump"

# The live dashboard renders one sample when its binary was handed to us.
if [ -n "${IPIN_TOP}" ]; then
  "${IPIN_TOP}" --port="${PORT}" --once > "${WORK}/top.txt"
  grep -q "epoch" "${WORK}/top.txt" || fail "ipin_top rendered nothing"
fi

stop_daemon "${WORK}/d6.log"
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  [ -s "${WORK}/trace.json" ] || fail "--trace_out wrote no Chrome trace"
  for lane in serve.request serve.queue serve.eval serve.write; do
    grep -q "\"${lane}\"" "${WORK}/trace.json" \
      || fail "trace missing ${lane} lane"
  done
  grep -q '"id":"0xc0ffee"' "${WORK}/trace.json" \
    || fail "trace missing the propagated trace id lane"
  # Every stage of the propagated lane is a closed b/e pair.
  lane_begins=$(grep '"id":"0xc0ffee"' "${WORK}/trace.json" \
    | grep -c '"ph":"b"' || true)
  lane_ends=$(grep '"id":"0xc0ffee"' "${WORK}/trace.json" \
    | grep -c '"ph":"e"' || true)
  [ "${lane_begins}" -gt 0 ] && [ "${lane_begins}" -eq "${lane_ends}" ] \
    || fail "0xc0ffee lane has ${lane_begins} begins and ${lane_ends} ends"
  grep -q '"serve.audit.sampled"' "${WORK}/m6.json" \
    || fail "metrics report missing serve.audit.sampled"
fi
if [ -n "${ARTIFACTS}" ]; then
  mkdir -p "${ARTIFACTS}"
  cp -f "${WORK}/trace.json" "${ARTIFACTS}/" 2>/dev/null || true
  cp -f "${WORK}/debug.txt" "${ARTIFACTS}/flight_recorder_dump.txt" \
    2>/dev/null || true
fi

echo "serve smoke test OK"
