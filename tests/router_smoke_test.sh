#!/usr/bin/env bash
# Fault drill for the sharded scatter-gather serving tier, end to end
# through the real binaries: ipin_cli builds a full index, ipin_shard
# splits it into per-shard indexes plus a shard map, one ipin_oracled per
# shard serves its piece, and ipin_routerd fans queries out and merges the
# partials. The drill asserts the tier's four headline guarantees:
#   (a) EXACTNESS — the router's merged answer over all-healthy shards is
#       bit-identical (same printed digits) to the single-process daemon's
#       answer, for group-influence queries and the top-k ranking alike,
#   (b) DEGRADATION — SIGKILLing one shard mid-burst yields degraded
#       partial answers (degraded=1, shards_answered=N-1, coverage<1),
#       never errors, while seeds owned by live shards keep exact answers,
#   (c) RECOVERY — restarting the dead shard closes the circuit via the
#       router's probes and answers go back to exact and undegraded,
#   (d) RELOAD SAFETY — a corrupt shard-map reload, by the reload verb or
#       SIGHUP, rolls back (old epoch keeps routing, answers stay exact),
#       the restored map advances the epoch, and a SIGTERM drains cleanly.
# Before the fleet starts, ipin_shard's verify, its numeric range checks
# and the map parser's rejection of removed fields run on the split.
#
# Invoked by ctest: $1=ipin_cli $2=ipin_oracled $3=ipin_oracle_client
# $4=ipin_routerd $5=ipin_shard $6=obs mode ("obs-enabled"/"obs-disabled").
# Optional: $7=artifact dir (falls back to $IPIN_SMOKE_ARTIFACTS; the
# router's metrics report, flight-recorder dump, and run ledger are copied
# there for CI upload).
set -euo pipefail

CLI="$1"
DAEMON="$2"
CLIENT="$3"
ROUTER="$4"
SHARD_TOOL="$5"
OBS_MODE="${6:-obs-enabled}"
ARTIFACTS="${7:-${IPIN_SMOKE_ARTIFACTS:-}}"
WORK="$(mktemp -d)"
ROUTER_SOCK="${WORK}/router.sock"
SINGLE_SOCK="${WORK}/single.sock"
NUM_SHARDS=3
PIDFILE_DIR="${WORK}/pids"
mkdir -p "${PIDFILE_DIR}"

# Every daemon start drops a PID file so cleanup can kill them ALL on any
# exit path — a mid-drill failure must not leak router or shard processes.
register_pid() {
  echo "$1" > "${PIDFILE_DIR}/$2.pid"
}

cleanup() {
  local pidfile pid
  for pidfile in "${PIDFILE_DIR}"/*.pid; do
    [ -e "${pidfile}" ] || continue
    pid="$(cat "${pidfile}")"
    kill -KILL "${pid}" 2>/dev/null || true
  done
  local job
  for job in $(jobs -p); do kill -KILL "${job}" 2>/dev/null || true; done
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() { echo "router smoke FAILED: $*" >&2; exit 1; }

# Waits for a daemon's port file ($1) to report the freshly started pid
# ($2); $3 is the log file for diagnostics. Daemons write the file (via
# rename) only once their socket is accepting, so a pid match means ready —
# and a stale file from a previous incarnation can never satisfy it.
wait_ready() {
  for _ in $(seq 1 150); do
    if [ -f "$1" ] && grep -q "pid=$2 " "$1"; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then
      cat "$3" >&2
      fail "daemon (pid $2) died before publishing $1"
    fi
    sleep 0.1
  done
  cat "$3" >&2
  fail "no port file $1 from pid $2"
}

# Extracts "key=value" from client output.
field() { sed -n "s/.*$2=\([^ ]*\).*/\1/p" "$1" | head -1; }

start_shard() {
  local i="$1"
  "${DAEMON}" --index="${WORK}/piece${i}.bin" --socket="${WORK}/shard${i}.sock" \
    --port_file="${WORK}/shard${i}.port" \
    --shard_id="${i}" --shard_count="${NUM_SHARDS}" --workers=2 \
    > "${WORK}/shard${i}.log" 2>&1 &
  register_pid $! "shard${i}"
  wait_ready "${WORK}/shard${i}.port" "$!" "${WORK}/shard${i}.log"
}

# --- Build the dataset, the full index, and the shard split ---------------
"${CLI}" generate --dataset=slashdot --scale=0.01 --out="${WORK}/net.txt" \
  > /dev/null
"${CLI}" build-index --in="${WORK}/net.txt" --window-pct=10 \
  --out="${WORK}/index.bin" > /dev/null

"${SHARD_TOOL}" split --index="${WORK}/index.bin" --shards="${NUM_SHARDS}" \
  --out_prefix="${WORK}/piece" --map_out="${WORK}/map.json" \
  --socket_prefix="${WORK}/shard" > "${WORK}/split.txt"
grep -q "wrote map" "${WORK}/split.txt" || fail "split did not write the map"
cp "${WORK}/map.json" "${WORK}/map.good"
"${SHARD_TOOL}" show --map="${WORK}/map.json" --nodes=1000 \
  | grep -q "shard0" || fail "show does not list shard0"

"${SHARD_TOOL}" verify "${WORK}/map.json" "${WORK}" > "${WORK}/verify.txt" \
  || { cat "${WORK}/verify.txt" >&2; fail "verify rejects the split"; }

# --- ipin_shard rejects out-of-range numbers and removed map fields -------
# Each must exit 2 with a message, promptly: --nodes=-1 used to wrap the
# node loop and never return, --node past the NodeId range picked another
# node's owner, and --shards sized its shard list before any bound.
expect_usage_error() {
  local want="$1"
  shift
  set +e
  timeout 5 "${SHARD_TOOL}" "$@" > /dev/null 2> "${WORK}/bad_shard.txt"
  local rc=$?
  set -e
  [ "${rc}" -eq 2 ] || fail "ipin_shard $* should exit 2, got ${rc}"
  grep -q -- "${want}" "${WORK}/bad_shard.txt" \
    || { cat "${WORK}/bad_shard.txt" >&2; \
         fail "ipin_shard $* should say '${want}'"; }
}
expect_usage_error "--nodes must be between" show --map="${WORK}/map.json" \
  --nodes=-1
expect_usage_error "--node must be between" owner --map="${WORK}/map.json" \
  --node=4294967297
expect_usage_error "--shards must be between" split \
  --index="${WORK}/index.bin" --shards=4611686018427387904 \
  --out_prefix="${WORK}/huge" --map_out="${WORK}/huge.json"
expect_usage_error "--virtual_points must be between" split \
  --index="${WORK}/index.bin" --shards=2 --virtual_points=5000 \
  --out_prefix="${WORK}/huge" --map_out="${WORK}/huge.json"
sed 's/"shards": \[/"transition": {"shards": []}, "shards": [/' \
  "${WORK}/map.json" > "${WORK}/map_transition.json"
expect_usage_error '"transition"' show --map="${WORK}/map_transition.json"

# --- Start the fleet: N shards, the reference daemon, and the router ------
for i in $(seq 0 $((NUM_SHARDS - 1))); do start_shard "${i}"; done

"${DAEMON}" --index="${WORK}/index.bin" --socket="${SINGLE_SOCK}" \
  --port_file="${WORK}/single.port" \
  --workers=2 > "${WORK}/single.log" 2>&1 &
register_pid $! "single"
wait_ready "${WORK}/single.port" "$!" "${WORK}/single.log"

# A router with no evaluation slot would hang every query: usage, exit 2.
set +e
"${ROUTER}" --map="${WORK}/map.json" --socket="${ROUTER_SOCK}" --workers=0 \
  > /dev/null 2> "${WORK}/bad_flag.txt"
rc=$?
set -e
[ "${rc}" -eq 2 ] || fail "--workers=0 should exit 2, got ${rc}"
grep -q "usage: ipin_routerd" "${WORK}/bad_flag.txt" \
  || fail "--workers=0 should print usage"

"${ROUTER}" --map="${WORK}/map.json" --socket="${ROUTER_SOCK}" --workers=2 \
  --port_file="${WORK}/router.port" \
  --suspect_after=1 --down_after=2 --probe_interval_ms=100 \
  --ledger_dir="${WORK}/ledger" --metrics_out="${WORK}/router_metrics.json" \
  > "${WORK}/router.log" 2>&1 &
ROUTER_PID=$!
register_pid "${ROUTER_PID}" "router"
wait_ready "${WORK}/router.port" "${ROUTER_PID}" "${WORK}/router.log"

# --- Phase 1: merged answers are exactly the single-process answers -------
for seeds in "0" "0,1,2" "3,7,11,15" "0,1,2,3,4,5,6,7,8,9"; do
  "${CLIENT}" --socket="${ROUTER_SOCK}" --seeds="${seeds}" --mode=sketch \
    > "${WORK}/q_router.txt"
  "${CLIENT}" --socket="${SINGLE_SOCK}" --seeds="${seeds}" --mode=sketch \
    > "${WORK}/q_single.txt"
  grep -q "status=OK" "${WORK}/q_router.txt" \
    || fail "router query {${seeds}} not OK"
  routed="$(field "${WORK}/q_router.txt" estimate)"
  direct="$(field "${WORK}/q_single.txt" estimate)"
  [ "${routed}" = "${direct}" ] \
    || fail "merge not exact for {${seeds}}: router=${routed} single=${direct}"
  [ "$(field "${WORK}/q_router.txt" degraded)" = "0" ] \
    || fail "healthy-fleet answer marked degraded"
  # shards_total counts the shards that OWN part of this query (a 1-seed
  # query has one leg); with a healthy fleet every owner must answer.
  [ "$(field "${WORK}/q_router.txt" shards_answered)" = \
    "$(field "${WORK}/q_router.txt" shards_total)" ] \
    || fail "healthy fleet answered with missing shards"
  [ "$(field "${WORK}/q_router.txt" coverage)" = "1.000" ] \
    || fail "healthy-fleet coverage is not 1.000"
done

# The merged top-k ranking (ids AND estimates, in order) matches too.
"${CLIENT}" --socket="${ROUTER_SOCK}" --method=topk --k=5 \
  > "${WORK}/topk_router.txt"
"${CLIENT}" --socket="${SINGLE_SOCK}" --method=topk --k=5 \
  > "${WORK}/topk_single.txt"
routed="$(field "${WORK}/topk_router.txt" topk)"
direct="$(field "${WORK}/topk_single.txt" topk)"
[ -n "${routed}" ] || fail "router topk printed nothing"
[ "${routed}" = "${direct}" ] \
  || fail "topk merge mismatch: router=${routed} single=${direct}"

# --- Phase 2: SIGKILL one shard mid-burst; partials, never errors ---------
# The victim is the owner of seed 0, so the post-kill query for seed 0 is
# guaranteed to be a degraded partial rather than a lucky full answer.
VICTIM="$("${SHARD_TOOL}" owner --map="${WORK}/map.json" --node=0 \
  | sed -n 's/.*shard=\([0-9]*\).*/\1/p')"
[ -n "${VICTIM}" ] || fail "cannot resolve the owner of seed 0"

"${CLIENT}" --socket="${ROUTER_SOCK}" --seeds=0,1,2,3,4,5,6,7 --mode=sketch \
  --requests=2000 --concurrency=8 > "${WORK}/burst.txt" || true &
BURST_JOB=$!
sleep 0.1
kill -KILL "$(cat "${PIDFILE_DIR}/shard${VICTIM}.pid")"
wait "${BURST_JOB}" || true
cat "${WORK}/burst.txt"
ok="$(field "${WORK}/burst.txt" ok)"
bad="$(field "${WORK}/burst.txt" bad)"
unavailable="$(field "${WORK}/burst.txt" unavailable)"
transport="$(field "${WORK}/burst.txt" transport_errors)"
[ "${ok}" -ge 1500 ] || fail "burst mostly failed after shard kill (ok=${ok})"
[ "${bad}" -eq 0 ] || fail "BAD_REQUEST during shard-kill burst"
[ "${unavailable}" -eq 0 ] \
  || fail "router answered UNAVAILABLE with ${NUM_SHARDS}-1 shards healthy"
[ "${transport}" -eq 0 ] || fail "router connections broke during the kill"

# The burst's timing vs the kill is racy by design; deterministically feed
# the health tracker enough failures to open the circuit (down_after=2)
# before asserting on steady state.
for _ in 1 2 3; do
  "${CLIENT}" --socket="${ROUTER_SOCK}" --seeds=0 --mode=sketch \
    > /dev/null 2>&1 || true
done

# Steady state with the victim down: a seed it owned gets a degraded
# partial with the conservative coverage accounting; seeds wholly owned by
# the survivors still get exact undegraded answers.
"${CLIENT}" --socket="${ROUTER_SOCK}" --seeds=0,1,2,3,4,5,6,7 --mode=sketch \
  > "${WORK}/q_partial.txt"
grep -q "status=OK" "${WORK}/q_partial.txt" \
  || fail "query with a dead shard must still answer OK"
[ "$(field "${WORK}/q_partial.txt" degraded)" = "1" ] \
  || fail "dead-shard answer not marked degraded"
total="$(field "${WORK}/q_partial.txt" shards_total)"
[ "$(field "${WORK}/q_partial.txt" shards_answered)" = "$((total - 1))" ] \
  || fail "expected all but the dead shard to answer"
coverage="$(field "${WORK}/q_partial.txt" coverage)"
[ "${coverage}" != "1.000" ] || fail "partial answer claims full coverage"

"${CLIENT}" --socket="${ROUTER_SOCK}" --method=stats > "${WORK}/stats.txt"
[ "$(field "${WORK}/stats.txt" shards_total)" = "${NUM_SHARDS}" ] \
  || fail "stats shards_total wrong"
down="$(field "${WORK}/stats.txt" shards_down)"
[ "${down}" -ge 1 ] || fail "stats does not report the dead shard as down"

# --- Phase 3: restart the victim; probes close the circuit ----------------
start_shard "${VICTIM}"
recovered=0
for _ in $(seq 1 100); do
  "${CLIENT}" --socket="${ROUTER_SOCK}" --seeds=0,1,2 --mode=sketch \
    > "${WORK}/q_rec.txt" || true
  if grep -q "status=OK" "${WORK}/q_rec.txt" \
     && [ "$(field "${WORK}/q_rec.txt" degraded)" = "0" ]; then
    recovered=1
    break
  fi
  sleep 0.1
done
[ "${recovered}" -eq 1 ] || fail "router did not recover the restarted shard"
"${CLIENT}" --socket="${SINGLE_SOCK}" --seeds=0,1,2 --mode=sketch \
  > "${WORK}/q_single2.txt"
[ "$(field "${WORK}/q_rec.txt" estimate)" = \
  "$(field "${WORK}/q_single2.txt" estimate)" ] \
  || fail "post-recovery answer is not exact again"

# --- Phase 4: corrupt shard-map reload rolls back -------------------------
echo '{"schema": "ipin.shardmap.v1", "shards": [' > "${WORK}/map.json"
"${CLIENT}" --socket="${ROUTER_SOCK}" --method=reload > "${WORK}/r_bad.txt" \
  || true
grep -q "rolled_back=1" "${WORK}/r_bad.txt" \
  || fail "corrupt map reload did not report rollback"
"${CLIENT}" --socket="${ROUTER_SOCK}" --seeds=0,1,2 --mode=sketch \
  > "${WORK}/q_after_bad.txt"
grep -q "status=OK" "${WORK}/q_after_bad.txt" \
  || fail "router stopped serving after a rolled-back map reload"
[ "$(field "${WORK}/q_after_bad.txt" degraded)" = "0" ] \
  || fail "rolled-back map degraded the answer"

cp "${WORK}/map.good" "${WORK}/map.json"
"${CLIENT}" --socket="${ROUTER_SOCK}" --method=reload > "${WORK}/r_good.txt"
grep -q "rolled_back=0" "${WORK}/r_good.txt" \
  || fail "reload of the restored map rolled back"

# SIGHUP reloads the map on the same reload thread as the verb: a corrupt
# map rolls back while routed answers stay exact; the restored map advances
# the map epoch.
hup_lines() {
  grep -c "ipin_routerd: SIGHUP shard-map reload: $1" "${WORK}/router.log" \
    || true
}
# Waits for one more "$1" SIGHUP outcome line than the $2 seen before.
wait_hup() {
  for _ in $(seq 1 50); do
    [ "$(hup_lines "$1")" -gt "$2" ] && return 0
    kill -0 "${ROUTER_PID}" 2>/dev/null \
      || { cat "${WORK}/router.log" >&2; fail "SIGHUP killed the router"; }
    sleep 0.1
  done
  cat "${WORK}/router.log" >&2
  fail "no SIGHUP '$1' outcome logged"
}
# Reloads timed on the reload thread (serve.latency.reload_us), from the
# metrics verb's Prometheus text.
reloads_timed() {
  "${CLIENT}" --socket="${ROUTER_SOCK}" --method=metrics \
    | sed -n 's/.*serve_latency_reload_us_count \([0-9]*\).*/\1/p'
}
timed_before="$(reloads_timed)"
"${CLIENT}" --socket="${ROUTER_SOCK}" --method=health > "${WORK}/h_pre.txt"
map_epoch="$(field "${WORK}/h_pre.txt" epoch)"
echo '{"schema": "ipin.shardmap.v1", "shards": [' > "${WORK}/map.json"
seen="$(hup_lines "rolled back")"
kill -HUP "${ROUTER_PID}"
wait_hup "rolled back" "${seen}"
"${CLIENT}" --socket="${ROUTER_SOCK}" --seeds=0,1,2 --mode=sketch \
  > "${WORK}/q_hup.txt"
[ "$(field "${WORK}/q_hup.txt" estimate)" = \
  "$(field "${WORK}/q_single2.txt" estimate)" ] \
  || fail "routed answer not exact after a rolled-back SIGHUP"
[ "$(field "${WORK}/q_hup.txt" epoch)" = "${map_epoch}" ] \
  || fail "map epoch moved on a rolled-back SIGHUP"

cp "${WORK}/map.good" "${WORK}/map.json"
seen="$(hup_lines "ok")"
kill -HUP "${ROUTER_PID}"
wait_hup "ok" "${seen}"
"${CLIENT}" --socket="${ROUTER_SOCK}" --method=health > "${WORK}/h_post.txt"
[ "$(field "${WORK}/h_post.txt" epoch)" -gt "${map_epoch}" ] \
  || fail "SIGHUP with the restored map did not advance the map epoch"
# Both SIGHUP reloads ran on the frontend's reload thread, which times
# every reload it runs.
if [ "${OBS_MODE}" = "obs-enabled" ]; then
  [ "$(reloads_timed)" = "$((timed_before + 2))" ] \
    || fail "SIGHUP reloads did not run on the reload thread"
fi

# --- Phase 5: clean drain -------------------------------------------------
# Grab the flight recorder for the artifact bundle before draining.
"${CLIENT}" --socket="${ROUTER_SOCK}" --method=debug > "${WORK}/debug.txt" \
  || true

kill -TERM "${ROUTER_PID}"
rc=0
wait "${ROUTER_PID}" || rc=$?
rm -f "${PIDFILE_DIR}/router.pid"
[ "${rc}" -eq 0 ] || { cat "${WORK}/router.log" >&2; \
  fail "router drain exited ${rc}"; }
grep -q "ipin_routerd: drained, exiting" "${WORK}/router.log" \
  || fail "router missing drain line"
test ! -e "${ROUTER_SOCK}" || fail "router socket not unlinked after drain"

if [ "${OBS_MODE}" = "obs-enabled" ]; then
  grep -q '"serve.shard.legs"' "${WORK}/router_metrics.json" \
    || fail "router metrics missing serve.shard.legs"
  grep -q '"serve.requests.partial"' "${WORK}/router_metrics.json" \
    || fail "router metrics missing serve.requests.partial"
fi

if [ -n "${ARTIFACTS}" ]; then
  mkdir -p "${ARTIFACTS}"
  cp -f "${WORK}/router_metrics.json" "${ARTIFACTS}/" 2>/dev/null || true
  cp -f "${WORK}/debug.txt" "${ARTIFACTS}/router_flight_recorder.txt" \
    2>/dev/null || true
  cp -rf "${WORK}/ledger" "${ARTIFACTS}/router_ledger" 2>/dev/null || true
fi

echo "router smoke test OK"
