#!/bin/sh
# Traced-server smoke test, run as CI's obs job: start balgd with
# request tracing, the JSONL access log and a zero-threshold slow-query
# log, load it with 8 concurrent clients over 4 worker domains, and
# validate the trace written at shutdown with check_trace.sh — per-lane
# B/E balance, monotonic timestamps, the steps==fuel accounting, and the
# presence of every request-lifecycle category (session, queue, worker,
# wal, eval).  A second, chaos leg replicates under an armed repl.ship
# fault site and asserts the injected cuts surface as fault instants in
# the primary's trace while the trace invariants still hold.
#
# Usage: sh scripts/trace_smoke.sh [ARTIFACT_DIR]
# With ARTIFACT_DIR, leg 1's trace.json, access.jsonl and slow.jsonl are
# copied there (created if missing) as soon as the server has stopped.
set -eu
art=${1:-}
case "$art" in
"" | /*) ;;
*) art="$PWD/$art" ;;
esac
cd "$(dirname "$0")/.."

dune build bin/balgd.exe bin/balgi.exe
BALGD=_build/default/bin/balgd.exe
BALGI=_build/default/bin/balgi.exe
CHECK=scripts/check_trace.sh

tmp=$(mktemp -d)
pid=
fpid=
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  [ -n "$fpid" ] && kill -9 "$fpid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "trace-smoke: FAIL: $1" >&2
  [ -f "$tmp/balgd.out" ] && sed 's/^/  balgd: /' "$tmp/balgd.out" >&2
  [ -f "$tmp/follower.out" ] && sed 's/^/  follower: /' "$tmp/follower.out" >&2
  exit 1
}

await_port() {
  out=$1
  who=$2
  i=0
  while [ $i -lt 100 ]; do
    p=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*$/\1/p' "$out")
    if [ -n "$p" ]; then
      echo "$p"
      return 0
    fi
    sleep 0.1
    i=$((i + 1))
  done
  fail "$who never announced its port"
}

# SIGTERM and wait for exit — the trace file is written at shutdown
stop_balgd() {
  kill -TERM "$1" 2>/dev/null || true
  i=0
  while kill -0 "$1" 2>/dev/null && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  kill -0 "$1" 2>/dev/null && fail "balgd ignored SIGTERM"
  return 0
}

# --- leg 1: a loaded, traced server ----------------------------------------

"$BALGD" --port 0 --workers 4 -d examples/data/network.bagdb \
  --trace-out "$tmp/trace.json" --log-json "$tmp/access.jsonl" \
  --slow-log "$tmp/slow.jsonl" --slow-ms 0 >"$tmp/balgd.out" 2>&1 &
pid=$!
port=$(await_port "$tmp/balgd.out" balgd)
echo "trace-smoke: traced balgd up on port $port"

# a write, so the trace carries wal/commit spans
"$BALGI" client --port "$port" -e "def bag R : {{<U>}} = {{ <'a>, <'b>:2 }}" \
  | grep -q "ok defined R" || fail "def not acknowledged"

# 8 concurrent clients with distinct queries: every one is a cache miss,
# so they contend for the 4 workers and the queue-wait spans are real
cpids=
for i in 1 2 3 4 5 6 7 8; do
  q="R"
  j=0
  while [ $j -lt "$i" ]; do
    q="$q ++ R"
    j=$((j + 1))
  done
  "$BALGI" client --port "$port" -e "eval $q" >"$tmp/c$i.out" 2>&1 &
  cpids="$cpids $!"
done
for p in $cpids; do
  wait "$p" || fail "a concurrent client exited non-zero"
done
for i in 1 2 3 4 5 6 7 8; do
  grep -q "^ok " "$tmp/c$i.out" || fail "client $i: $(cat "$tmp/c$i.out")"
done
echo "trace-smoke: 8 concurrent clients served"

# a repeated query exercises the cache-hit path in the slow log
"$BALGI" client --port "$port" -e "eval R ++ R ++ R" >/dev/null || fail "warm eval"
"$BALGI" client --port "$port" -e "eval R ++ R ++ R" >/dev/null || fail "cached eval"

# the live trace snapshot over the wire
"$BALGI" client --port "$port" -e trace >"$tmp/wire-trace.out" \
  || fail "trace command failed"
grep -q '"traceEvents"' "$tmp/wire-trace.out" \
  || fail "trace command returned no trace"

# healthz carries the WAL size (and, on a follower, the lag)
"$BALGI" client --port "$port" --http-get /healthz >"$tmp/healthz.txt" \
  || fail "GET /healthz failed"
grep -q "wal_bytes=" "$tmp/healthz.txt" || fail "healthz is missing wal_bytes"

# the expanded /metrics: queue-wait and WAL-flush histograms, cache
# hit-rate, per-command latency, per-relation invalidation counters
"$BALGI" client --port "$port" -e "def bag R : {{<U>}} = {{ <'c> }}" \
  >/dev/null || fail "redef not acknowledged"
"$BALGI" client --port "$port" --http-get /metrics >"$tmp/metrics.txt" \
  || fail "GET /metrics failed"
for m in balg_server_queue_wait_ns balg_server_wal_flush_ns \
  balg_server_cache_hit_rate balg_server_cmd_eval_ns \
  balg_server_cache_rel_invalidations_total_R; do
  grep -q "$m" "$tmp/metrics.txt" || fail "/metrics is missing $m"
done
echo "trace-smoke: metrics ok"

stop_balgd "$pid"
pid=
if [ -n "$art" ]; then
  mkdir -p "$art"
  cp "$tmp/trace.json" "$tmp/access.jsonl" "$tmp/slow.jsonl" "$art/"
fi
[ -s "$tmp/trace.json" ] || fail "no trace written at shutdown"
sh "$CHECK" "$tmp/trace.json" session queue worker wal eval \
  || fail "trace invariants do not hold"
grep -q '"req":' "$tmp/trace.json" || fail "trace carries no request ids"
grep -q '"cmd":"eval"' "$tmp/access.jsonl" || fail "access log has no evals"
grep -q '"req":' "$tmp/access.jsonl" || fail "access log has no request ids"
grep -q '"query":' "$tmp/slow.jsonl" || fail "slow log has no queries"
grep -q '"cache":"hit"' "$tmp/slow.jsonl" || fail "slow log saw no cache hit"
grep -q '"plan":' "$tmp/slow.jsonl" || fail "slow log has no plans"
echo "trace-smoke: trace + access log + slow log validated"

# --- leg 2: chaos — repl.ship faults must surface in the trace -------------

"$BALGD" --port 0 --store "$tmp/pstore" --fault "repl.ship:p=0.5" \
  --fault-seed 42 --trace-out "$tmp/chaos-trace.json" \
  >"$tmp/balgd.out" 2>&1 &
pid=$!
pport=$(await_port "$tmp/balgd.out" primary)
"$BALGD" --port 0 --store "$tmp/fstore" --follow "127.0.0.1:$pport" \
  >"$tmp/follower.out" 2>&1 &
fpid=$!
fport=$(await_port "$tmp/follower.out" follower)
echo "trace-smoke: chaos primary $pport, follower $fport"

"$BALGI" client --port "$pport" -e "def bag R : {{<U>}} = {{ <'a> }}" \
  | grep -q "ok defined R" || fail "chaos def not acknowledged"
for i in 1 2 3 4 5 6 7 8 9 10; do
  "$BALGI" client --port "$pport" -e "def bag W$i : {{<U>}} = {{ <'w>:$i }}" \
    >/dev/null || fail "chaos write W$i failed"
done
# one governed eval so the trace carries a run-end (done) instant
"$BALGI" client --port "$pport" -e "eval R ++ R" >/dev/null \
  || fail "chaos eval failed"

# wait until the follower has applied everything despite the cut feeds
i=0
while [ $i -lt 100 ]; do
  line=$("$BALGI" client --port "$fport" -e role 2>/dev/null || true)
  case "$line" in
  "ok follower "*"lag=0"*) break ;;
  esac
  sleep 0.1
  i=$((i + 1))
done
[ $i -lt 100 ] || fail "follower never caught up under repl.ship faults"
echo "trace-smoke: follower caught up through the cut feeds"

stop_balgd "$fpid"
fpid=
stop_balgd "$pid"
pid=
grep -q '"name":"repl.ship.cut"' "$tmp/chaos-trace.json" \
  || fail "no repl.ship.cut fault instants in the chaos trace"
sh "$CHECK" "$tmp/chaos-trace.json" session wal repl \
  || fail "chaos trace invariants do not hold"
echo "trace-smoke: ok"
