#!/bin/sh
# serve_smoke.sh: boot riveter-serve on a tiny TPC-H dataset, submit
# concurrent queries over HTTP (a long batch query plus interactive
# shorts), and check the responses and serving metrics. Then restart the
# server mid-load: SIGTERM with batch work in flight, boot a fresh
# process on the same checkpoint dir, and check the same session ids
# resume to completion. Finally, migrate across instances: instance A
# suspends a burst into a shared blob store on SIGTERM, and instance B
# (a different -instance id sharing only -store) claims and finishes the
# same sessions. Exercises the whole serving stack — admission, priority
# scheduling, preemption, graceful shutdown, crash-safe state restore,
# cross-instance migration, and the HTTP API — in a few seconds.
# Requires curl.
set -eu

PORT="${PORT:-18091}"
BASE="http://127.0.0.1:$PORT"
# Scale factor of the mid-load legs. Q21 on one worker must still be
# running when the SIGTERM lands a few tens of milliseconds after the
# burst: at 0.2 it runs ~150-250 ms (0.02 finished in ~20 ms once the
# generated kernels landed, and the legs went red three steps later).
LOAD_SF="${LOAD_SF:-0.2}"
WORK="$(mktemp -d)"
BIN="$WORK/riveter-serve"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building riveter-serve"
go build -o "$BIN" ./cmd/riveter-serve

echo "== booting on $BASE (SF 0.002)"
"$BIN" -addr "127.0.0.1:$PORT" -sf 0.002 -slots 1 -ckdir "$WORK/ckpt" &
PID=$!

i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "server did not become healthy" >&2
        exit 1
    fi
    sleep 0.2
done

echo "== submitting long batch query (async)"
LONG_ID=$(curl -fsS "$BASE/query" -d '{"tpch":21,"priority":"batch"}' |
    sed -n 's/.*"id": "\(s-[0-9]*\)".*/\1/p' | head -n 1)
[ -n "$LONG_ID" ] || { echo "no session id in submit response" >&2; exit 1; }

echo "== submitting interactive shorts (wait=true, concurrent)"
n=0
CURL_PIDS=""
for q in "SELECT count(*) AS n FROM region" \
         "SELECT count(*) AS n FROM nation" \
         "SELECT count(*) AS n FROM orders"; do
    curl -fsS "$BASE/query" -d "{\"sql\":\"$q\",\"priority\":\"interactive\",\"wait\":true}" \
        >"$WORK/short-$n.json" &
    CURL_PIDS="$CURL_PIDS $!"
    n=$((n + 1))
done
for p in $CURL_PIDS; do
    wait "$p" || { echo "short query request failed" >&2; exit 1; }
done
for f in "$WORK"/short-*.json; do
    grep -q '"state": "done"' "$f" || { echo "short query not done: $(cat "$f")" >&2; exit 1; }
done

echo "== waiting for the long query to finish"
i=0
until curl -fsS "$BASE/sessions/$LONG_ID" | grep -q '"state": "done"'; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "long query never finished:" >&2
        curl -fsS "$BASE/sessions/$LONG_ID" >&2 || true
        exit 1
    fi
    sleep 0.2
done

echo "== checking serving metrics"
curl -fsS "$BASE/metrics" | grep -q '"server.sessions.done": 4' || {
    echo "expected 4 done sessions in metrics:" >&2
    curl -fsS "$BASE/metrics?format=text" >&2 || true
    exit 1
}
curl -fsS "$BASE/sessions" >/dev/null
curl -fsS "$BASE/traces" >/dev/null

stop_server() { # $1 = signal
    kill "-$1" "$PID"
    i=0
    while kill -0 "$PID" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "server did not shut down on SIG$1" >&2
            exit 1
        fi
        sleep 0.2
    done
    wait "$PID" 2>/dev/null || true
    PID=""
}

# The mid-load legs are only meaningful if the SIGTERM finds work in
# flight; say so here rather than as a 404 on a finished session later.
require_in_flight() { # $1 = leg
    if curl -fsS "$BASE/healthz" | tr -d '\n ' | grep -q '"running":0,"queued":0'; then
        echo "precondition failed ($1): the burst of Q21 at SF $LOAD_SF finished before the SIGTERM;" \
            "raise LOAD_SF until the long query is reliably mid-run" >&2
        exit 1
    fi
}

wait_healthy() { # $1 = label
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 150 ]; then
            echo "$1 server did not become healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
}

echo "== restart mid-load: booting a slower instance (SF $LOAD_SF, 1 worker)"
stop_server TERM
CKDIR2="$WORK/ckpt2"
"$BIN" -addr "127.0.0.1:$PORT" -sf "$LOAD_SF" -workers 1 -slots 1 -ckdir "$CKDIR2" &
PID=$!
wait_healthy "mid-load"

echo "== submitting a burst of long batch queries"
MID_IDS=""
n=0
while [ "$n" -lt 4 ]; do
    SID=$(curl -fsS "$BASE/query" -d '{"tpch":21,"priority":"batch"}' |
        sed -n 's/.*"id": "\(s-[0-9]*\)".*/\1/p' | head -n 1)
    [ -n "$SID" ] || { echo "no session id in burst submit response" >&2; exit 1; }
    MID_IDS="$MID_IDS $SID"
    n=$((n + 1))
done

echo "== SIGTERM with the burst in flight"
require_in_flight "restart mid-load"
stop_server TERM
[ -f "$CKDIR2/riveter-serve.state.json" ] ||
    { echo "graceful shutdown left no state manifest" >&2; exit 1; }

echo "== restarting on the same checkpoint dir"
"$BIN" -addr "127.0.0.1:$PORT" -sf "$LOAD_SF" -workers 1 -slots 1 -ckdir "$CKDIR2" &
PID=$!
wait_healthy "restarted"

echo "== interrupted sessions resume to completion"
for SID in $MID_IDS; do
    i=0
    until curl -fsS "$BASE/sessions/$SID" | grep -q '"state": "done"'; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "session $SID never finished after restart:" >&2
            curl -fsS "$BASE/sessions/$SID" >&2 || true
            exit 1
        fi
        sleep 0.2
    done
done

echo "== cross-instance migration: instance A with a shared blob store"
stop_server TERM
STORE="$WORK/store"
"$BIN" -addr "127.0.0.1:$PORT" -sf "$LOAD_SF" -workers 1 -slots 1 \
    -ckdir "$WORK/ckpt-a" -store "$STORE" -instance a &
PID=$!
wait_healthy "instance A"

echo "== submitting a burst of long batch queries to instance A"
MIG_IDS=""
n=0
while [ "$n" -lt 3 ]; do
    SID=$(curl -fsS "$BASE/query" -d '{"tpch":21,"priority":"batch"}' |
        sed -n 's/.*"id": "\(s-[0-9]*\)".*/\1/p' | head -n 1)
    [ -n "$SID" ] || { echo "no session id in migration submit response" >&2; exit 1; }
    MIG_IDS="$MIG_IDS $SID"
    n=$((n + 1))
done

echo "== SIGTERM instance A mid-load: suspend into the shared store"
require_in_flight "cross-instance migration"
stop_server TERM
[ -n "$(ls -A "$STORE/chunks" 2>/dev/null)" ] ||
    { echo "instance A uploaded nothing to the shared store" >&2; exit 1; }

echo "== booting instance B on the same store (different instance id)"
"$BIN" -addr "127.0.0.1:$PORT" -sf "$LOAD_SF" -workers 1 -slots 1 \
    -ckdir "$WORK/ckpt-b" -store "$STORE" -instance b &
PID=$!
wait_healthy "instance B"

echo "== instance A's sessions complete on instance B"
for SID in $MIG_IDS; do
    i=0
    until curl -fsS "$BASE/sessions/$SID" | grep -q '"state": "done"'; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "session $SID never finished on instance B:" >&2
            curl -fsS "$BASE/sessions/$SID" >&2 || true
            exit 1
        fi
        sleep 0.2
    done
done
curl -fsS "$BASE/metrics" | grep -q '"server.migrated": [1-9]' || {
    echo "instance B adopted no foreign sessions:" >&2
    curl -fsS "$BASE/metrics?format=text" >&2 || true
    exit 1
}

echo "serve_smoke.sh OK"
