#!/bin/sh
# proxy-smoke: end-to-end check of the fleet control plane. Boot
# riveter-proxy in front of three riveter-serve instances sharing one
# blob store, submit a burst of keyed batch queries through the proxy,
# then SIGKILL two instances mid-load (with a replacement registering in
# between) — every session must still complete through the same proxy
# endpoint, and the proxy's p99 round-trip must stay bounded. A second
# leg proves scale-to-zero over the wire: an idle instance parks all its
# sessions into the store (zero live executions), and the next proxy
# request wakes them to completion. A third leg arms -chaos-plan on a
# fresh proxy: a drop-window partition of the instance's query path must
# fail fast (breaker open, no spurious death), then heal — the breaker
# re-closes off a health probe and the same session key completes.
# Requires curl.
set -eu

PPORT="${PPORT:-18100}"
PBASE="http://127.0.0.1:$PPORT"
WORK="$(mktemp -d)"
SERVE="$WORK/riveter-serve"
PROXY="$WORK/riveter-proxy"
STORE="$WORK/store"
# Q21 on one worker must outlive the kills of the first leg and the 30 ms
# idle window of the second: at 0.2 it runs ~150-250 ms (at 0.02 it
# finished in ~20 ms once the generated kernels landed, before any session
# could park).
SF="${SF:-0.2}"

# Instance PIDs by slot; cleanup kills whatever is still up.
PIDS=""
cleanup() {
    for p in $PIDS ${PROXY_PID:-}; do
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building riveter-serve and riveter-proxy"
go build -o "$SERVE" ./cmd/riveter-serve
go build -o "$PROXY" ./cmd/riveter-proxy

echo "== booting riveter-proxy on $PBASE"
"$PROXY" -addr "127.0.0.1:$PPORT" -health-interval 50ms -dead-after 2 &
PROXY_PID=$!
i=0
until curl -fsS "$PBASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] || { sleep 0.2; continue; }
    echo "proxy did not become healthy" >&2
    exit 1
done

start_instance() { # $1 = id, $2 = port, extra flags after
    id="$1" port="$2"
    shift 2
    "$SERVE" -addr "127.0.0.1:$port" -sf "$SF" -workers 1 -slots 1 \
        -ckdir "$WORK/ckpt-$id" -store "$STORE" -instance "$id" \
        -control "$PBASE" -advertise "http://127.0.0.1:$port" "$@" &
    PIDS="$PIDS $!"
    eval "PID_$id=$!"
}

wait_alive() { # $1 = expected alive count
    i=0
    while [ "$(curl -fsS "$PBASE/fleet/instances" | grep -c '"alive": true')" -ne "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 150 ]; then
            echo "fleet never reached $1 alive instances:" >&2
            curl -fsS "$PBASE/fleet/instances" >&2 || true
            exit 1
        fi
        sleep 0.2
    done
}

echo "== booting instances a, b, c on the shared store"
start_instance a 18101
start_instance b 18102
start_instance c 18103
wait_alive 3

echo "== submitting a burst of keyed batch queries through the proxy"
n=1
while [ "$n" -le 6 ]; do
    curl -fsS "$PBASE/query" -d "{\"tpch\":21,\"priority\":\"batch\",\"session\":\"k$n\"}" |
        grep -q '"session_key"' || { echo "submit k$n failed" >&2; exit 1; }
    n=$((n + 1))
done

echo "== SIGKILL instance a mid-load"
kill -9 "$PID_a"
wait_alive 2

echo "== registering replacement instance d"
start_instance d 18104
wait_alive 3

echo "== SIGKILL instance b mid-load"
kill -9 "$PID_b"
wait_alive 2

echo "== every session completes through the proxy despite two dead instances"
# One held read per key: the proxy answers when the session finishes,
# re-routing across the deaths behind the one request.
n=1
while [ "$n" -le 6 ]; do
    curl -fsS "$PBASE/sessions/k$n?wait=30s" | grep -q '"state": "done"' || {
        echo "session k$n never finished:" >&2
        curl -fsS "$PBASE/sessions/k$n" >&2 || true
        exit 1
    }
    n=$((n + 1))
done

echo "== checking failover accounting and the p99 bound"
curl -fsS "$PBASE/fleet/metrics" | grep -q '"controlplane.failovers": [1-9]' || {
    echo "two instance deaths produced no recorded failovers:" >&2
    curl -fsS "$PBASE/fleet/metrics" >&2 || true
    exit 1
}
P99=$(curl -fsS "$PBASE/fleet/instances" | sed -n 's/.*"p99_ns": \([0-9]*\).*/\1/p' | head -n 1)
[ -n "$P99" ] || { echo "no proxy p99 in /fleet/instances" >&2; exit 1; }
# Bucketed quantile: anything at or under the 3s ceiling passes; the
# 10s+ tail means requests stalled across the failovers.
if [ "$P99" -gt 3000000000 ]; then
    echo "proxy p99 ${P99}ns exceeds the 3s bucket" >&2
    exit 1
fi

echo "== scale-to-zero leg: drain the survivors, boot an idle-parking instance"
curl -fsS -X POST "$PBASE/fleet/drain/c" >/dev/null 2>&1 || true
kill "$PID_c" 2>/dev/null || true
kill "$PID_d" 2>/dev/null || true
# A fresh store isolates this leg: on the shared one, e would adopt the
# orphaned duplicates that failover resubmission left behind (persisted
# when d drained) and the parked count would not be exact.
start_instance e 18105 -store "$WORK/store-e" -idle-suspend 30ms
EBASE="http://127.0.0.1:18105"
i=0
until curl -fsS "$EBASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 150 ] || { sleep 0.2; continue; }
    echo "instance e did not become healthy" >&2
    exit 1
done
# Wait until e is the only accepting instance, so the picker must route
# the scale-to-zero sessions onto it.
i=0
until curl -fsS "$PBASE/healthz" | grep -q '"accepting": 1'; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        echo "fleet never settled to one accepting instance:" >&2
        curl -fsS "$PBASE/fleet/instances" >&2 || true
        exit 1
    fi
    sleep 0.2
done

echo "== submitting sessions that nobody waits on"
for k in z1 z2; do
    curl -fsS "$PBASE/query" -d "{\"tpch\":21,\"priority\":\"batch\",\"session\":\"$k\"}" |
        grep -q '"instance": "e"' || { echo "session $k not routed to e" >&2; exit 1; }
done

echo "== instance e parks both sessions (zero live executions)"
i=0
until curl -fsS "$EBASE/healthz" |
    tr -d '\n ' | grep -q '"running":0,"queued":0,"suspended":0,"parked":2'; do
    # Nobody touches z1/z2 in this phase, so a session that is done on
    # this fresh instance finished before the idle reaper could park it.
    if curl -fsS "$EBASE/metrics" | grep -q '"server.sessions.done": [1-9]'; then
        echo "precondition failed (scale-to-zero): Q21 at SF $SF finished inside the 30ms idle window;" \
            "raise SF until the long query is reliably mid-run" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "instance e never scaled to zero:" >&2
        curl -fsS "$EBASE/healthz" >&2 || true
        exit 1
    fi
    sleep 0.1
done
curl -fsS "$EBASE/metrics" | grep -q '"server.idle_suspended": [1-9]' || {
    echo "no idle suspensions recorded on instance e" >&2
    exit 1
}

echo "== the next proxy request wakes each session to completion"
# The held read both wakes the parked session and, as a waiter, keeps it
# from parking again until it finishes.
for k in z1 z2; do
    curl -fsS "$PBASE/sessions/$k?wait=30s" | grep -q '"state": "done"' || {
        echo "parked session $k never woke:" >&2
        curl -fsS "$PBASE/sessions/$k" >&2 || true
        exit 1
    }
done
curl -fsS "$EBASE/metrics" | grep -q '"server.idle_woken": [1-9]' || {
    echo "no idle wakes recorded on instance e" >&2
    exit 1
}
curl -fsS "$PBASE/fleet/metrics" | grep -q '"controlplane.wake_requests": [1-9]' || {
    echo "proxy recorded no wake requests" >&2
    exit 1
}

echo "== chaos leg: partition-and-heal through -chaos-plan"
# A second proxy armed with a deterministic fault plan: the first 6
# query-path deliveries to instance f are dropped on the floor. Health
# probes are untouched, so f must stay alive the whole time — the
# partition trips f's circuit breaker, never a death/failover.
P2PORT=18106
P2BASE="http://127.0.0.1:$P2PORT"
FPORT=18107
"$PROXY" -addr "127.0.0.1:$P2PORT" -health-interval 50ms -dead-after 3 \
    -retry-budget 3 -backoff-base 5ms -backoff-max 50ms \
    -breaker-threshold 3 -breaker-cooldown 500ms \
    -chaos-plan "drop:link=127.0.0.1:$FPORT,op=/query,count=6" &
PROXY2_PID=$!
PIDS="$PIDS $PROXY2_PID"
i=0
until curl -fsS "$P2BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] || { sleep 0.2; continue; }
    echo "chaos proxy did not become healthy" >&2
    exit 1
done
"$SERVE" -addr "127.0.0.1:$FPORT" -sf "$SF" -workers 1 -slots 1 \
    -ckdir "$WORK/ckpt-f" -store "$WORK/store-f" -instance f \
    -control "$P2BASE" -advertise "http://127.0.0.1:$FPORT" &
PIDS="$PIDS $!"
# Wait for "accepting", not just "alive": registration marks an instance
# alive immediately, but the picker routes only once a probe has filled
# its status — a submit in that window would 503 without ever touching
# the partitioned link.
i=0
until curl -fsS "$P2BASE/fleet/instances" | grep -q '"status": "accepting"'; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        echo "instance f never became accepting on the chaos proxy" >&2
        exit 1
    fi
    sleep 0.2
done

echo "== submits fail fast while the query path is partitioned"
# Each submit burns one retry budget (3 dropped attempts) and must come
# back as a clean error, not a hang: the breaker opens at the threshold
# and the proxy answers 503 with no accepting instance.
CODE=$(curl -s -o /dev/null -w '%{http_code}' --max-time 20 \
    "$P2BASE/query" -d '{"tpch":6,"priority":"batch","session":"pz"}')
if [ "$CODE" = "200" ]; then
    echo "partitioned submit unexpectedly succeeded" >&2
    exit 1
fi
curl -fsS "$P2BASE/fleet/metrics" | grep -q '"faultnet.dropped": [1-9]' || {
    echo "chaos plan recorded no dropped deliveries:" >&2
    curl -fsS "$P2BASE/fleet/metrics" >&2 || true
    exit 1
}
curl -fsS "$P2BASE/fleet/metrics" | grep -q '"controlplane.breaker.opened": [1-9]' || {
    echo "partition never tripped the circuit breaker" >&2
    exit 1
}
if curl -fsS "$P2BASE/fleet/metrics" | grep -q '"controlplane.deaths": [1-9]'; then
    echo "query-path partition caused a spurious instance death" >&2
    curl -fsS "$P2BASE/fleet/instances" >&2 || true
    exit 1
fi

echo "== the partition heals: breaker re-closes and the same key completes"
# Re-submitting burns through the drop window; once it is exhausted and
# the cooled-down breaker re-closes off a health probe, the submit lands.
i=0
until [ "$(curl -s -o /dev/null -w '%{http_code}' --max-time 20 \
    "$P2BASE/query" -d '{"tpch":6,"priority":"batch","session":"pz"}')" = "200" ]; do
    i=$((i + 1))
    if [ "$i" -gt 30 ]; then
        echo "submit never succeeded after the partition healed:" >&2
        curl -fsS "$P2BASE/fleet/instances" >&2 || true
        exit 1
    fi
    sleep 1
done
curl -fsS "$P2BASE/sessions/pz?wait=30s" | grep -q '"state": "done"' || {
    echo "session pz never finished after heal:" >&2
    curl -fsS "$P2BASE/sessions/pz" >&2 || true
    exit 1
}
curl -fsS "$P2BASE/fleet/metrics" | grep -q '"controlplane.breaker.closed": [1-9]' || {
    echo "breaker never re-closed after the heal" >&2
    exit 1
}

echo "proxy-smoke OK"
