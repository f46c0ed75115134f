#!/usr/bin/env bash
# Sharded-serving demo with real binaries: boot 3 sgserve shards and an
# sgproxy in front, drive traffic through the proxy over both
# protocols, hard-kill one shard mid-run (traffic must keep answering
# via replica failover), swap in a replacement under the same shard ID
# with an epoch-bumped topology POST, and assert the proxy reports a
# fully healthy fleet again. Used by CI and `make proxy-demo`.
set -euo pipefail

workdir=$(mktemp -d)
pport=${SGPROXY_PORT:-8170}
sport=${SGPROXY_SHARD_BASE_PORT:-8180}
base="http://localhost:$pport"
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

fail() { echo "proxy-demo: $1" >&2; exit 1; }

go build -o "$workdir/sgserve" ./cmd/sgserve
go build -o "$workdir/sgproxy" ./cmd/sgproxy
go build -o "$workdir/sgload" ./cmd/sgload
# Three grids so the keyspace actually spreads across shards.
for fn in gaussian parabola sinprod; do
    go run ./cmd/sgcompress -dim 3 -level 5 -fn "$fn" -direct -q -o "$workdir/$fn.sg"
done

start_shard() { # $1 = shard index, $2 = port
    "$workdir/sgserve" -addr "127.0.0.1:$2" -shard-id "s$1" \
        -trusted-proxies 127.0.0.0/8 \
        -grid "gaussian=$workdir/gaussian.sg" \
        -grid "parabola=$workdir/parabola.sg" \
        -grid "sinprod=$workdir/sinprod.sg" &
    pids+=($!)
}

wait_http() { # $1 = url, $2 = what
    for i in $(seq 1 50); do
        if curl -sf "$1" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    fail "$2 never became healthy"
}

for i in 0 1 2; do start_shard "$i" $((sport + i)); done
for i in 0 1 2; do wait_http "http://127.0.0.1:$((sport + i))/healthz" "shard s$i"; done

"$workdir/sgproxy" -addr ":$pport" -epoch 1 \
    -shard "s0=127.0.0.1:$sport" \
    -shard "s1=127.0.0.1:$((sport + 1))" \
    -shard "s2=127.0.0.1:$((sport + 2))" &
proxy_pid=$!
pids+=("$proxy_pid")
wait_http "$base/healthz" "proxy"

# Basic routing: every grid answers through the proxy, both protocols.
curl -sf -d '{"grid":"gaussian","point":[0.5,0.5,0.5]}' "$base/v1/eval" \
    | grep -q '"value":1' || fail "routed /v1/eval (gaussian peak should be 1)"
curl -sf -d '{"grid":"parabola","points":[[0.5,0.5,0.5],[0.25,0.25,0.25]]}' \
    "$base/v1/eval/batch" | grep -q '"values":\[' || fail "routed /v1/eval/batch"
# u16 nameLen=8 | "gaussian" | 6 pad bytes (to frame offset 16) |
# u32 n=1 | u32 d=3 | 3 little-endian float64 0.5
printf '\x08\x00gaussian\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x03\x00\x00\x00' > "$workdir/frame.bin"
printf '\x00\x00\x00\x00\x00\x00\xe0\x3f%.0s' 1 2 3 >> "$workdir/frame.bin"
curl -sf -H 'Content-Type: application/x-compactsg-frame' \
    --data-binary @"$workdir/frame.bin" "$base/v1/eval/bin" -o "$workdir/values.bin" \
    || fail "routed /v1/eval/bin"
od -An -tx1 "$workdir/values.bin" | tr -d ' \n' | \
    grep -q '^0100000000000000000000000000f03f$' \
    || fail "/v1/eval/bin values frame through the proxy"
curl -sf "$base/v1/grids" | grep -q '"name":"gaussian"' || fail "relayed /v1/grids"

# Load through the proxy in mixed-protocol mode while we run the chaos.
"$workdir/sgload" -url "$base" -c 8 -n 4000 -protocol mix -grid gaussian \
    -traces=false > "$workdir/load1.txt" 2>&1 &
load_pid=$!

# Kill shard s1 mid-traffic. Requests it owned must fail over.
sleep 0.5
kill -9 "${pids[1]}" 2>/dev/null || true
sleep 0.5
curl -sf -d '{"grid":"gaussian","point":[0.5,0.5,0.5]}' "$base/v1/eval" >/dev/null \
    || fail "eval with a dead shard (failover should hide it)"
curl -sf -d '{"grid":"parabola","point":[0.5,0.5,0.5]}' "$base/v1/eval" >/dev/null \
    || fail "eval of second grid with a dead shard"
curl -sf -d '{"grid":"sinprod","point":[0.5,0.5,0.5]}' "$base/v1/eval" >/dev/null \
    || fail "eval of third grid with a dead shard"

wait "$load_pid" || fail "load run with a dead shard exited non-zero (see $workdir/load1.txt)"

# Replace s1: same shard ID, new port, epoch-bumped topology POST.
rport=$((sport + 9))
start_shard 1 "$rport"
wait_http "http://127.0.0.1:$rport/healthz" "replacement shard s1"
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
    -d "{\"epoch\":2,\"shards\":[
          {\"id\":\"s0\",\"addr\":\"127.0.0.1:$sport\"},
          {\"id\":\"s1\",\"addr\":\"127.0.0.1:$rport\"},
          {\"id\":\"s2\",\"addr\":\"127.0.0.1:$((sport + 2))\"}]}" \
    "$base/admin/topology")
[ "$code" = 200 ] || fail "topology bump returned $code, want 200"
# A stale epoch must be refused.
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
    -d "{\"epoch\":2,\"shards\":[{\"id\":\"s0\",\"addr\":\"127.0.0.1:$sport\"}]}" \
    "$base/admin/topology")
[ "$code" = 409 ] || fail "stale topology epoch returned $code, want 409"

# Recovery: the proxy must report epoch 2 and every shard healthy with
# its breaker closed (the topology handler polls immediately, so this
# converges in milliseconds; give it 2s to be safe).
ok=
for i in $(seq 1 20); do
    health=$(curl -s "$base/healthz")
    if echo "$health" | grep -q '"epoch":2' && \
       ! echo "$health" | grep -q '"healthy":false' && \
       ! echo "$health" | grep -q '"breaker_open":true'; then
        ok=1; break
    fi
    sleep 0.1
done
[ -n "$ok" ] || fail "fleet did not recover after the topology bump: $(curl -s "$base/healthz")"

# Post-recovery traffic: a clean load run, plus proof the replacement
# is back in rotation. Requests route by grid *name* whether or not the
# grid exists (unknown names draw the owning shard's 404), so probing
# 32 distinct names guarantees s1 owns several — its upstream request
# counter must move.
before=$(curl -s "$base/metrics" | sed -n 's/^sgproxy_upstream_requests_total{shard="s1"} //p')
"$workdir/sgload" -url "$base" -c 8 -n 4000 -protocol mix -grid gaussian \
    -traces=false > "$workdir/load2.txt" 2>&1 \
    || fail "post-recovery load run exited non-zero (see $workdir/load2.txt)"
for i in $(seq 1 32); do
    curl -s -o /dev/null -d "{\"grid\":\"probe-$i\",\"point\":[0.5,0.5,0.5]}" "$base/v1/eval"
done
after=$(curl -s "$base/metrics" | sed -n 's/^sgproxy_upstream_requests_total{shard="s1"} //p')
[ "${after:-0}" != "${before:-0}" ] || fail "replacement shard s1 received no traffic after recovery"

# The proxy runs sgserve's request front, so its /metrics carries the
# same panic and per-stage families, filled by the load run above.
pmetrics=$(curl -s "$base/metrics")
grep -qx 'sgproxy_panics_total 0' <<<"$pmetrics" || fail "proxy /metrics lacks sgproxy_panics_total 0"
dispatch=$(sed -n 's/^sgproxy_stage_seconds_count{stage="dispatch"} //p' <<<"$pmetrics")
[ "${dispatch:-0}" != 0 ] || fail "proxy recorded no dispatch stage (sgproxy_stage_seconds_count{stage=\"dispatch\"} = ${dispatch:-absent})"

grep -E 'req/s|throughput' "$workdir/load2.txt" | head -2 || true
kill -TERM "$proxy_pid"
wait "$proxy_pid" || fail "proxy exited non-zero on SIGTERM"
echo "proxy-demo: ok (shard killed, replaced, fleet recovered)"
