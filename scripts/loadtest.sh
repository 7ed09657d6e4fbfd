#!/usr/bin/env bash
# psaflowd load test: boots the daemon, warms the shared run cache with one
# job, then drives N identical concurrent jobs through the HTTP API — each
# watched by a fleet of live event-stream subscribers — and prints
# throughput / queue wait / run-cache sharing / time-to-first-event as one
# JSON summary. It is a gate, not a measurement to compare across commits:
# performance claims are made with `go run -C benchmark .` (BENCHMARK.json).
#
# Usage: scripts/loadtest.sh [jobs] [watchers]   (defaults 32, 256)
#        scripts/loadtest.sh -cluster [jobs]     (default 36)
#
# Env:   LOADTEST_OUT keeps the JSON summary at that path (by default it is
#        printed and discarded with the run's temp directory);
#        LOADTEST_TTFE_MS overrides the time-to-first-event p95 budget
#        (default 100ms — watcher attach competes with flow compute, so
#        large job counts on small machines may need more headroom).
#
# -cluster boots a 3-node psaflowd cluster (one worker per node, so worker
# capacity — the unit a node adds — is the measured resource) plus an
# identically configured single node, drives the same workload of one job
# per tenant through both, and reports the pair as one JSON summary:
# per-node job placement, aggregate and single-node throughput, the
# aggregate/single speedup, and the cluster cache counters (cross-node
# hit %, fills, forwards) that prove each unique program+workload was
# profiled once for the whole cluster.
# Env: LOADTEST_MIN_SPEEDUP fails the run if aggregate/single falls below
# it; default 0 = report only.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="service"
if [ "${1:-}" = "-cluster" ]; then
    mode="cluster"
    shift
fi

jobs="${1:-32}"
watchers="${2:-256}"
stamp="$(date +%Y-%m-%d)"
if [ "$mode" = "cluster" ]; then
    jobs="${1:-36}"
fi

tmp="$(mktemp -d)"
out="${LOADTEST_OUT:-$tmp/loadtest.json}"
pid=""
pids=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/psaflowd" ./cmd/psaflowd
go build -o "$tmp/client" ./examples/service

if [ "$mode" = "cluster" ]; then
    # The workload: tenant-spread jobs with a deterministic fault spec, so
    # every job carries real retry wall-time and the bottleneck is worker
    # capacity, which a node adds and a cluster triples. Every job is its
    # own tenant, so no two specs are identical and no job can ride another
    # one's run as a twin — placement, not coalescing, is what this measures.
    faults="seed=7,rate=0.3,kinds=hls,run"
    tenants="$jobs"

    port0=$((20000 + RANDOM % 20000))
    a1="127.0.0.1:$port0"; a2="127.0.0.1:$((port0 + 1))"; a3="127.0.0.1:$((port0 + 2))"

    # Single-node baseline: same binary, same flags, one worker.
    "$tmp/psaflowd" -addr "$a1" -workers 1 -queue 256 >"$tmp/log-single" 2>&1 &
    pids="$!"
    ok=""
    for _ in $(seq 1 50); do
        if "$tmp/client" -addr "http://$a1" -bench adpredictor -wait 120s >/dev/null 2>&1; then
            ok=1; break
        fi
        sleep 0.2
    done
    [ -n "$ok" ] || { echo "loadtest: single-node warm-up never completed"; cat "$tmp/log-single"; exit 1; }
    "$tmp/client" -addr "http://$a1" -bench adpredictor -n "$jobs" -tenants "$tenants" \
        -faults "$faults" -poll 20ms -json -wait 600s >"$tmp/single.json"
    kill -TERM "$pids"; wait "$pids" 2>/dev/null || true; pids=""

    # Three-node cluster: same workload, submissions round-robin across all
    # nodes; the ring routes each (tenant, program) to its owner.
    "$tmp/psaflowd" -addr "$a1" -workers 1 -queue 256 \
        -node-id n1 -peers "n2=http://$a2,n3=http://$a3" >"$tmp/log-n1" 2>&1 &
    pids="$!"
    "$tmp/psaflowd" -addr "$a2" -workers 1 -queue 256 \
        -node-id n2 -peers "n1=http://$a1,n3=http://$a3" >"$tmp/log-n2" 2>&1 &
    pids="$pids $!"
    "$tmp/psaflowd" -addr "$a3" -workers 1 -queue 256 \
        -node-id n3 -peers "n1=http://$a1,n2=http://$a2" >"$tmp/log-n3" 2>&1 &
    pids="$pids $!"
    ok=""
    for _ in $(seq 1 50); do
        if "$tmp/client" -addr "http://$a1" -bench adpredictor -wait 120s >/dev/null 2>&1; then
            ok=1; break
        fi
        sleep 0.2
    done
    [ -n "$ok" ] || { echo "loadtest: cluster warm-up never completed"; cat "$tmp/log-n1"; exit 1; }
    "$tmp/client" -addr "http://$a1,http://$a2,http://$a3" -bench adpredictor -n "$jobs" \
        -tenants "$tenants" -faults "$faults" -poll 20ms -json -wait 600s >"$tmp/cluster.json"
    for p in $pids; do kill -TERM "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    pids=""

    # Stitch the pair into one snapshot with the aggregate/single speedup.
    thr() { awk -F': ' '/"throughput_jobs_s"/ { gsub(/,/, "", $2); print $2 }' "$1"; }
    speedup="$(awk -v c="$(thr "$tmp/cluster.json")" -v s="$(thr "$tmp/single.json")" \
        'BEGIN { printf "%.3f", c / s }')"
    {
        printf '{\n  "date": "%s",\n  "single": ' "$stamp"
        sed '2,$s/^/  /' "$tmp/single.json"
        printf ',\n  "cluster": '
        sed '2,$s/^/  /' "$tmp/cluster.json"
        printf ',\n  "speedup_aggregate": %s\n}\n' "$speedup"
    } >"$out"
    minspeed="${LOADTEST_MIN_SPEEDUP:-0}"
    awk -v s="$speedup" -v min="$minspeed" 'BEGIN { exit !(s + 0 >= min + 0) }' || {
        echo "loadtest: cluster speedup ${speedup}x below the ${minspeed}x floor"
        exit 1
    }
    echo "loadtest: 3-node aggregate ${speedup}x one node, $jobs jobs"
    cat "$out"
    exit 0
fi

addr="127.0.0.1:$((20000 + RANDOM % 20000))"
"$tmp/psaflowd" -addr "$addr" -workers 4 -queue 128 >"$tmp/log" 2>&1 &
pid=$!

# Warm: the first job pays the cache misses; retries cover startup.
ok=""
for _ in $(seq 1 25); do
    if "$tmp/client" -addr "http://$addr" -bench adpredictor -wait 120s >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.2
done
[ -n "$ok" ] || { echo "loadtest: warm-up job never completed"; cat "$tmp/log"; exit 1; }

# Measured run: N concurrent identical jobs off the warm shared cache,
# with the watcher fleet attached round-robin across the job streams.
"$tmp/client" -addr "http://$addr" -bench adpredictor -n "$jobs" -watchers "$watchers" \
    -json -wait 300s >"$tmp/summary.json"

kill -TERM "$pid"
wait "$pid"
pid=""

awk -v date="$stamp" 'NR==1 { print "{"; printf "  \"date\": \"%s\",\n", date; next } { print }' \
    "$tmp/summary.json" >"$out"

# Gate: a watcher must see its first event promptly (ring replay means the
# queued event is always available the moment the stream attaches).
budget="${LOADTEST_TTFE_MS:-100}"
p95="$(awk -F'[:,]' '/"ttfe_ms_p95"/ { gsub(/[[:space:]]/, "", $2); print $2 }' "$out")"
awk -v p95="$p95" -v budget="$budget" 'BEGIN { exit !(p95+0 < budget+0) }' || {
    echo "loadtest: time-to-first-event p95 ${p95}ms breaches the ${budget}ms budget"
    exit 1
}

echo "loadtest: ttfe p95 ${p95}ms across $watchers watchers"
cat "$out"
