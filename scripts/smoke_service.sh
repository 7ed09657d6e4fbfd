#!/usr/bin/env bash
# psaflowd smoke test: boot the daemon, push a job through the HTTP API
# with the examples/service client, check concurrent submissions and result
# persistence, then SIGTERM and require a clean graceful drain.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/psaflowd" ./cmd/psaflowd
go build -o "$tmp/client" ./examples/service

port=$((20000 + RANDOM % 20000))
addr="127.0.0.1:$port"
pprof_addr="127.0.0.1:$((port + 1))"
"$tmp/psaflowd" -addr "$addr" -workers 2 -queue 64 -data-dir "$tmp/data" -pprof "$pprof_addr" -v \
    >"$tmp/log" 2>&1 &
pid=$!

# Submit + poll + fetch one nbody job; retries cover listener startup.
ok=""
for _ in $(seq 1 25); do
    if "$tmp/client" -addr "http://$addr" -bench nbody -wait 120s; then
        ok=1
        break
    fi
    sleep 0.2
done
[ -n "$ok" ] || { echo "smoke: job never completed"; cat "$tmp/log"; exit 1; }

# Concurrent submissions share the run cache; the client exits nonzero if
# any of the 8 jobs fails to reach state=done.
"$tmp/client" -addr "http://$addr" -bench nbody -n 8 -json -wait 120s

# -pprof serves the runtime profiles on its own listener, and only there.
code=$(curl -sS -o "$tmp/heap.pb.gz" -w '%{http_code}' "http://$pprof_addr/debug/pprof/heap")
[ "$code" = 200 ] && [ -s "$tmp/heap.pb.gz" ] || { echo "smoke: no heap profile on the pprof port ($code)"; exit 1; }
code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/heap")
[ "$code" = 404 ] || { echo "smoke: the job port answers /debug/pprof/heap with $code, want 404"; exit 1; }

# Results were persisted into the durable store's WAL.
ls "$tmp/data/store/"wal-*.log >/dev/null

# Graceful drain: SIGTERM, clean exit, and the log says so.
kill -TERM "$pid"
wait "$pid"
pid=""
grep -q "drained cleanly" "$tmp/log" || { echo "smoke: no clean drain"; cat "$tmp/log"; exit 1; }

echo "smoke: psaflowd OK"
