#!/usr/bin/env bash
# psaflowd crash-recovery gate — the one thing only a real process can show:
# SIGKILL the daemon binary mid-job with jobs in done/running/queued states,
# restart over the same data dir, and require that every acknowledged job is
# either served byte-identically (done before the kill) or requeued and
# completed (running/queued at the kill) — zero lost jobs. Then SIGTERM and
# check a clean restart replays without declaring an unclean shutdown.
#
# Everything else that used to live here runs in-process and deterministically
# under `go test ./internal/service/`: the 3-node gate (kill one node
# mid-sweep, survivors rehash and fall back locally, the victim restarts over
# its own WAL, zero lost) is TestClusterCrashRecovery, and every interleaving
# of submit, cancel, kill and restart around the lifecycle's steps is
# TestLifecycleModel.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/psaflowd" ./cmd/psaflowd

addr="127.0.0.1:$((20000 + RANDOM % 20000))"
data="$tmp/data"

# A spinning nbody source: the job stays running until it is killed, times
# out or exhausts the interpreter's step budget. $1 varies the loop bound:
# a source the daemon has already run is answered from its run cache.
spin_spec() {
    cat <<EOF
{"bench":"nbody","mode":"uninformed","timeout_ms":60000,
 "source":"void nbody_main(int n, int seed, double dt, double eps, double *pos, double *vel, double *acc) { int i = 0; while (i < ${1:-2000000000}) { pos[0] = pos[0] + dt; i = i + 1; } }"}
EOF
}

submit() { # submit <json> -> job id
    curl -sS -X POST "http://$addr/v1/jobs" -d "$1" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1
}

wait_state() { # wait_state <id> <state> <tries>
    local id=$1 want=$2 tries=$3 i
    for ((i = 0; i < tries; i++)); do
        if curl -sS "http://$addr/v1/jobs/$id" | grep -q "\"state\": \"$want\""; then
            return 0
        fi
        sleep 0.2
    done
    echo "crashtest: job $id never reached $want" >&2
    curl -sS "http://$addr/v1/jobs/$id" >&2 || true
    return 1
}

start_daemon() {
    "$tmp/psaflowd" -addr "$addr" -workers 1 -queue 16 -data-dir "$data" -v \
        >>"$tmp/log" 2>&1 &
    pid=$!
    for _ in $(seq 1 50); do
        curl -sS "http://$addr/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "crashtest: daemon never came up" >&2
    cat "$tmp/log" >&2
    return 1
}

start_daemon

# Register a flow document before the crash; its acknowledged version must
# survive kill -9 like any acknowledged job.
put_code=$(curl -sS -o "$tmp/flowput.json" -w '%{http_code}' -X PUT \
    --data-binary @examples/flows/minimal.psa "http://$addr/v1/flows/crash")
[ "$put_code" = "201" ] ||
    { echo "crashtest: flow registration failed ($put_code)"; cat "$tmp/flowput.json"; exit 1; }
curl -sS "http://$addr/v1/flows/crash" >"$tmp/flow.pre"

# Job 1 finishes before the crash; keep its result bytes for comparison.
done_id=$(submit '{"bench":"nbody"}')
[ -n "$done_id" ] || { echo "crashtest: submit failed"; cat "$tmp/log"; exit 1; }
wait_state "$done_id" done 300
curl -sS "http://$addr/v1/jobs/$done_id/result" >"$tmp/result.pre"

# Job 2 spins on the single worker; jobs 3-5 wait behind it. Job 5
# references the registered flow — its pinned crash@1 reference must
# still resolve when it is requeued after the crash.
running_id=$(submit "$(spin_spec)")
wait_state "$running_id" running 100
q1_id=$(submit '{"bench":"kmeans"}')
q2_id=$(submit '{"bench":"bezier"}')
q3_id=$(submit '{"bench":"nbody","flow":"crash"}')
wait_state "$q1_id" queued 10
wait_state "$q2_id" queued 10
wait_state "$q3_id" queued 10

# CRASH: no drain, no shutdown record, a job mid-flight.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# Restart over the same data dir: recovery must requeue the 4 unfinished
# acknowledged jobs and say so.
start_daemon
grep -q "unclean shutdown detected: 4 unfinished job(s)" "$tmp/log" ||
    { echo "crashtest: recovery not detected"; cat "$tmp/log"; exit 1; }
grep -q "requeued 4 job(s) from the durable store" "$tmp/log" ||
    { echo "crashtest: jobs not requeued"; cat "$tmp/log"; exit 1; }

# The finished job's result replays byte-identically.
curl -sS "http://$addr/v1/jobs/$done_id/result" >"$tmp/result.post"
cmp -s "$tmp/result.pre" "$tmp/result.post" ||
    { echo "crashtest: replayed result differs"; diff "$tmp/result.pre" "$tmp/result.post" | head; exit 1; }

# The registered flow replays byte-identically (same version, same source).
curl -sS "http://$addr/v1/flows/crash" >"$tmp/flow.post"
cmp -s "$tmp/flow.pre" "$tmp/flow.post" ||
    { echo "crashtest: replayed flow differs"; diff "$tmp/flow.pre" "$tmp/flow.post" | head; exit 1; }

# Every requeued job completes (the spinner hits its 60s timeout at worst;
# kmeans/bezier run through, and the flow-referencing job resolves its
# pinned crash@1 against the replayed registry). None may be lost (404)
# or stuck queued.
wait_state "$q1_id" done 600
wait_state "$q2_id" done 600
wait_state "$q3_id" done 600
for ((i = 0; i < 600; i++)); do
    state=$(curl -sS "http://$addr/v1/jobs/$running_id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
    case "$state" in
    done | failed) break ;;
    "") echo "crashtest: requeued running job lost"; exit 1 ;;
    esac
    sleep 0.2
done
case "$state" in
done | failed) ;;
*) echo "crashtest: requeued running job stuck in '$state'"; exit 1 ;;
esac

# /metrics exposes the store counters.
curl -sS "http://$addr/metrics" >"$tmp/metrics.json"
grep -q '"store"' "$tmp/metrics.json" ||
    { echo "crashtest: no store metrics"; exit 1; }

# Graceful shutdown ends the WAL with a shutdown record; the next start
# must NOT cry crash, even with a job left queued by the drain (a
# spinner holds the single worker so the job behind it stays queued).
held_id=$(submit "$(spin_spec 1999999999)")
wait_state "$held_id" running 100
left_id=$(submit '{"bench":"bezier"}')
wait_state "$left_id" queued 10
kill -TERM "$pid"
wait "$pid" 2>/dev/null || true
pid=""
grep -q "drained cleanly" "$tmp/log" || { echo "crashtest: no clean drain"; cat "$tmp/log"; exit 1; }

: >"$tmp/log"
start_daemon
grep -q "requeued 1 job(s) from the durable store" "$tmp/log" ||
    { echo "crashtest: drained queued job not requeued"; cat "$tmp/log"; exit 1; }
if grep -q "unclean shutdown detected" "$tmp/log"; then
    echo "crashtest: clean restart misreported as a crash"
    cat "$tmp/log"
    exit 1
fi
wait_state "$left_id" done 600
# The finished jobs still serve from the store after the clean cycle.
curl -sS "http://$addr/v1/jobs/$done_id/result" >"$tmp/result.final"
grep -q '"state": "done"' "$tmp/result.final" ||
    { echo "crashtest: result lost after clean restart"; exit 1; }
curl -sS "http://$addr/v1/flows/crash" >"$tmp/flow.final"
cmp -s "$tmp/flow.pre" "$tmp/flow.final" ||
    { echo "crashtest: flow lost after clean restart"; exit 1; }
kill -TERM "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "crashtest: psaflowd crash recovery OK"
