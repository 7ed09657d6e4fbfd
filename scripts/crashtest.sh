#!/usr/bin/env bash
# psaflowd crash-recovery gate: SIGKILL the daemon mid-job with jobs in
# done/running/queued states, restart over the same data dir, and require
# that every acknowledged job is either served byte-identically (done
# before the kill) or requeued and completed (running/queued at the kill)
# — zero lost jobs. Then SIGTERM and check a clean restart replays without
# declaring an unclean shutdown.
#
# A second gate repeats the exercise against a 3-node cluster: kill -9 one
# node mid-sweep, require the survivors to rehash around it (completing
# their jobs and accepting new ones via local fallback), then restart the
# dead node over its own WAL and require its recovered jobs to requeue and
# finish — zero jobs lost cluster-wide.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=""
pid_na=""
pid_nb=""
pid_nc=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    for p in "$pid_na" "$pid_nb" "$pid_nc"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
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
    "$tmp/psaflowd" -addr "$addr" -workers 1 -queue 16 -data-dir "$data" -batch=false -v \
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

# ── 3-node cluster crash gate ─────────────────────────────────────────────
# Boot a 3-node cluster (one worker per node, each node over its OWN WAL),
# pin the victim node's worker with a spinner, spread a tenant sweep across
# all nodes, then SIGKILL the victim mid-sweep. Survivors must keep
# completing their share, mark the victim unhealthy, and accept new
# submissions — a dead ring owner degrades placement to local execution,
# it never refuses a job. Restarting the victim over its own data dir must
# replay its WAL, requeue its unfinished jobs, and finish every one:
# zero jobs lost cluster-wide.

cport=$((20000 + RANDOM % 20000))
a_na="127.0.0.1:$cport"; a_nb="127.0.0.1:$((cport + 1))"; a_nc="127.0.0.1:$((cport + 2))"

addr_of() { # addr_of <job-id>: the node holding it, by ID prefix
    case "$1" in
    na-*) echo "$a_na" ;;
    nb-*) echo "$a_nb" ;;
    nc-*) echo "$a_nc" ;;
    *) echo "crashtest: unroutable job id '$1'" >&2; return 1 ;;
    esac
}

start_node() { # start_node <id>: boot one cluster member, wait for healthz
    local id=$1 a peers
    case "$id" in
    na) a=$a_na peers="nb=http://$a_nb,nc=http://$a_nc" ;;
    nb) a=$a_nb peers="na=http://$a_na,nc=http://$a_nc" ;;
    nc) a=$a_nc peers="na=http://$a_na,nb=http://$a_nb" ;;
    esac
    "$tmp/psaflowd" -addr "$a" -workers 1 -queue 64 -data-dir "$tmp/data-$id" \
        -batch=false -node-id "$id" -peers "$peers" -v >>"$tmp/log-$id" 2>&1 &
    eval "pid_$id=\$!"
    for _ in $(seq 1 50); do
        curl -sS "http://$a/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "crashtest: cluster node $id never came up" >&2
    cat "$tmp/log-$id" >&2
    return 1
}

csubmit() { # csubmit <addr> <json> -> job id
    curl -sS -X POST "http://$1/v1/jobs" -d "$2" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1
}

cwait() { # cwait <id> <state-regex> <tries>: poll the job's holding node
    local id=$1 want=$2 tries=$3 a state i
    a=$(addr_of "$id") || return 1
    for ((i = 0; i < tries; i++)); do
        state=$(curl -sS "http://$a/v1/jobs/$id" 2>/dev/null |
            sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
        [[ "$state" =~ ^($want)$ ]] && return 0
        sleep 0.2
    done
    echo "crashtest: cluster job $id stuck in '${state:-lost}' (wanted $want)" >&2
    return 1
}

peers_healthy() { # peers_healthy <addr> <n> <tries>: poll the healthz gauge
    local a=$1 n=$2 tries=$3 i
    for ((i = 0; i < tries; i++)); do
        curl -sS "http://$a/healthz" | grep -q "\"cluster_peers_healthy\": $n" && return 0
        sleep 0.2
    done
    return 1
}

start_node na
start_node nb
start_node nc

# Pin the victim's (nc) single worker with a spinner so the sweep jobs the
# ring places there are guaranteed mid-flight at the kill. Placement keys
# on (tenant, program fingerprint), so probe tenants until one lands on
# nc; strays occupy a survivor's worker until their 12s timeout — harmless.
spin_cluster() { # spin_cluster <tenant>
    cat <<EOF
{"bench":"nbody","mode":"uninformed","timeout_ms":12000,"tenant":"$1",
 "source":"void nbody_main(int n, int seed, double dt, double eps, double *pos, double *vel, double *acc) { int i = 0; while (i < 2000000000) { pos[0] = pos[0] + dt; i = i + 1; } }"}
EOF
}
spin_id=""
stray_ids=""
for i in $(seq 0 29); do
    sid=$(csubmit "$a_nc" "$(spin_cluster "spin$i")")
    [ -n "$sid" ] || { echo "crashtest: cluster spinner submit failed"; exit 1; }
    case "$sid" in
    nc-*) spin_id=$sid; break ;;
    *) stray_ids="$stray_ids $sid" ;;
    esac
done
[ -n "$spin_id" ] || { echo "crashtest: no spinner placed on nc in 30 tries"; exit 1; }

# The sweep: tenant-spread jobs submitted round-robin to all three nodes;
# the ring forwards each to its owner. Keep going until the victim holds
# at least two (they queue behind its spinner).
sweep_ids=""
nc_count=0
i=0
while [ "$i" -lt 42 ]; do
    for a in "$a_na" "$a_nb" "$a_nc"; do
        id=$(csubmit "$a" "{\"bench\":\"nbody\",\"tenant\":\"t$i\"}")
        [ -n "$id" ] || { echo "crashtest: cluster sweep submit failed"; exit 1; }
        sweep_ids="$sweep_ids $id"
        case "$id" in nc-*) nc_count=$((nc_count + 1)) ;; esac
        i=$((i + 1))
    done
    [ "$i" -ge 9 ] && [ "$nc_count" -ge 2 ] && break
done
[ "$nc_count" -ge 2 ] || { echo "crashtest: ring placed no sweep jobs on nc"; exit 1; }

# CRASH the victim mid-sweep: its spinner is running and $nc_count
# acknowledged sweep jobs sit queued behind it.
kill -9 "$pid_nc"
wait "$pid_nc" 2>/dev/null || true
pid_nc=""

# A dead ring owner never refuses a submission. In the window before the
# health probes mark nc down (two consecutive failures at a 1s cadence),
# the ring still places nc-owned tenants there; the forward hits a closed
# port and must degrade to local execution (forward_local_fallbacks > 0).
# Once the probes catch up, placement simply routes around the dead node
# — so submit fresh tenants immediately and fast, and stop at the first
# observed fallback. Every one of these jobs must be accepted by a
# survivor and complete there.
post_ids=""
for i in $(seq 0 59); do
    id=$(csubmit "$a_na" "{\"bench\":\"nbody\",\"tenant\":\"u$i\"}")
    [ -n "$id" ] || { echo "crashtest: post-kill submit refused"; exit 1; }
    case "$id" in nc-*) echo "crashtest: post-kill job routed to the dead node"; exit 1 ;; esac
    post_ids="$post_ids $id"
    if curl -sS "http://$a_na/metrics" | grep -Eq '"forward_local_fallbacks": [1-9]'; then
        break
    fi
done
curl -sS "http://$a_na/metrics" | grep -Eq '"forward_local_fallbacks": [1-9]' ||
    { echo "crashtest: no local fallback fired in 60 post-kill submits"; exit 1; }

# Survivors mark the victim unhealthy (self + one live peer = 2)...
peers_healthy "$a_na" 2 100 ||
    { echo "crashtest: survivor never marked nc unhealthy"; exit 1; }

# ...and keep completing their share of the sweep, plus the post-kill
# submissions that landed on them.
for id in $sweep_ids; do
    case "$id" in nc-*) continue ;; esac
    cwait "$id" done 600
done
for id in $post_ids; do cwait "$id" done 600; done

# Restart the victim over its own WAL: recovery must requeue every
# unfinished job it held — the spinner and the queued sweep jobs alike.
start_node nc
grep -q "unclean shutdown detected" "$tmp/log-nc" ||
    { echo "crashtest: victim recovery not detected"; cat "$tmp/log-nc"; exit 1; }
grep -Eq "requeued [0-9]+ job\(s\) from the durable store" "$tmp/log-nc" ||
    { echo "crashtest: victim jobs not requeued"; cat "$tmp/log-nc"; exit 1; }

cwait "$spin_id" "done|failed" 600
for id in $sweep_ids; do
    case "$id" in nc-*) cwait "$id" done 600 ;; esac
done

# The ring heals: the survivor sees all three nodes healthy again.
peers_healthy "$a_na" 3 100 ||
    { echo "crashtest: ring never healed after victim restart"; exit 1; }

# Zero lost: every acknowledged job cluster-wide reads back terminal.
for id in $sweep_ids $post_ids $spin_id $stray_ids; do
    cwait "$id" "done|failed" 600
done

for p in "$pid_na" "$pid_nb" "$pid_nc"; do kill -TERM "$p" 2>/dev/null || true; done
for p in "$pid_na" "$pid_nb" "$pid_nc"; do wait "$p" 2>/dev/null || true; done
pid_na=""; pid_nb=""; pid_nc=""

echo "crashtest: 3-node cluster crash recovery OK"
