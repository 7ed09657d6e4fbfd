#!/bin/sh
# CI entry point: vet, build, and run the full test suite with the race
# detector (the parallel branch-path execution in internal/core is only
# meaningfully exercised under -race). Mirrors .github/workflows/ci.yml.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...
# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# does not reach its tests.
go test -C benchmark .
# Cached-vs-uncached equivalence under -race: the singleflight run cache
# is shared by concurrent branch paths.
go test -race -run 'Equivalence' ./internal/tasks/
# Lifecycle stress gate: a terminal status must always have a readable
# result, locally and through the cluster proxy — 20 runs, because the
# window this guards was microseconds wide.
go test -race -count=20 -run 'TestTerminalStatusHasResult|TestClusterDeterminism' ./internal/service/
# Batched multi-job execution: identical-fingerprint jobs must coalesce
# behind one flow execution (one bytecode lowering for the whole group).
go test -race -run 'Batch' ./internal/service/
# Parallel DSE determinism under -race: pooled candidate evaluation must
# stay bit-for-bit identical to the serial walk, faults included.
go test -race -run 'ParallelDSE' ./internal/experiments/
# Chaos equivalence under -race: zero-fault runs must stay bit-for-bit
# identical and seeded chaos runs must replay deterministically even with
# parallel branch paths.
go test -race -run 'Chaos|ZeroFault' ./internal/tasks/
# Bench smoke: one shot of every harness benchmark, so a regression that
# breaks a figure harness (not just a unit) fails CI.
go test -run '^$' -bench . -benchtime=1x .
# Perf-trajectory gate (blocking): compare the two most recent committed
# bench snapshots and FAIL the build on a ns/op regression beyond the
# threshold. A deliberate perf trade ships with BENCHDIFF_ALLOW_REGRESSION=1
# (or `scripts/benchdiff.sh -allow-regression`) — use the hatch, don't
# soften the gate.
sh -c 'set -- $(grep -l "\"ns_per_op\"" BENCH_*.json | tail -2); [ $# -ne 2 ] || scripts/benchdiff.sh "$1" "$2"'
# Flow-DSL focus under -race: the full flowlang suite plus the paper-flow
# differential — examples/flows/paper.psa must compile to a task graph
# bit-identical to the built-in Fig. 4 flow, structure and executed
# results both, in informed and uninformed modes.
go test -race ./internal/flowlang/
go test -race -run 'PaperFlow' ./internal/flowlang/
# Flow-parse fuzz (short budget): the parser must return an error or an
# AST on arbitrary input, never panic — the registry feeds it raw bytes
# off the wire.
go test -run '^$' -fuzz 'FuzzFlowParse' -fuzztime 10s ./internal/flowlang/
# Flow registry under -race: versioning/immutability, validation at the
# PUT boundary, WAL persistence across restart, and the serving-layer
# differential (a job referencing the registered paper flow must produce
# the built-in flow's designs).
go test -race -run 'FlowRegistry|FlowJob' ./internal/service/
# Bundled flow documents must stay valid: -check parses + validates each.
flowtmp=$(mktemp -d)
go build -o "$flowtmp/psaflow" ./cmd/psaflow
for f in examples/flows/*.psa; do "$flowtmp/psaflow" -check "$f"; done
rm -rf "$flowtmp"
# Docs gate: markdown links resolve, go code fences are gofmt-clean, and
# docs/FLOWS.md covers the flowlang keyword/task/error catalogs.
scripts/checkdocs.sh
# Chaos smoke (low seed count): every seeded informed flow must finish
# with a feasible design; the full sweep is scripts/chaos.sh.
CHAOS_SEEDS=2 CHAOS_OUT="$(mktemp -u)" scripts/chaos.sh
# Event-streaming focus under -race: the per-job ring broker and the
# NDJSON/SSE handlers serve concurrent watchers off shared cursors.
go test -race -run 'Event|Stream|Watch' ./internal/events/ ./internal/service/
# Durable store focus under -race: WAL group commit serves concurrent
# appenders, and background compaction races live appends by design.
go test -race ./internal/store/
# WAL frame-decode fuzz (short budget): replay must tolerate arbitrary
# torn/corrupt segment bytes without panicking or failing the open.
go test -run '^$' -fuzz 'FuzzReplay' -fuzztime 10s ./internal/store/
# Crash-recovery focus under -race: in-process hard-stop scenarios (done/
# running/queued at crash time, clean-shutdown marker, rejected
# submissions).
go test -race -run 'Crash|Recover|CleanShutdown|RejectedSubmit|CancelledQueuedJob' ./internal/service/
# Cluster focus under -race: consistent-hash ring invariants, the wire
# codec's byte-determinism, the owner-side envelope store's singleflight,
# and the two-node fetch/fill/degradation paths over live HTTP.
go test -race ./internal/cluster/ ./internal/jsonstream/
# Multi-node smoke gate under -race: three full service nodes in one
# process — a submit to a non-owner must forward to its ring owner, a
# repeat program on a second node must hit the cluster run cache (both
# asserted through /metrics), results must be byte-identical across
# local/forwarded/peer-cache execution, and losing a node must degrade
# placement without failing a job. Tenant fair-share and quota caps ride
# in the same gate.
go test -race -run 'TestCluster|TestQueue|TestParseTenantQuotas|TestSubmitChunked|TestSubmitStream' ./internal/service/
# Daemon smoke: boot psaflowd, run jobs through the HTTP API, SIGTERM,
# require a graceful drain.
scripts/smoke_service.sh
# Crash-recovery gate: kill -9 the daemon mid-job, restart, require every
# acknowledged job served byte-identically or requeued — zero lost.
scripts/crashtest.sh
# Streaming smoke under load: 4 jobs watched by 256 concurrent event
# streams; fails if time-to-first-event p95 breaches 100ms.
LOADTEST_OUT="$(mktemp -u)" scripts/loadtest.sh 4 256
