#!/bin/sh
# CI entry point: vet, gofmt, build, and run the full test suite with the race
# detector (the parallel branch-path execution in internal/core is only
# meaningfully exercised under -race), then the fuzz, docs, chaos, daemon,
# crash and load gates below. This is the only gate list:
# .github/workflows/ci.yml runs this script as its single step.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# Formatting gate: gofmt -l names every file it would rewrite.
test -z "$(gofmt -l cmd internal examples benchmark *.go)"
go build ./...
# Inlining gate: the arithmetic and coercion helpers of the VM's
# specialised arms must stay inlined into dispatch, a call per dispatch
# being measurable (docs/ARCHITECTURE.md "What the VM hand-inlines, and
# why"): 17 call sites of qarithF / qarithI / qcoerceF / qcoerceI.
test "$(go build -gcflags=-m ./internal/interp 2>&1 | grep -cE 'inlining call to q(arith|coerce)[FI]$')" -eq 17
# Reachability gate: every package under internal/ is in the dependency
# closure of ./cmd/... or of the benchmark module. A package only an example
# or a test can reach is not part of the system and fails CI, with no
# exceptions: wire it or delete it.
reach=$(mktemp)
{ go list -deps ./cmd/...; go list -C benchmark -deps .; } | sort -u >"$reach"
for p in $(go list ./internal/...); do
	grep -qx "$p" "$reach" || { echo "ci: $p is reachable from neither cmd/ nor benchmark/" >&2; exit 1; }
done
rm -f "$reach"
go test -race ./...
# Dispatch-count gate: how many times each clause of the VM's dispatch
# loop runs on one run of each bundled application must equal
# internal/interp/testdata/dispatch.golden exactly. A change to the
# lowering or to dispatch rewrites the fixture with scripts/dispatch.sh,
# and the diff is its claim.
scripts/dispatch.sh -check
# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# does not reach its tests.
go test -C benchmark .
# Lifecycle stress gate: a terminal status must always have a readable
# result, locally and through the cluster proxy — 20 runs, because the
# window this guards was microseconds wide — and a finished job must keep
# its result bytes and events only (the terminal transition releases the
# rest under the job lock while readers poll).
go test -race -count=20 -run 'TestTerminalStatusHasResult|TestClusterDeterminism|TestRetainedJobFootprint' ./internal/service/
# Queue removal: a run that ends takes its queued twins out of the queue,
# a queued cancel takes its job out, and a drain closes the queue, while
# workers pop and DELETEs and new submissions race them; each job must
# still cancel alone — 20 runs, for the scheduler to vary the interleaving
# (-short skips TestBatchLowersOnce, the one with real flows).
go test -race -short -count=20 -run 'TestBatch|TestCancelQueued|TestQueuedCancelFreesSlot|TestQueueClose|TestDrain|TestCleanShutdown' ./internal/service/
# One lowered image is shared by every run of its program, concurrent ones
# included, because no run writes an instruction: 8 goroutines × 6 runs
# on one image must each equal the tree-walker — 20 runs, for the
# scheduler to vary the interleaving. A loop's profile reads its depth
# from the VM frame's loop stack, and frames are pooled: every profile
# must carry its static function and depth, also right after a run that
# failed inside a nested loop.
go test -race -count=20 -run 'TestProgramCacheSharedImage|TestLoopProfileMetadata' ./internal/interp/
# Forks share their parent's functions and parallel branch paths read them
# while each copies what it edits: the write guard over every bundled flow,
# two flows running beside each other on one run cache, the path copy a
# pragma edit makes (Design.EditLoop, minic.CopyPath), and the copy a
# renumbering edit makes — the edited function and the functions after it,
# nothing before them (Design.EditFrom, minic.AssignIDsFrom), with the loop
# Hotspot Loop Extraction moves into the kernel, and the copies themselves:
# every function copied exactly with lists of its own (CloneFunc), and the
# iterations Unroll Fixed Loops writes in one copy (CloneUnrolled), and the
# daemon's two workers running jobs at once on one program its program table
# keeps, each flow started shared, and one telemetry recorder whose spans
# the paths start, note and end while it is snapshotted, and forks on
# parallel branch paths that each keep and read their own label, and
# dependence analysis run from eight goroutines on its pooled walk scratch,
# and every leaf design rendered from eight goroutines on the generators'
# pooled scratch, and a reader appending to each event frame's line while
# the broker cuts the next one from the same slab chunk, and the five
# applications lowered from eight goroutines on the bytecode compiler's
# pooled scratch —
# five runs, for the scheduler to vary which path copies while its siblings
# read.
go test -race -count=5 -run 'TestSharedFunctionsStayUnwritten|TestEditedFlowRunsBesideBase|TestEditLoop|TestCopyPath|TestEditFrom|TestAssignIDsFrom|TestExtractHotspot|TestClone|TestUnroll|TestKeptProgramSharedByConcurrentJobs|TestConcurrentRecording|TestParallelBranchLabels|TestDesignLabel|TestAnalyzeLoopConcurrent|TestRenderConcurrent|TestFrameLinesCutFromSlab|TestLowerConcurrent' ./internal/core/ ./internal/minic/ ./internal/transform/ ./internal/service/ ./internal/telemetry/ ./internal/analysis/ ./internal/experiments/ ./internal/events/ ./internal/interp/
# Every job lowers the one checked bundled paper.psa: eight lowerings with
# different options, run beside each other on one run cache, must each
# equal the same lowering run alone — five runs, for the scheduler to vary
# which lowering reads the document while the others run.
go test -race -count=5 -run 'TestBundledFlowSharedAcrossJobs' ./internal/flowlang/
# The retention gate's other half: a job the registry has let go keeps a
# position in the store index and nothing else. The 512-byte bound is the
# plain build's and holds as it is under the detector (≈ 270 bytes measured
# in both); two runs, not twenty, because one is 2 040 flows, about half a
# minute under -race, and twenty beside the line above overran go test's
# ten-minute limit.
go test -race -count=2 -run 'TestEvictedJobFootprint' ./internal/service/
# Its counterpart for a program never seen before: the run cache keeps a
# few KB of profile per program and neither the lowered image nor the
# run's buffers. The 32 KB bound is the plain build's and holds as it is
# under the detector (8.7 KB measured in the plain build); two runs, not
# twenty, because one is 60 cold flows, about two minutes under -race.
go test -race -count=2 -run 'TestUniqueProgramFootprint' ./internal/experiments/
# The lifecycle model (random submit / cancel / kill / restart interleavings
# against a reference model, fixed seeds) and the 3-node crash gate: five
# runs each, because what they schedule around is the host's to reorder.
go test -race -count=5 -run 'TestLifecycleModel|TestClusterCrashRecovery' ./internal/service/
# Bench smoke: one shot of every harness benchmark, so a regression that
# breaks a figure harness (not just a unit) fails CI.
go test -run '^$' -bench . -benchtime=1x .
# Parse fuzz (short budget): both front ends must return an error or an
# AST on arbitrary input, never panic — the daemon feeds them raw bytes
# off the wire (the flow registry and job submits). FuzzFlowParse also
# lowers every document flowlang.Check accepts under all four mode ×
# sharing combinations and walks the lowered graph as the engine runs it:
# no task and no informed selector may lack a fact it needs. FuzzParse
# also types every expression of every program minic.Parse (which runs
# minic.Check) accepts with minic.TypeOf, under the scope the expression
# is evaluated in, and TypeOf must answer ok == true for each: the VM's
# lowering relies on it, and the analyses type submitted programs outside
# the lowering's panic guard. It holds every list of such a program at
# capacity, the parser's counting pass exact on it, and a parse from
# slabs counted empty to the same tree.
# Go minimizes each input that reaches new coverage for up to
# -fuzzminimizetime (60 s by default) before it fuzzes on, so a target
# whose early inputs are large (the bundled sources) spends a 10 s budget
# on one minimization: FuzzParse ran 46 inputs in 10 s, FuzzBytecodeDiff
# 14, FuzzReplay 1 386, and FuzzFlowParse and FuzzTraceRender stalled for
# seconds at a time. Those lines cap minimization at 1 s; FuzzAffine, whose
# count never stalled, does not.
go test -run '^$' -fuzz 'FuzzFlowParse' -fuzztime 10s -fuzzminimizetime 1s ./internal/flowlang/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s ./internal/minic/
# Affine-form differential fuzz (short budget): AffineOf's sorted-run
# arithmetic must never panic on an index expression and must agree with
# the map-based reference in internal/analysis/deps_test.go.
go test -run '^$' -fuzz 'FuzzAffine' -fuzztime 10s ./internal/analysis/
# Engine differential fuzz (short budget): the only generator-driven check
# that the VM and the tree-walker agree on profiles. It runs with Watch
# empty, so it compares the loop-watching mode across the engines and, where
# outlining accepts the hotspot, against a kernel-watched run of the
# outlined program.
go test -run '^$' -fuzz 'FuzzBytecodeDiff' -fuzztime 10s -fuzzminimizetime 1s ./internal/interp/
# Event-detail differential fuzz (short budget): the one renderer of trace
# lines and event details must write what fmt.Sprintf writes for every
# format of the events table, whatever the operands.
go test -run '^$' -fuzz 'FuzzTraceRender' -fuzztime 10s -fuzzminimizetime 1s ./internal/events/
# Examples run, not just compile: go build above is all that otherwise sees
# them. Fig. 4 itself is written once, in examples/flows/paper.psa, and
# every example that runs it calls flowlang.PSAFlow; the examples that
# build a flow by hand (customstrategy, newdevice) are deliberate variants.
# Every example must exit 0 (each takes under a second), except service,
# which needs a daemon — smoke_service.sh and loadtest.sh below drive it.
for d in examples/*/; do
	[ -f "$d/main.go" ] || continue
	[ "$d" = examples/service/ ] && continue
	go run "./$d" >/dev/null
done
# Bundled flow documents must stay valid and must run: -check parses and
# validates each, task order included (flowlang.Check, exactly what the
# daemon's flow registry accepts), and -flow checks it the same way,
# lowers it and runs kmeans through it in both modes. Every design it
# reports as infeasible must say why.
flowtmp=$(mktemp -d)
go build -o "$flowtmp/psaflow" ./cmd/psaflow
for f in examples/flows/*.psa; do
	"$flowtmp/psaflow" -check "$f"
	for m in informed uninformed; do
		"$flowtmp/psaflow" -bench kmeans -mode "$m" -flow "$f" >"$flowtmp/out"
		if grep -Eqx '  INFEASIBLE: *' "$flowtmp/out"; then
			echo "ci: $f ($m) reports an infeasible design with no reason" >&2
			exit 1
		fi
	done
done
# -v prints the flow's events as the daemon's event stream carries them:
# faults.psa's kmeans run injects a fault and retries, so both show.
"$flowtmp/psaflow" -v -bench kmeans -flow examples/flows/faults.psa 2>"$flowtmp/events" >/dev/null
for typ in retry fault_injected; do
	if ! grep -q "^$typ " "$flowtmp/events"; then
		echo "ci: psaflow -v on faults.psa printed no $typ event" >&2
		exit 1
	fi
done
rm -rf "$flowtmp"
# Docs gate: markdown links resolve, go code fences are gofmt-clean, and
# docs/FLOWS.md covers the flowlang keyword/task/error catalogs.
scripts/checkdocs.sh
# Chaos smoke (low seed count): every seeded informed flow must finish
# with a feasible design; the full sweep is scripts/chaos.sh.
CHAOS_SEEDS=2 scripts/chaos.sh
# WAL frame-decode fuzz (short budget): replay must tolerate arbitrary
# torn/corrupt segment bytes without panicking or failing the open, and
# every position it indexes must read back.
go test -run '^$' -fuzz 'FuzzReplay' -fuzztime 10s -fuzzminimizetime 1s ./internal/store/
# The store index holds positions, and compaction is where they move: Get
# and Append racing CompactNow must never see a short read or another job's
# document — 20 runs, because the window is one position swap wide.
go test -race -count=20 -run 'TestGetAndAppendRaceCompaction' ./internal/store/
# Daemon smoke: boot psaflowd, run jobs through the HTTP API, SIGTERM,
# require a graceful drain.
scripts/smoke_service.sh
# Crash-recovery gate: kill -9 the daemon binary mid-job, restart, require
# every acknowledged job served byte-identically or requeued — zero lost.
# (Its 3-node half is TestClusterCrashRecovery, above.)
scripts/crashtest.sh
# Streaming smoke under load: 4 jobs watched by 256 concurrent event
# streams; fails if time-to-first-event p95 breaches 100ms.
scripts/loadtest.sh 4 256
