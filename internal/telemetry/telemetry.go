// Package telemetry is the flow-observability substrate: hierarchical
// wall-clock spans over PSA-flow execution (flow → branch → path → task)
// plus named counters fed from the hot layers (interpreter ops/cycles,
// DSE iterations, HLS partial compiles, design forks, budget revisions).
// The paper's PSA-flows exist to explain how a design was derived; the
// recorder captures the same provenance quantitatively, producing the
// per-stage timing data any learned/adaptive PSA strategy trains on.
//
// A nil *Recorder is fully functional as a no-op: every method is
// nil-safe, so flow code records unconditionally and pays nothing when
// telemetry is disabled. All methods are safe for concurrent use — branch
// paths run on separate goroutines when core.Context.Parallel is set.
package telemetry

import (
	"sync"
	"time"

	"psaflow/internal/events"
)

// Span kinds used by the flow engine. Exported as constants so exporters
// and tests do not scatter string literals.
const (
	KindFlow   = "flow"
	KindBranch = "branch"
	KindPath   = "path"
	KindTask   = "task"
)

// Counter names fed by the instrumented layers.
const (
	// CounterInterpRuns / Ops / Cycles total the profiling interpreter's
	// executions, AST steps, and virtual cycles across all dynamic tasks.
	CounterInterpRuns   = "interp.runs"
	CounterInterpOps    = "interp.ops"
	CounterInterpCycles = "interp.cycles"
	// CounterHLSPartialCompiles counts invocations of the simulated
	// oneAPI partial compile (hls.Estimate) — the expensive tool step of
	// the unroll-until-overmap DSE.
	CounterHLSPartialCompiles = "hls.partial_compiles"
	// CounterRunCacheHits / Misses count memoized profiled-run lookups in
	// core.RunCache; OpsAvoided / CyclesAvoided total the interpreter work
	// each hit skipped (the cached run's AST steps and virtual cycles).
	CounterRunCacheHits          = "runcache.hits"
	CounterRunCacheMisses        = "runcache.misses"
	CounterRunCacheOpsAvoided    = "runcache.ops_avoided"
	CounterRunCacheCyclesAvoided = "runcache.cycles_avoided"
	// CounterDesignsForked counts Design.Fork calls made at branch points.
	CounterDesignsForked = "flow.designs_forked"
	// CounterBudgetRevisions counts Fig. 3 budget-feedback revisions: an
	// alternative dropped for the next because every leaf was over budget.
	CounterBudgetRevisions = "flow.budget_revisions"
)

// Service counters fed by the psaflowd job queue and worker pool, all
// cumulative. The queue depth is a gauge and is read from the queue itself.
const (
	CounterJobsSubmitted = "service.jobs_submitted"
	// CounterJobsStarted counts jobs a worker actually began executing —
	// the set whose queue wait was recorded, and therefore the denominator
	// of queue_wait_ms_avg (terminal-state counts undercount it whenever a
	// running job is cancelled).
	CounterJobsStarted     = "service.jobs_started"
	CounterJobsCompleted   = "service.jobs_completed"
	CounterJobsFailed      = "service.jobs_failed"
	CounterJobsCancelled   = "service.jobs_cancelled"
	CounterJobsRejected    = "service.jobs_rejected" // queue-full 429s
	CounterJobsEvicted     = "service.jobs_evicted"  // terminal jobs evicted from the registry
	CounterQueueWaitMillis = "service.queue_wait_ms" // cumulative submit→start wait
	// CounterBatchGroups / Jobs count batched multi-job executions: flow
	// runs whose outcome also completed at least one queued twin (identical
	// program fingerprint and spec), and the jobs of those groups, the
	// run's own job included.
	CounterBatchGroups = "dse.batch.groups"
	CounterBatchJobs   = "dse.batch.jobs"
)

// Event-stream counters fed by the psaflowd job-event broker and the
// GET /v1/jobs/{id}/events handler. The attached watchers are a gauge, read
// from the brokers.
const (
	CounterEventsPublished = "service.events.published"
	CounterEventsDropped   = "service.events.dropped" // ring evictions past slow watchers
)

// Durable-store counters mirrored from the WAL-backed job store (see
// internal/store and docs/OPERATIONS.md). Appends/fsyncs gauge write and
// group-commit traffic; replayed/requeued describe the last startup
// recovery; torn_tail and skipped_corrupt count damage tolerated (not
// fatal) during replay.
const (
	CounterStoreAppends        = "store.appends"
	CounterStoreFsyncs         = "store.fsyncs"
	CounterStoreReplayed       = "store.replayed"
	CounterStoreRequeued       = "store.requeued" // queued/running jobs re-enqueued at startup
	CounterStoreCompactions    = "store.compactions"
	CounterStoreTornTail       = "store.torn_tail"
	CounterStoreSkippedCorrupt = "store.skipped_corrupt"
	CounterStoreEvicted        = "store.evicted" // retention tombstones in the WAL
)

// Fault-injection and retry counters fed by the resilience layer (see
// internal/faults and docs/FAULTS.md). All stay zero when injection is off.
const (
	// CounterFaultsInjected totals injected faults across all kinds; the
	// per-kind split is FaultCounter(kind) = "fault.injected.<kind>".
	CounterFaultsInjected = "fault.injected"
	// CounterFaultDegradations counts branch paths degraded to an
	// Infeasible verdict after a (retry-exhausted or non-transient) fault.
	CounterFaultDegradations = "fault.degradations"
	// CounterFaultFallbacks counts informed-strategy fallbacks: the single
	// selected path failed, so the strategy's next alternative ran.
	CounterFaultFallbacks = "fault.fallbacks"
	// CounterTaskTimeouts counts task attempts killed by
	// core.Context.TaskTimeout.
	CounterTaskTimeouts = "fault.task_timeouts"
	// CounterRetryAttempts counts task re-executions after a transient
	// failure; CounterRetryBackoffMillis totals the backoff slept.
	CounterRetryAttempts      = "retry.attempts"
	CounterRetryBackoffMillis = "retry.backoff_ms"
	// CounterRetryGiveups counts tasks that exhausted MaxAttempts;
	// CounterRetryBudgetExhausted counts retries denied by the per-flow
	// retry budget.
	CounterRetryGiveups         = "retry.giveups"
	CounterRetryBudgetExhausted = "retry.budget_exhausted"
)

// Flow-DSL counters fed by internal/flowlang and the psaflowd flow
// registry (see docs/FLOWS.md).
const (
	// CounterFlowCompiles counts the service's uses of registered
	// documents: one per document a PUT checks (registration checks and
	// does not lower) and one per job that lowers a registered version.
	CounterFlowCompiles = "flowlang.compiles"
	// Registry traffic: versions registered, documents fetched, and job
	// submissions resolved against a registered flow.
	CounterFlowRegistryPuts     = "flowlang.registry.puts"
	CounterFlowRegistryGets     = "flowlang.registry.gets"
	CounterFlowRegistryResolves = "flowlang.registry.resolves"
)

// Cluster counters fed by internal/cluster and the psaflowd peer layer
// (see docs/OPERATIONS.md). All stay zero on a single-node daemon.
const (
	// Job placement: submissions forwarded to their ring owner, forward
	// attempts that failed (and fell back to local execution), and
	// status/result/events/cancel requests proxied to the owning node.
	CounterClusterForwarded      = "cluster.jobs_forwarded"
	CounterClusterForwardFailed  = "cluster.forward_failures"
	CounterClusterForwardedLocal = "cluster.forward_local_fallbacks"
	CounterClusterProxied        = "cluster.requests_proxied"
	CounterClusterProxyFailed    = "cluster.proxy_failures"
	// Distributed run cache: read-through fetches answered by a peer
	// (peer_hits) or not (peer_misses), fills pushed to the ring owner,
	// fills the owner rejected (checksum/key mismatch or over-capacity),
	// and waiters that collapsed onto an in-flight peer computation
	// (wait_hits — the cluster-wide singleflight at work).
	CounterClusterRunPeerHits    = "cluster.runcache.peer_hits"
	CounterClusterRunPeerMisses  = "cluster.runcache.peer_misses"
	CounterClusterRunFills       = "cluster.runcache.fills"
	CounterClusterRunFillReject  = "cluster.runcache.fill_rejects"
	CounterClusterRunWaitHits    = "cluster.runcache.wait_hits"
	CounterClusterRunFetchErrors = "cluster.runcache.fetch_errors"
	// Peer health: ping attempts and failed pings. The healthy-node count
	// is a gauge, read from the node (cluster.Node.HealthyCount).
	CounterClusterPings        = "cluster.pings"
	CounterClusterPingFailures = "cluster.ping_failures"
)

// FaultCounter returns the per-kind injected-fault counter name, e.g.
// FaultCounter("hls") = "fault.injected.hls".
func FaultCounter(kind string) string { return "fault.injected." + kind }

// Iteration counters of the bundled DSE loops, "dse.<loop>.iterations";
// tasks.dse_iterations_per_job totals every counter of that shape.
const (
	CounterDSENumThreads = "dse.numthreads.iterations"
	CounterDSEBlocksize  = "dse.blocksize.iterations"
	CounterDSEUnroll     = "dse.unroll.iterations"
	CounterDSESharing    = "dse.sharing.iterations"
)

// Span is one timed node of the flow-run hierarchy. Kind and Name are
// fixed when it starts; Detail is written through SetDetail. A span lives
// in a chunk its recorder owns and never moves, so a *Span stays valid as
// long as the recorder is reachable.
type Span struct {
	Kind   string
	Name   string
	Detail string // the design label a task or path ran on

	rec   *Recorder
	start time.Time

	// The tree links: the span's children in start order and its next
	// sibling. Paths forked under a span add children concurrently, so the
	// links are written and read under rec.mu only.
	first, last, next *Span
	nchildren         int

	mu    sync.Mutex // guards Detail, notes, ended and dur
	notes []events.Detail
	ended bool
	dur   time.Duration
}

// Recorder accumulates spans and counters for one flow run (or a whole
// experiment sweep). The zero value is not usable; call New. A nil
// receiver disables recording at zero cost.
type Recorder struct {
	now func() time.Time // injectable clock for tests

	mu   sync.Mutex
	sink func(events.Event)
	// roots holds no span of its own: its children are the root spans.
	roots  Span
	nspans int // spans started, roots and descendants
	// chunk hands out spans: StartSpan takes the next unused slot and
	// allocates a new chunk of spanChunk spans only when this one is full.
	chunk    []Span
	counters map[string]int64
}

// spanChunk is how many spans one allocation holds. A job's flow starts
// 14 to 43 spans: a chunk of 16 wastes little on the smallest and costs
// the largest three allocations.
const spanChunk = 16

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{now: time.Now, counters: make(map[string]int64)}
}

// SetEventSink attaches a live event sink; nil detaches. The sink is
// handed every event as it happens: a task span's opening (task_start) and
// closing (task_end, its detail the span's), every span's notes (note) and
// the engine's typed events (Emit). Branch, path and flow spans send
// nothing — branch_decision events cover them. The sink is called from
// parallel branch paths at once, so it must be safe for concurrent use.
// Call before the recorder is handed to a flow run (the serving layer
// attaches the job's stream broker between creating the recorder and
// starting the flow). No-op on a nil recorder.
func (r *Recorder) SetEventSink(s func(events.Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// eventSink returns the attached sink (nil when none or nil recorder).
func (r *Recorder) eventSink() func(events.Event) {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// Emit publishes one typed event to the attached sink — the engine's
// channel for signals that are not spans (branch decisions, DSE sweep
// progress, injected faults, retries). f fixes the event's type and text;
// strs and nums are the operands its verbs read, copied into the detail
// (events.NewDetail). Nothing is rendered here: a sink renders the detail
// where it keeps it, and without a recorder or sink an event costs nothing.
func (r *Recorder) Emit(f events.Format, name string, strs []string, nums ...float64) {
	if sink := r.eventSink(); sink != nil {
		sink(events.New(f, name, strs, nums...))
	}
}

// StartSpan opens a span under parent (nil parent = new root span) and
// returns it; call End on the result. Nil recorder returns a nil span,
// which is itself safe to End or use as a parent.
func (r *Recorder) StartSpan(parent *Span, kind, name string) *Span {
	if r == nil {
		return nil
	}
	start := r.now()
	r.mu.Lock()
	if len(r.chunk) == cap(r.chunk) {
		r.chunk = make([]Span, 0, spanChunk)
	}
	r.chunk = r.chunk[:len(r.chunk)+1]
	s := &r.chunk[len(r.chunk)-1]
	s.Kind, s.Name, s.rec, s.start = kind, name, r, start
	if parent == nil {
		parent = &r.roots
	}
	parent.link(s)
	r.nspans++
	sink := r.sink
	r.mu.Unlock()
	if sink != nil && kind == KindTask {
		sink(events.Event{Type: events.TypeTaskStart, Name: name})
	}
	return s
}

// link appends s to the span's children. The caller holds the recorder's
// mutex.
func (p *Span) link(s *Span) {
	if p.last == nil {
		p.first = s
	} else {
		p.last.next = s
	}
	p.last = s
	p.nchildren++
}

// SetDetail attaches free-form context to the span. Call it from the
// goroutine that started the span, before End; a Snapshot taken
// meanwhile reads the detail under the span's mutex.
func (s *Span) SetDetail(detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Detail = detail
	s.mu.Unlock()
}

// Note appends an annotation to the span, a format of the events table
// and its operands, rendered when a snapshot or a frame reads it — the
// resilience layer records retries, timeouts, and degradations this way,
// so a flow's recovery history is visible in the span tree
// (-metrics-json) and on the job's stream as a note event. Safe from any
// goroutine; no-op on a nil span.
func (s *Span) Note(f events.Format, strs []string, nums ...float64) {
	if s == nil {
		return
	}
	e := events.New(f, s.Name, strs, nums...)
	e.Type = events.TypeNote
	s.mu.Lock()
	s.notes = append(s.notes, e.Args)
	s.mu.Unlock()
	if sink := s.rec.eventSink(); sink != nil {
		sink(e)
	}
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = s.rec.now().Sub(s.start)
	dur, detail := s.dur, s.Detail
	s.mu.Unlock()
	if sink := s.rec.eventSink(); sink != nil && s.Kind == KindTask {
		e := events.New(events.TaskEnded, s.Name, []string{detail})
		e.DurMS = float64(dur) / float64(time.Millisecond)
		sink(e)
	}
}

// Duration returns the span's wall-clock time (elapsed-so-far if the span
// is still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return s.rec.now().Sub(s.start)
	}
	return s.dur
}

// Add increments a named counter. Safe from any goroutine; no-op on a nil
// recorder. It also satisfies interp.Counters, the counter sink of the
// interpreter.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// MergeCounters folds a counter map — typically the Counters of a finished
// job's scoped recorder — into this recorder. The serving layer gives every
// job its own recorder (so a job's result carries only its own spans) and
// merges the counters into the process-wide recorder on completion, which
// is what /metrics reports; cross-job run-cache hits become visible there.
func (r *Recorder) MergeCounters(counters map[string]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for k, v := range counters {
		r.counters[k] += v
	}
	r.mu.Unlock()
}

// Counter returns the current value of one named counter.
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}
