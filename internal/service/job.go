// Package service is the PSA-flow-as-a-service layer: an HTTP/JSON job
// API over the flow engine. Clients submit MiniC source + workload + mode,
// jobs land in a bounded FIFO queue, and a fixed worker pool executes them
// against one process-wide profiled-run cache and telemetry recorder — the
// serving counterpart of the paper's batch meta-programs, amortizing
// analyses across many requests instead of one CLI invocation at a time.
package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/events"
	"psaflow/internal/experiments"
	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: Queued → Running → one of the terminal states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the client-submitted description of one flow run.
type JobSpec struct {
	// Bench names the workload (one of the five evaluation benchmarks);
	// it supplies the entry function, argument buffers, and eval scale.
	Bench string `json:"bench"`
	// Source optionally replaces the benchmark's bundled MiniC source. It
	// must define the benchmark's entry function. Empty = bundled source.
	Source string `json:"source,omitempty"`
	// Mode is "informed" (default) or "uninformed" (paper §IV-B).
	Mode string `json:"mode,omitempty"`
	// Flow runs a registered flow document instead of the built-in
	// PSA-flow: "name" (the latest version, pinned to "name@N" at submit
	// time) or "name@N" (one immutable version). See PUT /v1/flows/{name}
	// and docs/FLOWS.md. Empty runs the built-in flow (bundled paper.psa).
	Flow string `json:"flow,omitempty"`
	// Sharing enables the FPGA resource-sharing DSE variant.
	Sharing bool `json:"sharing,omitempty"`
	// AIThreshold / TransferBW override the PSA strategy's tunables
	// (0 keeps tasks.DefaultStrategy).
	AIThreshold float64 `json:"ai_threshold,omitempty"`
	TransferBW  float64 `json:"transfer_bw,omitempty"`
	// TimeoutMS bounds the job's run time once started (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Faults enables deterministic fault injection for this job's flow: a
	// spec in the faults.ParseSpec form ("seed=3,rate=0.1,kinds=hls,run").
	// Empty inherits the server default (Config.Faults); "off" disables
	// injection even when the server default enables it.
	Faults string `json:"faults,omitempty"`
	// RetryMaxAttempts / RetryBudget override the engine retry policy for
	// this job (0 keeps the server default; RetryBudget -1 = unlimited).
	RetryMaxAttempts int `json:"retry_max_attempts,omitempty"`
	RetryBudget      int `json:"retry_budget,omitempty"`
	// TaskTimeoutMS bounds each flow task attempt; a timed-out attempt is
	// classified transient and retried (0 = no per-task bound).
	TaskTimeoutMS int64 `json:"task_timeout_ms,omitempty"`
	// Tenant attributes the job for quota and fair-share scheduling
	// (1-32 of [a-z0-9-]; empty = the anonymous default tenant). In a
	// cluster the tenant also steers placement: one tenant's submissions
	// of the same program co-locate on one owning node.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders dequeue: 0 (default) through 9, higher first.
	// Within a priority band tenants share fairly by quota weight.
	Priority int `json:"priority,omitempty"`
}

// flowOptions resolves the spec to engine options.
func (sp *JobSpec) flowOptions() (tasks.FlowOptions, error) {
	mode, err := tasks.ParseMode(sp.Mode)
	if err != nil {
		return tasks.FlowOptions{}, fmt.Errorf("%v (want informed or uninformed)", err)
	}
	opts := tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy, ResourceSharing: sp.Sharing}
	if sp.AIThreshold > 0 {
		opts.Strategy.AIThreshold = sp.AIThreshold
	}
	if sp.TransferBW > 0 {
		opts.Strategy.TransferBW = sp.TransferBW
	}
	return opts, nil
}

// flowEnv resolves the run's settings, job spec > flow document > server
// default: see experiments.ResolveEnv.
func (sp *JobSpec) flowEnv(doc *flowlang.Compiled, def experiments.Settings) (experiments.JobEnv, error) {
	explicit := experiments.Settings{Faults: sp.Faults,
		Retry: faults.RetryPolicy{MaxAttempts: sp.RetryMaxAttempts, Budget: sp.RetryBudget}}
	env, err := experiments.ResolveEnv(explicit, doc, def)
	env.TaskTimeout = time.Duration(sp.TaskTimeoutMS) * time.Millisecond
	return env, err
}

// validate resolves and checks the spec, returning the benchmark and the
// checked program: the submitted source's, or the bundled one's when the
// spec has none, each looked up in programs before it is parsed. All
// validation happens at submit time so malformed requests 400 immediately
// instead of failing in a worker.
func (sp *JobSpec) validate(programs *programTable) (*bench.Benchmark, program, error) {
	b, err := sp.check()
	if err != nil {
		return nil, program{}, err
	}
	src := sp.Source
	if src == "" {
		src = b.Source
	}
	prog, err := programs.lookup(src)
	if err != nil {
		return nil, program{}, fmt.Errorf("source: %w", err)
	}
	if prog.ast.Func(b.Entry) == nil {
		return nil, program{}, fmt.Errorf("source does not define the %q workload entry %q", b.Name, b.Entry)
	}
	return b, prog, nil
}

// check validates every field of the spec but its source.
func (sp *JobSpec) check() (*bench.Benchmark, error) {
	b, err := bench.ByName(sp.Bench)
	if err != nil {
		return nil, err
	}
	if _, err := sp.flowOptions(); err != nil {
		return nil, err
	}
	if sp.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0")
	}
	if sp.Flow != "" {
		// Only the reference's shape: existence is a registry question the
		// server answers at submit (and again at run time after a replay).
		if _, _, err := parseFlowRef(sp.Flow); err != nil {
			return nil, fmt.Errorf("flow: %w", err)
		}
	}
	if _, err := faults.ParseSpec(sp.Faults); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	if sp.RetryMaxAttempts < 0 {
		return nil, fmt.Errorf("retry_max_attempts must be >= 0")
	}
	if sp.RetryBudget < -1 {
		return nil, fmt.Errorf("retry_budget must be >= -1 (-1 = unlimited)")
	}
	if sp.TaskTimeoutMS < 0 {
		return nil, fmt.Errorf("task_timeout_ms must be >= 0")
	}
	if !validTenant(sp.Tenant) {
		return nil, fmt.Errorf("tenant must be 1-32 of [a-z0-9-] (or empty)")
	}
	if sp.Priority < 0 || sp.Priority > 9 {
		return nil, fmt.Errorf("priority must be 0-9")
	}
	return b, nil
}

// Job is one queued/executing flow run. Mutable fields are guarded by mu;
// the immutable identity fields (ID, Spec, bench, submitted) are set
// before the job is shared.
//
// A finished job keeps what a late reader can still ask for — its status
// fields, its encoded result and its event ring — and nothing else: the
// terminal transition releases the parsed program and never stores the
// result struct or the telemetry report it was encoded from.
type Job struct {
	ID   string
	Spec JobSpec

	bench *bench.Benchmark
	// prog is the checked program (JobSpec.validate). The worker that runs
	// the job reads it, and the twin step its fingerprint under mu, before
	// the terminal transition drops it.
	prog      program
	submitted time.Time
	// events is the job's live stream broker, created by Server.enqueue
	// before the job is queued and closed when the job reaches a terminal
	// state (late subscribers still replay the retained ring).
	events *events.Broker

	mu       sync.Mutex
	state    JobState
	errMsg   string
	started  time.Time
	finished time.Time
	cancel   func() // cancels the running flow; nil unless running
	// result is the terminal JobResult, encoded once (compact JSON) by
	// terminate; nil while the job is live. The same bytes are the WAL
	// record's data and the body GET /result indents — never mutate them.
	result []byte
	// done is what GET /result waits on (waitResult): made by the first
	// waiter, closed and dropped by the terminal transition.
	done chan struct{}
}

// JobStatus is the GET /v1/jobs/{id} view.
type JobStatus struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	Bench       string   `json:"bench"`
	Mode        string   `json:"mode,omitempty"`
	Tenant      string   `json:"tenant,omitempty"`
	Priority    int      `json:"priority,omitempty"`
	Error       string   `json:"error,omitempty"`
	SubmittedAt string   `json:"submitted_at"`
	StartedAt   string   `json:"started_at,omitempty"`
	FinishedAt  string   `json:"finished_at,omitempty"`
	QueueWaitMS float64  `json:"queue_wait_ms,omitempty"`
	RunMS       float64  `json:"run_ms,omitempty"`
}

// DesignSummary is one generated design in a job result: the same
// quantities the CLI prints and Table I measures, JSON-shaped.
type DesignSummary struct {
	Label      string   `json:"label"`
	Target     string   `json:"target"`
	Device     string   `json:"device,omitempty"`
	Infeasible string   `json:"infeasible,omitempty"`
	Speedup    float64  `json:"speedup,omitempty"`
	KernelS    float64  `json:"kernel_s,omitempty"`
	TransferS  float64  `json:"transfer_s,omitempty"`
	OverheadS  float64  `json:"overhead_s,omitempty"`
	Note       string   `json:"note,omitempty"`
	NumThreads int      `json:"num_threads,omitempty"`
	Blocksize  int      `json:"blocksize,omitempty"`
	Unroll     int      `json:"unroll,omitempty"`
	Pinned     bool     `json:"pinned,omitempty"`
	ZeroCopy   bool     `json:"zero_copy,omitempty"`
	LOC        int      `json:"loc,omitempty"`
	AddedLOC   int      `json:"added_loc,omitempty"`
	RefLOC     int      `json:"ref_loc,omitempty"`
	Trace      []string `json:"trace,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result payload, persisted as the
// job's terminal WAL record (store.OpResult / OpCancel) on completion.
type JobResult struct {
	JobStatus
	// AutoTarget is the target class of the best feasible design — the
	// branch the flow effectively selected (Fig. 5's "Auto-Selected").
	AutoTarget string          `json:"auto_target,omitempty"`
	Designs    []DesignSummary `json:"designs,omitempty"`
	// FailureClass classifies a terminal failure for operators and retry
	// logic: "fault" (a substrate fault exhausted the flow's recovery),
	// "timeout" (job deadline), "cancelled", "panic", or "error". Empty
	// for jobs that finished successfully.
	FailureClass string `json:"failure_class,omitempty"`
	// DegradedDesigns counts branch paths that failed and were scored
	// infeasible instead of aborting the flow (the job-scoped
	// fault.degradations counter) — nonzero means the result is valid but
	// was produced with fewer live substrates than requested.
	DegradedDesigns int64 `json:"degraded_designs,omitempty"`
	// Batched marks a job whose result is one flow run shared by a group of
	// identical jobs (same program fingerprint, same spec but for source):
	// the run's own job and the twins still queued when it ended. BatchSize
	// is the group size and BatchLeader the job whose flow ran (it carries
	// its own ID).
	Batched     bool   `json:"batched,omitempty"`
	BatchSize   int    `json:"batch_size,omitempty"`
	BatchLeader string `json:"batch_leader,omitempty"`
	// Telemetry carries the job-scoped recorder's spans and counters.
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Status snapshots the job's lifecycle view.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Bench:       j.Spec.Bench,
		Mode:        j.Spec.Mode,
		Tenant:      j.Spec.Tenant,
		Priority:    j.Spec.Priority,
		Error:       j.errMsg,
		SubmittedAt: fmtTime(j.submitted),
		StartedAt:   fmtTime(j.started),
		FinishedAt:  fmtTime(j.finished),
	}
	if !j.started.IsZero() {
		st.QueueWaitMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the encoded terminal result (a compact-JSON JobResult),
// or nil while the job is live. The bytes are shared; do not mutate them.
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// waitResult is Result for a reader that would otherwise ask again: while
// the job is live it waits up to hold for the terminal transition, so a
// polling client is handed the result the moment it exists. nil still
// means live.
func (j *Job) waitResult(hold time.Duration) []byte {
	j.mu.Lock()
	if j.result == nil && j.done == nil {
		j.done = make(chan struct{})
	}
	doc, done := j.result, j.done
	j.mu.Unlock()
	if doc != nil {
		return doc
	}
	t := time.NewTimer(hold)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
	return j.Result()
}

// fingerprint is the job's program fingerprint: a kept program's is known,
// any other's is taken on first use. A run asks before terminate drops its
// program, a queued job while it is queued; a terminal job reads as 0.
func (j *Job) fingerprint() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.prog.ast == nil {
		return 0
	}
	return j.prog.fingerprint()
}

// markRunning transitions Queued → Running and returns the job's queue
// wait; false means the job is no longer queued (cancelled) and must not
// run. Called by Server.start alone.
func (j *Job) markRunning(cancel func()) (queueWaitMS float64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return 0, false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return float64(j.started.Sub(j.submitted)) / float64(time.Millisecond), true
}

// cancelRunning invokes the running flow's cancel function; false if the
// job is not running.
func (j *Job) cancelRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.cancel == nil {
		return false
	}
	j.cancel()
	return true
}

// terminate is the job's half of Server.complete, its only caller: state,
// error, finish time and result become visible in the same critical
// section, so a client that observes a terminal state can always read the
// result. onlyQueued makes it a no-op (ok=false) unless the job is still
// queued — a cancel that lost the race with a worker. The result is built
// and encoded here, once, and only the bytes are kept; the parsed program
// and the cancel closure go in the same step.
func (j *Job) terminate(out *outcome, onlyQueued bool) (st JobStatus, doc []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if onlyQueued && j.state != StateQueued {
		return st, nil, false
	}
	j.state = out.state
	j.errMsg = out.msg
	j.finished = time.Now()
	st = j.statusLocked()
	doc, err := json.Marshal(buildResult(st, out))
	if err != nil {
		// A design carrying a NaN or an infinity has no JSON encoding. The
		// job still needs a readable terminal document, so it fails with
		// the reason, which always encodes.
		j.state, j.errMsg = StateFailed, "encode result: "+err.Error()
		st = j.statusLocked()
		doc, _ = json.Marshal(&JobResult{JobStatus: st, FailureClass: FailureError})
	}
	j.result = doc
	j.prog, j.cancel = program{}, nil
	if j.done != nil {
		close(j.done)
		j.done = nil
	}
	return st, doc, true
}

// buildResult assembles the persisted result from a terminal outcome: the
// evaluated designs, the job-scoped telemetry and, for a job that rode a
// batch, the batch fields.
func buildResult(st JobStatus, o *outcome) *JobResult {
	out := &JobResult{JobStatus: st, FailureClass: o.class, Telemetry: o.rep}
	if o.rep != nil {
		out.DegradedDesigns = o.rep.Counters[telemetry.CounterFaultDegradations]
	}
	if o.batchSize > 0 {
		out.Batched, out.BatchSize, out.BatchLeader = true, o.batchSize, o.batchLeader
	}
	bestSpeedup := 0.0
	for _, r := range o.results {
		d := r.Design
		ds := DesignSummary{
			Label:      d.Label(),
			Target:     d.TargetName(),
			Device:     d.Device,
			Infeasible: d.Infeasible,
			NumThreads: d.NumThreads,
			Blocksize:  d.Blocksize,
			Unroll:     d.UnrollFactor,
			Pinned:     d.Pinned,
			ZeroCopy:   d.ZeroCopy,
			RefLOC:     d.RefLOC,
		}
		if !r.Infeasible {
			ds.Speedup = r.Speedup
			ds.KernelS = r.Breakdown.KernelTime
			ds.TransferS = r.Breakdown.TransferTime
			ds.OverheadS = r.Breakdown.Overhead
			ds.Note = r.Breakdown.Note
			if r.Speedup > bestSpeedup {
				bestSpeedup = r.Speedup
				out.AutoTarget = d.Target.String()
			}
		}
		if d.Artifact != nil {
			ds.LOC = d.Artifact.LOC
			ds.AddedLOC = d.Artifact.AddedLOC
		}
		if len(d.Trace) > 0 {
			ds.Trace = make([]string, len(d.Trace))
			for i, ev := range d.Trace {
				ds.Trace[i] = ev.String()
			}
		}
		out.Designs = append(out.Designs, ds)
	}
	return out
}
