package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"psaflow/internal/cluster"
	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/experiments"
	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the worker-pool size (the only goroutines that execute
	// flows; submissions beyond it wait in the queue). Default 4.
	Workers int
	// QueueSize bounds the FIFO job queue; a full queue rejects new
	// submissions with 429 (backpressure). Default 64.
	QueueSize int
	// MaxBody bounds the POST /v1/jobs request body in bytes; oversized
	// submissions get 413. Default 1 MiB.
	MaxBody int64
	// DataDir roots the durable job store (DataDir/store, a write-ahead
	// log replayed on start — see internal/store) and the flow registry
	// (DataDir/flows). Empty disables persistence (tests, ephemeral runs).
	DataDir string
	// StoreRetain caps terminal job records kept in the durable store;
	// beyond it the oldest are tombstoned and reclaimed by compaction.
	// 0 = unlimited.
	StoreRetain int
	// DefaultTimeout bounds a job's run time when the spec does not set
	// timeout_ms; 0 means unbounded.
	DefaultTimeout time.Duration
	// Faults is the default fault-injection spec applied to jobs that do
	// not carry their own ("" or "off" disables; see faults.ParseSpec).
	// Specs with kinds=io also inject transient failures into the daemon's
	// own persistence writes, which are retried with the Retry policy.
	Faults string
	// Retry is the default retry policy for job flows and persistence
	// writes; zero fields take faults.DefaultRetry.
	Retry faults.RetryPolicy
	// EventRingSize bounds each job's in-memory event ring (the replay
	// window of GET /v1/jobs/{id}/events); watchers further behind lose
	// events with drop accounting. Default 1024.
	EventRingSize int
	// MaxWatchersPerJob caps concurrent event-stream subscribers on one
	// job; subscriptions beyond it get 429. Default 1024.
	MaxWatchersPerJob int
	// EventHeartbeat is the keep-alive cadence on idle event streams (a
	// blank NDJSON line / SSE comment, so proxies don't kill the
	// connection). Default 10s.
	EventHeartbeat time.Duration
	// Batch groups queued jobs that would execute the identical flow
	// (same benchmark, program fingerprint, and result-affecting spec
	// fields) behind one leader execution; followers receive copies of
	// the leader's result (see batch.go). Off by default: batching is
	// semantically transparent for results — the flow is deterministic —
	// but follower cancellation becomes best-effort.
	Batch bool
	// RetainJobs caps terminal jobs kept in the in-memory registry; the
	// oldest are evicted (with their event rings) beyond it. Status and
	// result lookups for evicted jobs fall back to the persisted result
	// when DataDir is set. Default 1024; negative disables eviction.
	RetainJobs int
	// TenantQuotas configures per-tenant scheduling: comma-separated
	// "tenant=maxInflight[:weight]" entries, "*" naming the default for
	// unlisted tenants (see queue.go). Empty = no caps, equal weights.
	TenantQuotas string
	// Cluster is this node's peer layer (nil = single-node daemon). When
	// set, the server mints node-prefixed job IDs, routes submissions to
	// their ring owner, proxies requests for jobs owned elsewhere, and
	// reads the process-wide caches through the cluster (cluster.go).
	Cluster *cluster.Node
	// Logf receives daemon progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// defaultRetainJobs is the terminal-job registry cap when Config.RetainJobs
// is zero.
const defaultRetainJobs = 1024

// Server is the psaflowd core: job registry, bounded queue, worker pool,
// and the HTTP API. One process-wide RunCache and telemetry recorder are
// shared by all jobs, so identical programs submitted by different clients
// execute once and every later job hits the cache.
type Server struct {
	cfg Config
	mux *http.ServeMux

	rec  *telemetry.Recorder // process-wide service recorder (/metrics)
	runs *core.RunCache      // process-wide profiled-run cache

	// ioFaults injects transient failures into persistence writes when
	// Config.Faults includes the io kind (nil otherwise). Long-lived on
	// purpose: daemon-level I/O blips are a property of the deployment,
	// not of one job, so the occurrence counter spans the process.
	ioFaults *faults.Injector
	retry    faults.RetryPolicy // resolved Config.Retry (WithDefaults applied)

	// store is the WAL-backed durability layer (nil when DataDir is
	// empty): submits are acked only after their record is fsynced here,
	// and startup replay requeues whatever a crash left unfinished.
	store *store.Store
	// flowReg is the versioned flow registry (flows.go), WAL-backed at
	// DataDir/flows when persistence is on.
	flowReg *flowRegistry
	// storeStatsMu guards lastStoreStats, the high-water mark used to
	// mirror the store's cumulative stats into the recorder as deltas.
	storeStatsMu   sync.Mutex
	lastStoreStats store.Stats

	mu   sync.Mutex // guards jobs, retired, queue close, leftovers, pendingBatch
	jobs map[string]*Job
	// pendingBatch indexes still-queued jobs by batch key so a batch
	// leader can claim identical jobs in one sweep (see batch.go). Only
	// populated when Config.Batch is set.
	pendingBatch map[string][]*Job
	retired      []string // terminal job IDs, oldest first, for registry eviction
	queue        *jobQueue
	draining     atomic.Bool
	drained      bool
	leftover     []*Job // queued jobs collected during drain, for the snapshot

	wg     sync.WaitGroup
	nextID atomic.Int64
	idBase string

	// runFlow executes one job's flow; tests substitute a controllable
	// implementation. The default runs the real PSA-flow.
	runFlow func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error)
}

// New builds a Server (call Start to spawn the workers).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	quotas, qerr := parseTenantQuotas(cfg.TenantQuotas)
	if qerr != nil {
		// Same belt-and-braces stance as the fault spec below: the CLI
		// validates -tenant-quota before it reaches here.
		quotas = nil
		if cfg.Logf != nil {
			cfg.Logf("ignoring invalid tenant quotas %q: %v", cfg.TenantQuotas, qerr)
		}
	}
	idBase := fmt.Sprintf("j%08x", uint32(time.Now().UnixNano()))
	if cfg.Cluster != nil {
		// Node-prefixed job IDs are the cluster's routing table: any node
		// maps an unknown ID back to its owner by prefix alone.
		idBase = cfg.Cluster.Self() + "-" + idBase
	}
	s := &Server{
		cfg:          cfg,
		rec:          telemetry.New(),
		runs:         core.NewRunCache(),
		jobs:         make(map[string]*Job),
		pendingBatch: make(map[string][]*Job),
		queue:        newJobQueue(cfg.QueueSize, quotas),
		idBase:       idBase,
		retry:        cfg.Retry.WithDefaults(),
		flowReg:      &flowRegistry{flows: make(map[string][]FlowInfo)},
	}
	if c := cfg.Cluster; c != nil {
		c.SetCounters(s.rec)
		c.SetLoadFunc(s.queue.Load)
		s.runs.SetPeer(c)
	}
	ioInj, err := faults.ParseSpec(cfg.Faults)
	if err != nil {
		// An unparseable default spec would otherwise fail every job at
		// run time; drop it loudly instead (the CLI validates its -faults
		// flag before it reaches here, so this is belt-and-braces).
		s.cfg.Faults = ""
		if cfg.Logf != nil {
			cfg.Logf("ignoring invalid default fault spec %q: %v", cfg.Faults, err)
		}
	} else {
		s.ioFaults = ioInj
	}
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		opts, err := job.Spec.flowOptions()
		if err != nil {
			return nil, err
		}
		// A flow-registry job compiles its registered document with the
		// job's own mode and sharing options. The reference was pinned to a
		// concrete version at submit time, so the lookup only fails when
		// the registry history itself is gone (e.g. a job WAL restored
		// without its flows WAL).
		var compiled *flowlang.Compiled
		if job.Spec.Flow != "" {
			info, _, err := s.resolveFlowRef(job.Spec.Flow)
			if err != nil {
				return nil, err
			}
			c, err := flowlang.CompileSource(info.Source, flowlang.Options{
				Mode: opts.Mode, Sharing: opts.ResourceSharing, Strategy: opts.Strategy,
			})
			if err != nil {
				return nil, fmt.Errorf("flow %s@%d: %w", info.Name, info.Version, err)
			}
			rec.Add(telemetry.CounterFlowCompiles, 1)
			compiled = c
		}
		// Resilience precedence: job spec > flow document > server default.
		// flowEnv layers the spec's overrides on whatever defaults it gets,
		// so substituting the document's settings as the defaults gives the
		// middle tier.
		defaultFaults, defaultRetry := s.cfg.Faults, s.retry
		if compiled != nil {
			if compiled.Faults != "" {
				defaultFaults = compiled.Faults
			}
			if compiled.HasRetry {
				defaultRetry = compiled.Retry.WithDefaults()
			}
		}
		env, err := job.Spec.flowEnv(defaultFaults, defaultRetry)
		if err != nil {
			return nil, err
		}
		if compiled != nil {
			env.Flow = compiled.Flow
			env.Budget = compiled.Budget
			if env.Budget > 0 {
				env.Cost = experiments.DefaultCost
			}
		}
		return experiments.RunBenchmarkEnv(ctx, job.bench, job.prog, opts, env, nil, rec, s.runs)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("PUT /v1/flows/{name}", s.handleFlowPut)
	s.mux.HandleFunc("GET /v1/flows/{name}", s.handleFlowGet)
	s.mux.HandleFunc("GET /v1/flows", s.handleFlowList)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Cluster != nil {
		cfg.Cluster.Register(s.mux)
	}
	return s
}

// Handler exposes the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Recorder exposes the process-wide service recorder (daemon logging).
func (s *Server) Recorder() *telemetry.Recorder { return s.rec }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start opens the durable job store, replays it — requeueing every job
// that was queued or running when the previous process stopped — and
// spawns the worker pool.
func (s *Server) Start() error {
	if err := s.openStore(); err != nil {
		return err
	}
	// Flow history first: crash-recovered jobs may reference registered
	// flows, and their run-time resolution needs the replayed registry.
	if err := s.openFlowRegistry(); err != nil {
		return err
	}
	requeued, err := s.replayStore()
	if err != nil {
		return err
	}
	if requeued > 0 {
		s.logf("requeued %d job(s) from the durable store", requeued)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if c := s.cfg.Cluster; c != nil {
		c.Start()
	}
	return nil
}

// Drain stops the queue for good: no new submissions are accepted, workers
// finish their in-flight jobs, and jobs still queued simply stay in the
// durable store (their submit records were never superseded), to be
// requeued by the next start. A WAL shutdown record distinguishes this
// from a crash. Returns the number of jobs left in the store. Call after
// the HTTP listener has shut down.
func (s *Server) Drain() (int, error) {
	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		return 0, nil
	}
	s.drained = true
	s.draining.Store(true)
	s.queue.Close()
	s.mu.Unlock()

	if c := s.cfg.Cluster; c != nil {
		c.Stop()
	}
	s.wg.Wait()

	s.mu.Lock()
	leftover := s.leftover
	s.leftover = nil
	s.mu.Unlock()
	// Leftover jobs will resume in another process; end their event
	// streams here so attached watchers see the stream close, not a hang.
	for _, job := range leftover {
		job.events.Close()
	}
	if err := s.logShutdown(); err != nil {
		return 0, err
	}
	s.syncStoreCounters()
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			return 0, err
		}
	}
	if err := s.closeFlowRegistry(); err != nil {
		return 0, err
	}
	return len(leftover), nil
}

// worker executes queued jobs until the queue closes. During a drain it
// routes still-queued jobs to the snapshot instead of running them.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.rec.Add(telemetry.CounterQueueDepth, -1)
		if s.draining.Load() {
			if job.State() == StateQueued {
				s.mu.Lock()
				s.leftover = append(s.leftover, job)
				s.mu.Unlock()
			}
			s.queue.Release(job.Spec.Tenant)
			continue
		}
		s.runJob(job)
		s.queue.Release(job.Spec.Tenant)
	}
}

// runJob executes one job's flow with its own cancellable context and a
// job-scoped telemetry recorder, then persists the result and folds the
// job's counters into the process-wide recorder.
func (s *Server) runJob(job *Job) {
	jctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timeout := time.Duration(job.Spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(jctx, timeout)
		defer cancel()
	}
	if !job.markRunning(cancel) {
		// Cancelled while queued, or claimed as a batch follower: the
		// cancel handler (or the batch leader) records the terminal state
		// and counter; nothing to run.
		return
	}
	// With batching on, this job leads every still-queued identical job:
	// the flow below runs once and finishFollowers fans the result out.
	followers := s.claimFollowers(job)
	st := job.Status()
	s.rec.Add(telemetry.CounterJobsStarted, 1)
	s.rec.Add(telemetry.CounterQueueWaitMillis, int64(st.QueueWaitMS))
	s.publish(job, events.Event{Type: events.TypeStarted, Name: job.Spec.Bench,
		Detail: fmt.Sprintf("waited %.0fms in queue", st.QueueWaitMS)})
	s.logf("job %s: start bench=%s mode=%s (waited %.0fms)", job.ID, job.Spec.Bench, job.Spec.Mode, st.QueueWaitMS)

	rec := telemetry.New()
	rec.SetEventSink(&jobSink{s: s, job: job})
	results, err := s.runFlowSafe(jctx, job, rec)
	rep := rec.Snapshot()
	s.rec.MergeCounters(rep.Counters)

	state, msg, class := StateDone, "", ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, msg, class = StateCancelled, err.Error(), FailureCancelled
	case errors.Is(err, context.DeadlineExceeded):
		state, msg, class = StateFailed, err.Error(), FailureTimeout
	case errors.Is(err, errFlowPanic):
		state, msg, class = StateFailed, err.Error(), FailurePanic
	case faults.AsFault(err) != nil:
		state, msg, class = StateFailed, err.Error(), FailureFault
	default:
		state, msg, class = StateFailed, err.Error(), FailureError
	}
	job.finish(state, msg, func(st JobStatus) *JobResult {
		res := buildResult(st, class, results, rep)
		if len(followers) > 0 {
			res.Batched = true
			res.BatchSize = len(followers) + 1
			res.BatchLeader = job.ID
		}
		return res
	})
	s.finalizeJob(job, store.OpResult)
	s.finishFollowers(job, followers, &batchOutcome{
		state: state, msg: msg, class: class,
		results: results, rep: rep,
	})
}

// Failure classes reported in JobResult.FailureClass.
const (
	FailureFault     = "fault"     // a substrate fault exhausted the flow's recovery
	FailureTimeout   = "timeout"   // the job-level deadline fired
	FailureCancelled = "cancelled" // the client cancelled a running job
	FailurePanic     = "panic"     // the flow panicked and was contained
	FailureError     = "error"     // any other flow error
)

// errFlowPanic tags contained panics so runJob can classify them.
var errFlowPanic = errors.New("flow panicked")

// runFlowSafe converts a panicking flow (untrusted source can reach
// library corners) into a failed job instead of a dead daemon.
func (s *Server) runFlowSafe(ctx context.Context, job *Job, rec *telemetry.Recorder) (results []experiments.DesignResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errFlowPanic, r)
		}
	}()
	return s.runFlow(ctx, job, rec)
}

// finalizeJob records the terminal counter, closes the event stream,
// persists the result as the job's terminal record (op), and enrolls the
// job for registry eviction.
func (s *Server) finalizeJob(job *Job, op store.Op) {
	st := job.Status()
	switch st.State {
	case StateDone:
		s.rec.Add(telemetry.CounterJobsCompleted, 1)
	case StateCancelled:
		s.rec.Add(telemetry.CounterJobsCancelled, 1)
	default:
		s.rec.Add(telemetry.CounterJobsFailed, 1)
	}
	s.publish(job, events.Event{Type: string(st.State), Detail: st.Error, DurMS: st.RunMS})
	job.events.Close()
	if err := s.saveTerminal(op, job); err != nil {
		s.logf("job %s: persist %s: %v", job.ID, op, err)
	}
	s.retireJob(job)
	s.logf("job %s: %s (run %.0fms) %s", job.ID, st.State, st.RunMS, st.Error)
}

// lookup finds a live job by ID.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// register inserts a new job and tries to enqueue it. The queue's own
// closed flag (set by Drain) backs up the draining check here, so a
// submission can never land in a closed queue.
func (s *Server) register(job *Job) (ok bool, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false, true
	}
	// The broker must exist — with the queued event already in its ring —
	// before the push: a worker can dequeue the job and publish "started"
	// the instant the push completes. (If the push then fails, the
	// unregistered broker is simply garbage.)
	job.events = events.NewBroker(job.ID, s.cfg.EventRingSize, s.cfg.MaxWatchersPerJob)
	job.events.Publish(events.Event{Type: events.TypeQueued, Name: job.Spec.Bench, Detail: job.Spec.Mode})
	pushed, closed := s.queue.Push(job)
	if closed {
		return false, true
	}
	if !pushed {
		return false, false
	}
	s.jobs[job.ID] = job
	s.enrollBatch(job)
	s.rec.Add(telemetry.CounterQueueDepth, 1)
	s.rec.Add(telemetry.CounterJobsSubmitted, 1)
	s.rec.Add(telemetry.CounterEventsPublished, 1)
	return true, false
}

// publish appends one event to the job's stream and counts it.
func (s *Server) publish(job *Job, e events.Event) {
	if job.events.Publish(e) {
		s.rec.Add(telemetry.CounterEventsPublished, 1)
	}
}

// retireJob enrolls a terminal job in the eviction FIFO and evicts the
// oldest terminal jobs beyond the retention cap — the registry (and the
// event rings it pins) stays bounded on a long-lived daemon. Evicted
// jobs' status/result lookups fall back to the persisted result.
func (s *Server) retireJob(job *Job) {
	if s.cfg.RetainJobs < 0 {
		return
	}
	retain := s.cfg.RetainJobs
	if retain == 0 {
		retain = defaultRetainJobs
	}
	var evicted []string
	s.mu.Lock()
	s.retired = append(s.retired, job.ID)
	for len(s.retired) > retain {
		id := s.retired[0]
		s.retired = s.retired[1:]
		if j := s.jobs[id]; j != nil {
			j.events.Close() // idempotent; tears the ring down with the entry
			delete(s.jobs, id)
			evicted = append(evicted, id)
		}
	}
	s.mu.Unlock()
	if len(evicted) > 0 {
		s.rec.Add(telemetry.CounterJobsEvicted, int64(len(evicted)))
		s.logf("evicted %d terminal job(s) from the registry (retain=%d)", len(evicted), retain)
	}
}

func (s *Server) newID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.nextID.Add(1))
}

// --- HTTP handlers ---

// defaultMaxBody caps the submit request body when Config.MaxBody is zero
// (untrusted MiniC source should never approach a mebibyte).
const defaultMaxBody = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeResult serves an encoded result document — a finished job's bytes
// or the store's copy of them — in the layout writeJSON gives a struct:
// the one compact encoding, indented, never decoded on the way.
func writeResult(w http.ResponseWriter, doc []byte) {
	var body bytes.Buffer
	body.Grow(2 * len(doc)) // indentation adds about half again
	if err := json.Indent(&body, doc, "", "  "); err != nil {
		writeErr(w, http.StatusInternalServerError, "stored result is not valid JSON: %v", err)
		return
	}
	body.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body.Bytes()) // a client that went away is not an error to report
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	maxBody := s.cfg.MaxBody
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	// Token-streaming decode: fields are parsed as their bytes arrive, so a
	// chunked submission starts decoding on its first chunk and the body is
	// never buffered whole. Unknown fields still 400 by name.
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.rec.Add(telemetry.CounterJobsRejected, 1)
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	b, prog, err := spec.validate()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}
	// Pin a flow reference to its concrete version before anything is
	// persisted: the submit record then names an immutable document, so a
	// crash replay — or a version registered a millisecond later — can
	// never change which graph this job runs.
	if spec.Flow != "" {
		_, pinned, err := s.resolveFlowRef(spec.Flow)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid job: %v", err)
			return
		}
		spec.Flow = pinned
	}
	fp := programFingerprint(b, prog)
	// Cluster placement: route the job to its ring owner unless this
	// request is already a forward (one hop maximum — a stale ring can
	// never orbit a job). A failed forward runs the job locally instead:
	// peer loss degrades placement, it never fails a submission.
	if c := s.cfg.Cluster; c != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		if owner := c.OwnerForJob(spec.Tenant, fp); owner != c.Self() {
			s.logf("cluster: routing job (tenant=%q bench=%s) to owner %s", spec.Tenant, spec.Bench, owner)
			if s.forwardSubmit(w, r.Context(), owner, spec) {
				return
			}
		}
	}
	job := &Job{
		ID:        s.newID(),
		Spec:      spec,
		bench:     b,
		prog:      prog,
		fp:        fp,
		submitted: time.Now(),
		state:     StateQueued,
	}
	job.batchKey = batchKey(job)
	// WAL first, ack second: once the 202 leaves, the job must survive a
	// crash, so the submit record is fsynced before registration. If the
	// registration then fails, the record is rolled back with a tombstone
	// (and even an unrolled-back record is safe — see applyLocked's
	// terminal-entry guard and the client's instruction to retry).
	if err := s.logSubmit(job); err != nil {
		s.logf("job %s: persist submit: %v", job.ID, err)
		writeErr(w, http.StatusServiceUnavailable, "could not persist job submission; retry later")
		return
	}
	// Snapshot before register: an idle worker can start (even finish) the
	// job before the 202 is written, and the acknowledgement is of the
	// submission, so it always reads "queued".
	accepted := job.Status()
	ok, draining := s.register(job)
	if draining {
		s.rollbackSubmit(job.ID)
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !ok {
		s.rollbackSubmit(job.ID)
		s.rec.Add(telemetry.CounterJobsRejected, 1)
		writeErr(w, http.StatusTooManyRequests, "job queue is full (%d queued); retry later", s.cfg.QueueSize)
		return
	}
	s.logf("job %s: queued bench=%s mode=%s", job.ID, spec.Bench, spec.Mode)
	writeJSON(w, http.StatusAccepted, accepted)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if job := s.lookup(id); job != nil {
		writeJSON(w, http.StatusOK, job.Status())
		return
	}
	// Evicted from the registry, or finished under a previous daemon run:
	// the stored result document embeds the terminal status.
	if doc, ok := s.storedResult(id); ok {
		var st JobStatus
		if err := json.Unmarshal(doc, &st); err == nil {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	if s.proxyToOwner(w, r, id) {
		return
	}
	writeErr(w, http.StatusNotFound, "unknown job %q", id)
}

// resultHold is how long GET /result waits for a live job to finish before
// it answers 409. A client that polls for completion is answered the moment
// the result exists, not told "not yet" some fifty times per 100 ms job, so
// what a job costs the daemon no longer follows how fast its client asks. A
// second is above every bundled job and well under the peer and shutdown
// timeouts a held request has to fit in.
const resultHold = time.Second

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if job := s.lookup(id); job != nil {
		if doc := job.waitResult(resultHold); doc != nil {
			writeResult(w, doc)
			return
		}
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "job has not finished", "state": job.State(),
		})
		return
	}
	if doc, ok := s.storedResult(id); ok {
		writeResult(w, doc)
		return
	}
	if s.proxyToOwner(w, r, id) {
		return
	}
	writeErr(w, http.StatusNotFound, "unknown job %q", id)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job := s.lookup(id)
	if job == nil {
		if s.proxyToOwner(w, r, id) {
			return
		}
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	cancelled := job.cancelQueued(func(st JobStatus) *JobResult {
		return buildResult(st, FailureCancelled, nil, nil)
	})
	if cancelled {
		// The worker will skip it when dequeued; the terminal state and
		// counter are recorded here so the cancel is immediately visible,
		// and the store gets a cancel record so a restart doesn't requeue
		// the job its client already killed.
		s.finalizeJob(job, store.OpCancel)
		writeJSON(w, http.StatusOK, job.Status())
		return
	}
	if job.cancelRunning() {
		s.logf("job %s: cancellation requested", id)
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	writeJSON(w, http.StatusConflict, map[string]any{
		"error": "job already finished", "state": job.State(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":      status,
		"workers":     s.cfg.Workers,
		"queue_depth": s.rec.Counter(telemetry.CounterQueueDepth),
		"queue_cap":   s.cfg.QueueSize,
	}
	if c := s.cfg.Cluster; c != nil {
		body["node"] = c.Self()
		body["ring"] = c.Nodes()
		body["peers"] = c.PeerView()
		body["cluster_peers_healthy"] = c.HealthyCount()
	}
	writeJSON(w, code, body)
}

// metricsResponse is the GET /metrics payload: live service gauges plus
// the process-wide telemetry report (merged per-job counters; cross-job
// run-cache hits show up under counters["runcache.hits"]).
type metricsResponse struct {
	Service   serviceMetrics    `json:"service"`
	Telemetry *telemetry.Report `json:"telemetry"`
}

type serviceMetrics struct {
	Workers       int            `json:"workers"`
	QueueDepth    int64          `json:"queue_depth"`
	QueueCap      int            `json:"queue_cap"`
	JobsByState   map[string]int `json:"jobs_by_state"`
	JobsStarted   int64          `json:"jobs_started"`
	JobsEvicted   int64          `json:"jobs_evicted"`
	RunCacheHits  int64          `json:"runcache_hits"`
	RunCacheMiss  int64          `json:"runcache_misses"`
	RunCacheSize  int            `json:"runcache_entries"`
	BatchGroups   int64          `json:"batch_groups"`
	BatchJobs     int64          `json:"batch_jobs"`
	QueueWaitMSav float64        `json:"queue_wait_ms_avg"`
	// FlowsRegistered counts flow-registry names (gauge); the cumulative
	// registry traffic is in the telemetry counters (flowlang.registry.*).
	FlowsRegistered int `json:"flows_registered"`
	// Live event-stream counters: events published across all job rings,
	// events lost to ring eviction past slow watchers, and the current
	// number of attached watchers (gauge).
	EventsPublished int64 `json:"events_published"`
	EventsDropped   int64 `json:"events_dropped"`
	EventWatchers   int64 `json:"event_watchers"`
	// Headline resilience counters, folded in from every finished job's
	// recorder plus the daemon's own persistence retries. The per-kind
	// split lives in the telemetry report (fault.injected.<kind>).
	FaultsInjected int64 `json:"faults_injected"`
	RetryAttempts  int64 `json:"retry_attempts"`
	Degradations   int64 `json:"fault_degradations"`
	Fallbacks      int64 `json:"fault_fallbacks"`
	// Store mirrors the durable job store's counters and gauges; nil when
	// persistence is disabled (no -data-dir).
	Store *storeMetrics `json:"store,omitempty"`
	// Tenants is the fair-share scheduler's per-tenant view (queued,
	// in-flight, quota); empty when no tenant has jobs.
	Tenants []tenantView `json:"tenants,omitempty"`
	// Cluster is the peer-layer view; nil on a single-node daemon. The
	// cumulative cluster.* counters live in the telemetry report.
	Cluster *clusterMetrics `json:"cluster,omitempty"`
}

// storeMetrics is the /metrics view of the WAL-backed job store: the
// store's own stats plus the one number only the service knows.
type storeMetrics struct {
	store.Stats
	Requeued int64 `json:"requeued"` // jobs re-enqueued by the start-up replay
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byState := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[string(j.State())]++
	}
	s.mu.Unlock()
	// Fold the latest store deltas into the recorder before snapshotting
	// so the telemetry counters and the service.store block agree.
	s.syncStoreCounters()
	var storeM *storeMetrics
	if s.store != nil {
		storeM = &storeMetrics{Stats: s.store.Stats(), Requeued: s.rec.Counter(telemetry.CounterStoreRequeued)}
	}
	var clusterM *clusterMetrics
	if c := s.cfg.Cluster; c != nil {
		clusterM = &clusterMetrics{
			Stats:            c.Stats(),
			RunCachePeerHits: s.runs.PeerHits(),
			JobsForwarded:    s.rec.Counter(telemetry.CounterClusterForwarded),
			JobsProxied:      s.rec.Counter(telemetry.CounterClusterProxied),
			ForwardFailed:    s.rec.Counter(telemetry.CounterClusterForwardFailed),
			LocalFallbacks:   s.rec.Counter(telemetry.CounterClusterForwardedLocal),
		}
	}
	hits, misses := s.runs.Stats()
	rep := s.rec.Snapshot()
	// Average over the jobs whose wait was actually recorded (every job a
	// worker started), not the terminal-state counts: a running job that
	// is later cancelled contributed to the numerator the moment it
	// started, and dividing by completed+failed would skew the average.
	started := rep.Counters[telemetry.CounterJobsStarted]
	waitAvg := 0.0
	if started > 0 {
		waitAvg = float64(rep.Counters[telemetry.CounterQueueWaitMillis]) / float64(started)
	}
	writeJSON(w, http.StatusOK, metricsResponse{
		Service: serviceMetrics{
			Workers:         s.cfg.Workers,
			QueueDepth:      rep.Counters[telemetry.CounterQueueDepth],
			QueueCap:        s.cfg.QueueSize,
			JobsByState:     byState,
			JobsStarted:     started,
			JobsEvicted:     rep.Counters[telemetry.CounterJobsEvicted],
			RunCacheHits:    hits,
			RunCacheMiss:    misses,
			RunCacheSize:    s.runs.Len(),
			BatchGroups:     rep.Counters[telemetry.CounterBatchGroups],
			BatchJobs:       rep.Counters[telemetry.CounterBatchJobs],
			QueueWaitMSav:   waitAvg,
			FlowsRegistered: len(s.listFlows()),

			EventsPublished: rep.Counters[telemetry.CounterEventsPublished],
			EventsDropped:   rep.Counters[telemetry.CounterEventsDropped],
			EventWatchers:   rep.Counters[telemetry.CounterEventWatchers],

			FaultsInjected: rep.Counters[telemetry.CounterFaultsInjected],
			RetryAttempts:  rep.Counters[telemetry.CounterRetryAttempts],
			Degradations:   rep.Counters[telemetry.CounterFaultDegradations],
			Fallbacks:      rep.Counters[telemetry.CounterFaultFallbacks],
			Store:          storeM,
			Tenants:        s.queue.Tenants(),
			Cluster:        clusterM,
		},
		Telemetry: rep,
	})
}
