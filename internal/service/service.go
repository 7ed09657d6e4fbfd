package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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

	rec      *telemetry.Recorder // process-wide service recorder (/metrics)
	runs     *core.RunCache      // process-wide profiled-run cache
	programs *programTable       // checked programs by source text (programs.go)

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

	mu       sync.Mutex // guards jobs, retired, drained and the queue's close
	jobs     map[string]*Job
	retired  []string // terminal job IDs, oldest first, for registry eviction
	queue    *jobQueue
	draining atomic.Bool
	drained  bool

	wg     sync.WaitGroup
	nextID atomic.Int64
	idBase string

	// runFlow executes one job's flow; tests substitute a controllable
	// implementation. The default runs the real PSA-flow.
	runFlow func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error)
	// step, when a test sets it, is called between the steps of admit and
	// complete with the name of the step just taken (Server.at).
	step func(at string)
}

// New builds a Server (call Start to spawn the workers).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = defaultMaxBody
	}
	quotas, qerr := ParseTenantQuotas(cfg.TenantQuotas)
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
		cfg:      cfg,
		rec:      telemetry.New(),
		runs:     core.NewRunCache(),
		programs: newProgramTable(),
		jobs:     make(map[string]*Job),
		queue:    newJobQueue(cfg.QueueSize, quotas),
		idBase:   idBase,
		retry:    cfg.Retry.WithDefaults(),
		flowReg:  &flowRegistry{flows: make(map[string][]FlowInfo)},
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
		// Every job lowers a checked document with its own options: the
		// bundled paper.psa, or the registered version its reference was
		// pinned to at submit, whose lookup fails only when the registry
		// history is gone (e.g. a job WAL restored without its flows WAL).
		doc := flowlang.Bundled()
		if job.Spec.Flow != "" {
			info, pinned, err := s.resolveFlowRef(job.Spec.Flow)
			if err != nil {
				return nil, err
			}
			if info.checkErr != nil {
				return nil, fmt.Errorf("flow %s: %w", pinned, info.checkErr)
			}
			doc = info.doc
			rec.Add(telemetry.CounterFlowCompiles, 1)
		}
		env, err := job.Spec.flowEnv(doc.Compile(opts), experiments.Settings{Faults: s.cfg.Faults, Retry: s.retry})
		if err != nil {
			return nil, err
		}
		return experiments.RunDesignEnv(ctx, job.bench, job.prog.design(job.bench.Name), opts, env, nil, rec, s.runs)
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
	if requeued := s.replayStore(); requeued > 0 {
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
	// The queue closes before the flag rises: once draining reads true, no
	// worker takes another job.
	queued := s.queue.Close()
	s.draining.Store(true)
	s.mu.Unlock()

	if c := s.cfg.Cluster; c != nil {
		c.Stop()
	}
	s.wg.Wait()

	// A job still queued will resume in another process; end its event
	// stream here so attached watchers see the stream close, not a hang. A
	// twin that a flow finished while the drain waited is terminal already.
	kept := 0
	for _, job := range queued {
		if job.State() == StateQueued {
			job.events.Close()
			kept++
		}
	}
	// The shutdown record lets the next start tell a drain from a crash. It
	// goes last, immediately before the store closes, so no job record can
	// follow it in the log.
	if err := s.appendRecord("wal:shutdown", store.Record{Op: store.OpShutdown, Time: fmtTime(time.Now())}); err != nil {
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
	return kept, nil
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(job)
		s.queue.Release(job.Spec.Tenant)
	}
}

// runJob executes one job's flow with its own cancellable context and a
// job-scoped telemetry recorder, folds the job's counters into the
// process-wide recorder, classifies how the flow ended and completes the
// job — and, when the flow ended on its own, its queued twins — with that
// outcome.
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
	if !s.start(job, cancel, "") {
		// Cancelled while queued: the cancel handler completed it.
		return
	}
	rec := telemetry.New()
	rec.SetEventSink(func(e events.Event) { s.publish(job, e) })
	results, err := s.runFlowSafe(jctx, job, rec)
	rep := rec.Snapshot()
	s.rec.MergeCounters(rep.Counters)

	out := &outcome{state: StateDone, results: results, rep: rep}
	if err != nil {
		out.state, out.msg, out.class = StateFailed, err.Error(), FailureError
		switch {
		case errors.Is(err, context.Canceled):
			out.state, out.class = StateCancelled, FailureCancelled
		case errors.Is(err, context.DeadlineExceeded):
			out.class = FailureTimeout
		case errors.Is(err, errFlowPanic):
			out.class = FailurePanic
		case faults.AsFault(err) != nil:
			out.class = FailureFault
		}
	}
	// A run its own cancel or deadline ended is this job's alone; any other
	// outcome is what every queued twin would get from a run of its own.
	var twins []*Job
	if out.class != FailureCancelled && out.class != FailureTimeout {
		twins = s.takeTwins(job, out)
	}
	s.complete(job, store.OpResult, out)
	for _, t := range twins {
		s.complete(t, store.OpResult, out)
	}
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

// newID is the next job ID: the server's base, a dash and the counter,
// zero-padded to six digits.
func (s *Server) newID() string {
	var buf [20]byte
	n := strconv.AppendInt(buf[:0], s.nextID.Add(1), 10)
	return s.idBase + "-" + "000000"[min(len(n), 6):] + string(n)
}
