package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/cluster"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/service"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

const (
	// flowDocument is registered as registeredFlow on every daemon.
	flowDocument = "examples/flows/paper.psa"
	// pollEvery is how long the client waits before asking again for a
	// result that is not ready (409). Completion is never read from
	// /v1/jobs/{id}/events: a late subscriber to a finished job with more
	// than 64 retained events waits for the 10 s heartbeat (see README,
	// known defects).
	pollEvery = 500 * time.Microsecond
	// pollShare stretches that wait to this share of the job's age once the
	// job is older than pollEvery/pollShare (8 ms). A hot job is polled every
	// 500 us throughout; a 100 ms job gets some 60 polls where a fixed
	// interval made 180, whose handling was a tenth of the job's CPU time
	// and made allocs_per_job follow the machine's speed. The price is a
	// result seen at most 6% late.
	pollShare = 1.0 / 16
	// jobTimeout fails a job that has not produced a result.
	jobTimeout = 30 * time.Second
)

// prepared is a job with everything the client sends already built, so
// that a round times the program and not the generator.
type prepared struct {
	job
	bench  *bench.Benchmark
	source string
	body   []byte // the POST /v1/jobs request body (daemon workloads)
}

// sample is what the client observed for one job.
type sample struct {
	job job
	err error
	ms  float64 // submit (minic.Parse on flow_cold) to verified result

	// Daemon workloads: the client's view of the three calls it makes and
	// the server's own clocks from the result record.
	submitMS, waitMS, fetchMS float64
	queueMS, runMS            float64
	polls                     int
	resultBytes               int
	id                        string // job ID; its prefix names the node that ran it

	// Traced rounds: the job-scoped telemetry the program already exports.
	telemetry *telemetry.Report
}

// backend runs one job to a verified result.
type backend interface {
	run(p prepared, tr *tracer, jobNo int) sample
	close() error
}

// ---- flow_cold: the engine called directly -----------------------------

type engine struct{}

func (engine) close() error { return nil }

func (engine) run(p prepared, tr *tracer, jobNo int) (s sample) {
	s.job = p.job
	t0 := time.Now()
	root := tr.begin("job", 0, jobNo)
	var got outcome
	got, s.telemetry, s.err = engineJob(p, tr, root, jobNo)
	if s.err == nil {
		s.err = verify(p.job, p.bench, got)
	}
	tr.end(root)
	s.ms = msSince(t0)
	return s
}

// engineJob is what the daemon does for a job, without the daemon: parse,
// fingerprint, then the flow with caches nothing has touched.
func engineJob(p prepared, tr *tracer, root, jobNo int) (outcome, *telemetry.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	sp := tr.begin("parse", root, jobNo)
	prog, err := minic.Parse(p.source)
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, err
	}
	sp = tr.begin("fingerprint", root, jobNo)
	fp := minic.Fingerprint(prog)
	tr.end(sp)
	if fp == 0 {
		return outcome{}, nil, fmt.Errorf("%s: zero fingerprint", p.App)
	}

	// The telemetry recorder is part of tracing: untraced jobs run without.
	var rec *telemetry.Recorder
	if tr != nil {
		rec = telemetry.New()
	}
	opts := tasks.FlowOptions{Mode: tasks.Informed, Strategy: tasks.DefaultStrategy}
	if p.Mode == "uninformed" {
		opts.Mode = tasks.Uninformed
	}
	env := experiments.JobEnv{Progs: interp.NewProgramCache()}
	sp = tr.begin("flow", root, jobNo)
	results, err := experiments.RunBenchmarkEnv(ctx, p.bench, prog, opts, env, nil, rec, core.NewRunCache())
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, err
	}
	var rep *telemetry.Report
	if rec != nil {
		rep = rec.Snapshot()
	}
	return engineOutcome(results), rep, nil
}

// ---- serve_unique, serve_hot, cluster_hop: daemons over loopback HTTP --

// daemons is one psaflowd, or a two-node cluster of them, in this
// process: service.New behind httptest listeners, a real WAL under dir.
type daemons struct {
	servers   []*service.Server
	listeners []*httptest.Server
	nodes     []*cluster.Node // nil entries on a single daemon
	dirs      []string
	client    *http.Client
	closed    bool
}

var nodeIDs = []string{"na", "nb"}

func startDaemons(n int, dir, flowSource string) (*daemons, error) {
	d := &daemons{
		// One keep-alive connection per daemon, one job in flight.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	for i := 0; i < n; i++ {
		cfg := service.Config{Workers: 1, DataDir: filepath.Join(dir, nodeIDs[i])}
		var node *cluster.Node
		if n > 1 {
			var err error
			if node, err = cluster.New(cluster.Config{Self: nodeIDs[i]}); err != nil {
				return nil, err
			}
			cfg.Cluster = node
		}
		srv := service.New(cfg)
		d.servers = append(d.servers, srv)
		d.nodes = append(d.nodes, node)
		d.dirs = append(d.dirs, cfg.DataDir)
		d.listeners = append(d.listeners, httptest.NewServer(srv.Handler()))
	}
	// Listen first, join second, as a deployment does.
	for i, node := range d.nodes {
		if node == nil {
			continue
		}
		peers := map[string]string{}
		for j, ts := range d.listeners {
			if j != i {
				peers[nodeIDs[j]] = ts.URL
			}
		}
		if err := node.SetPeers(peers); err != nil {
			return nil, err
		}
	}
	for i, srv := range d.servers {
		if err := srv.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", nodeIDs[i], err)
		}
	}
	for i := range d.servers {
		if err := d.registerFlow(i, flowSource); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, node := range d.nodes {
		for node != nil && node.HealthyCount() != n {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("cluster: %s sees %d of %d nodes healthy", node.Self(), node.HealthyCount(), n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return d, nil
}

func (d *daemons) registerFlow(i int, source string) error {
	req, err := http.NewRequest(http.MethodPut, d.listeners[i].URL+"/v1/flows/"+registeredFlow, strings.NewReader(source))
	if err != nil {
		return err
	}
	status, body, err := d.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("PUT /v1/flows/%s on %s: %d %s", registeredFlow, nodeIDs[i], status, body)
	}
	return nil
}

// close stops the listeners and drains the servers, which closes their
// WALs; the directories stay for the replay probe. A second call does
// nothing, so a run can close early and still defer the close.
func (d *daemons) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, ts := range d.listeners {
		ts.Close()
	}
	for _, srv := range d.servers {
		if _, err := srv.Drain(); err != nil && first == nil {
			first = err
		}
	}
	d.client.CloseIdleConnections()
	return first
}

// do sends one request and reads the whole response, so the connection
// goes back to the pool.
func (d *daemons) do(req *http.Request) (int, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (d *daemons) get(url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return d.do(req)
}

// resultDoc is the part of GET /v1/jobs/{id}/result the client reads.
type resultDoc struct {
	outcome
	State       string  `json:"state"`
	Error       string  `json:"error"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	RunMS       float64 `json:"run_ms"`
}

// tracedResultDoc also decodes the job's telemetry block.
type tracedResultDoc struct {
	resultDoc
	Telemetry *telemetry.Report `json:"telemetry"`
}

func (d *daemons) run(p prepared, tr *tracer, jobNo int) (s sample) {
	s.job = p.job
	base := d.listeners[p.Node].URL
	t0 := time.Now()
	root := tr.begin("job", 0, jobNo)
	defer func() {
		tr.end(root)
		s.ms = msSince(t0)
	}()

	sp := tr.begin("submit", root, jobNo)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(p.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	status, body, err := d.do(req)
	tr.end(sp)
	s.submitMS = msSince(t0)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/jobs: %d %s", status, body)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err == nil {
		err = json.Unmarshal(body, &accepted)
	}
	if err != nil {
		s.err = err
		return s
	}
	s.id = accepted.ID

	url := base + "/v1/jobs/" + accepted.ID + "/result"
	tWait := time.Now()
	var tFetch time.Time
	for {
		tFetch = time.Now()
		status, body, err = d.get(url)
		if err != nil || status != http.StatusConflict {
			break
		}
		age := time.Since(t0)
		if age > jobTimeout {
			err = fmt.Errorf("job %s: no result after %v", accepted.ID, jobTimeout)
			break
		}
		s.polls++
		time.Sleep(max(pollEvery, time.Duration(pollShare*float64(age))))
	}
	// The last GET is the fetch, everything before it the wait.
	tr.record("wait", root, jobNo, tWait, tFetch)
	tr.record("fetch", root, jobNo, tFetch, time.Now())
	s.waitMS = float64(tFetch.Sub(tWait)) / float64(time.Millisecond)
	s.fetchMS = msSince(tFetch)
	s.resultBytes = len(body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET result of %s: %d %s", accepted.ID, status, body)
	}
	if err != nil {
		s.err = err
		return s
	}

	var doc tracedResultDoc
	if tr != nil {
		err = json.Unmarshal(body, &doc)
	} else {
		err = json.Unmarshal(body, &doc.resultDoc)
	}
	if err != nil {
		s.err = fmt.Errorf("result of %s: %w", accepted.ID, err)
		return s
	}
	s.queueMS, s.runMS, s.telemetry = doc.QueueWaitMS, doc.RunMS, doc.Telemetry
	if doc.State != string(service.StateDone) {
		s.err = fmt.Errorf("job %s ended %s: %s", accepted.ID, doc.State, doc.Error)
		return s
	}
	s.err = verify(p.job, p.bench, doc.outcome)
	return s
}

// counters sums the daemons' process-wide telemetry counters, read from
// GET /metrics as an operator would.
func (d *daemons) counters() (map[string]int64, error) {
	sum := map[string]int64{}
	for _, ts := range d.listeners {
		status, body, err := d.get(ts.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		var m struct {
			Telemetry struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"telemetry"`
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET /metrics: %d", status)
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		for k, v := range m.Telemetry.Counters {
			sum[k] += v
		}
	}
	return sum, nil
}

// walBytes is the size of the daemons' WAL directories.
func (d *daemons) walBytes() int64 {
	var total int64
	for _, dir := range d.dirs {
		entries, err := os.ReadDir(filepath.Join(dir, "store"))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// ---- rounds -------------------------------------------------------------

// roundStats is one round: the samples and what the process spent on it,
// calibration excluded.
type roundStats struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
	// cal holds the calibration samples taken between the round's jobs, in
	// milliseconds.
	cal      []float64
	mallocs  uint64
	allocKB  float64
	gcCycles uint32
	// Daemon workloads, traced rounds: process-wide counter deltas and WAL
	// growth over the round.
	counters map[string]int64
	walBytes int64
}

func (r *roundStats) jobs() float64 { return float64(len(r.samples)) }

func (r *roundStats) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// harness runs rounds of one workload against its backend.
type harness struct {
	w     *workload
	seed  int64
	apps  map[string]*bench.Benchmark
	be    backend
	cal   *calibrator
	jobNo int
}

func (h *harness) prepare(round int) ([]prepared, error) {
	jobs := h.w.jobs(h.seed, round)
	out := make([]prepared, len(jobs))
	for i, j := range jobs {
		b := h.apps[j.App]
		p := prepared{job: j, bench: b, source: salted(b, h.seed, j.Salt)}
		if h.w.Nodes > 0 {
			body, err := json.Marshal(service.JobSpec{
				Bench: j.App, Source: p.source, Mode: j.Mode, Flow: j.Flow, Tenant: j.Tenant,
			})
			if err != nil {
				return nil, err
			}
			p.body = body
		}
		out[i] = p
	}
	return out, nil
}

// round runs one round, one job at a time. tr is nil for untraced rounds.
func (h *harness) round(round int, tr *tracer) (*roundStats, error) {
	jobs, err := h.prepare(round)
	if err != nil {
		return nil, err
	}
	d, _ := h.be.(*daemons)
	r := &roundStats{samples: make([]sample, 0, len(jobs))}
	var before map[string]int64
	var walBefore int64
	if d != nil && tr != nil {
		if before, err = d.counters(); err != nil {
			return nil, err
		}
		walBefore = d.walBytes()
	}
	// One calibration sample after the first job that ends calEvery or more
	// after the last sample, and one at the end of a round that had none. The
	// time a sample takes goes back to the round; its CPU time is the
	// child's.
	r.cal = make([]float64, 0, 64)
	var calSpent time.Duration
	calibrate := func() error {
		work, spent, err := h.cal.sample()
		r.cal = append(r.cal, float64(work)/float64(time.Millisecond))
		calSpent += spent
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	lastCal := t0
	for _, p := range jobs {
		h.jobNo++
		r.samples = append(r.samples, h.be.run(p, tr, h.jobNo))
		if time.Since(lastCal) >= calEvery {
			if err := calibrate(); err != nil {
				return nil, err
			}
			lastCal = time.Now()
		}
	}
	if len(r.cal) == 0 {
		if err := calibrate(); err != nil {
			return nil, err
		}
	}
	r.wall, r.cpu = time.Since(t0)-calSpent, cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	r.gcCycles = m1.NumGC - m0.NumGC
	if before != nil {
		after, err := d.counters()
		if err != nil {
			return nil, err
		}
		r.counters = map[string]int64{}
		for k, v := range after {
			r.counters[k] = v - before[k]
		}
		r.walBytes = d.walBytes() - walBefore
	}
	return r, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
