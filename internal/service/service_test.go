package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, base string, spec JobSpec) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func submitOK(t *testing.T, base string, spec JobSpec) JobStatus {
	t.Helper()
	code, body := submit(t, base, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, body %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit: unexpected status %+v", st)
	}
	return st
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func httpDelete(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// waitState polls the status endpoint until the job reaches one of the
// wanted states.
func waitState(t *testing.T, base, id string, timeout time.Duration, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: got %d, body %s", id, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s, wanted one of %v (error: %s)", id, st.State, want, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v, wanted one of %v", id, st.State, timeout, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchMetrics(t *testing.T, base string) metricsResponse {
	t.Helper()
	code, body := getJSON(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: got %d, body %s", code, body)
	}
	var m metricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestJobLifecycle drives the full real-flow path over HTTP: submit, poll,
// fetch the result, and read it back from disk through a fresh server.
func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8, DataDir: dir})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := ts.URL

	st := submitOK(t, base, JobSpec{Bench: "adpredictor"})
	fin := waitState(t, base, st.ID, 60*time.Second, StateDone)
	if fin.RunMS <= 0 {
		t.Errorf("finished job has RunMS=%v", fin.RunMS)
	}

	code, body := getJSON(t, base+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: got %d, body %s", code, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Designs) == 0 {
		t.Fatal("result has no designs")
	}
	if res.AutoTarget == "" {
		t.Error("result has no auto-selected target")
	}
	if res.Telemetry == nil || len(res.Telemetry.Counters) == 0 {
		t.Error("result has no telemetry")
	}

	// Visible before durable — the known gap in Server.complete's doc
	// comment (lifecycle.go) — so the store is waited for, not read once.
	waitCond(t, "the terminal record in the durable store", func() bool {
		e, ok := s.store.Get(st.ID)
		return ok && e.Phase == store.PhaseTerminal
	})

	// The /metrics store block is the store's gauges, each a JSON number,
	// none unannounced; its counters are the store.* telemetry counters.
	code, body = getJSON(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: got %d, body %s", code, body)
	}
	var m struct {
		Service struct {
			Store map[string]json.Number `json:"store"`
		} `json:"service"`
		Telemetry telemetry.Report `json:"telemetry"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics store block: %v in %s", err, body)
	}
	var keys []string
	for k := range m.Service.Store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const goldenKeys = "dead_frames indexed_jobs live_frames pending_jobs segments"
	if got := strings.Join(keys, " "); got != goldenKeys {
		t.Errorf("store block keys:\n got %s\nwant %s", got, goldenKeys)
	}
	if got := m.Telemetry.Counters[telemetry.CounterStoreAppends]; got != 2 { // submit, result: starting a job writes nothing
		t.Errorf("%s = %d after one job, want 2", telemetry.CounterStoreAppends, got)
	}

	if code, _ := getJSON(t, base+"/v1/jobs/nosuchjob"); code != http.StatusNotFound {
		t.Errorf("unknown job: got %d, want 404", code)
	}

	// A fresh server over the same data dir serves the old job from the
	// replayed store.
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s3, ts3 := newTestServer(t, Config{DataDir: dir})
	if err := s3.Start(); err != nil {
		t.Fatal(err)
	}
	if code, _ := getJSON(t, ts3.URL+"/v1/jobs/"+st.ID); code != http.StatusOK {
		t.Errorf("restarted server: status from store got %d", code)
	}
	if code, _ := getJSON(t, ts3.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusOK {
		t.Errorf("restarted server: result from store got %d", code)
	}
}

// TestStrategyKnobs pins the job-spec tunables of the Fig. 3 strategy on a
// real informed nbody flow: left alone it offloads to its ExpectTarget; an
// arithmetic-intensity threshold no kernel reaches, or a transfer bandwidth
// that makes any offload slower than the CPU, keeps it on the CPU.
func TestStrategyKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three real flows")
	}
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Bench: "nbody"}, "gpu"},
		{JobSpec{Bench: "nbody", AIThreshold: 1e12}, "cpu"},
		{JobSpec{Bench: "nbody", TransferBW: 1}, "cpu"},
	} {
		id := submitOK(t, ts.URL, c.spec).ID
		waitState(t, ts.URL, id, 60*time.Second, StateDone)
		if got := jobResult(t, ts.URL, id).AutoTarget; got != c.want {
			t.Errorf("%+v: auto_target %q, want %q", c.spec, got, c.want)
		}
	}
}

// TestTerminatedFlowReportsNoTarget: a kmeans whose only loop is serial
// and does too little per byte to offload is Fig. 3's "design-flow
// terminates" leaf in informed mode. The job result reports that one
// leaf as no design of any target: infeasible for want of a target,
// labelled by its app alone, and no auto_target.
func TestTerminatedFlowReportsNoTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real flow")
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	src := "void kmeans_main(int n, int seed, double *points, double *centroids, int *labels, double *sums, int *counts, int *hist) " +
		"{ for (int i = 1; i < n; i++) { points[i] = points[i-1] + 1.0; } }"
	id := submitOK(t, ts.URL, JobSpec{Bench: "kmeans", Mode: "informed", Source: src}).ID
	waitState(t, ts.URL, id, 60*time.Second, StateDone)
	res := jobResult(t, ts.URL, id)
	if res.AutoTarget != "" || len(res.Designs) != 1 {
		t.Fatalf("auto_target %q, %d designs: %+v", res.AutoTarget, len(res.Designs), res.Designs)
	}
	if d := res.Designs[0]; d.Label != "kmeans" || d.Target != "" || d.Infeasible != "no target chosen" || d.Speedup != 0 {
		t.Errorf("leaf %+v, want kmeans with no target chosen", d)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range []JobSpec{
		{},                          // no bench
		{Bench: "nosuch"},           // unknown bench
		{Bench: "nbody", Mode: "x"}, // unknown mode
		{Bench: "nbody", TimeoutMS: -1},
		{Bench: "nbody", Source: "int f( {"}, // parse error
		{Bench: "nbody", Source: "int unrelated() { }"}, // missing entry
	} {
		if code, body := submit(t, ts.URL, spec); code != http.StatusBadRequest {
			t.Errorf("spec %+v: got %d (%s), want 400", spec, code, body)
		}
	}
}

// TestSubmitTypeError: a source that parses but fails minic.Check is a 400
// at submit naming the construct's line:col. It is never acknowledged, so
// no submit record is appended and nothing is queued.
func TestSubmitTypeError(t *testing.T) {
	s := New(Config{Workers: 1, DataDir: t.TempDir()})
	installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := newHTTPServer(t, s)
	nbody, err := bench.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	src := nbody.Source + "\nint broken(int n) { return n[0]; }\n"
	want := fmt.Sprintf("%d:28: indexing non-array value (int)", strings.Count(src, "\n"))
	appends := s.rec.Counter(telemetry.CounterStoreAppends)
	code, body := submit(t, ts, JobSpec{Bench: "nbody", Source: src})
	if code != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Errorf("got %d (%s), want 400 naming %q", code, body, want)
	}
	if n := s.rec.Counter(telemetry.CounterStoreAppends) - appends; n != 0 {
		t.Errorf("%d records appended for a rejected submission", n)
	}
	if n, q := s.rec.Counter(telemetry.CounterJobsSubmitted), s.queue.Len(); n != 0 || q != 0 {
		t.Errorf("%d jobs submitted and %d queued, want none", n, q)
	}
}

// blockingHook substitutes runFlow with one that parks until released,
// giving tests deterministic control over worker occupancy.
type blockingHook struct {
	started chan string
	release chan struct{}
}

func installBlockingHook(s *Server) *blockingHook {
	h := &blockingHook{started: make(chan string, 64), release: make(chan struct{})}
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		h.started <- job.ID
		select {
		case <-h.release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return h
}

func (h *blockingHook) waitStarted(t *testing.T) string {
	t.Helper()
	select {
	case id := <-h.started:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no job started")
		return ""
	}
}

// TestBackpressure fills the one-worker, one-slot queue and checks the
// overflow submission is rejected with 429 + a rejection counter.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	run := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	if got := h.waitStarted(t); got != run.ID {
		t.Fatalf("worker started %s, want %s", got, run.ID)
	}
	// Worker occupied; this one holds the single queue slot.
	queued := submitOK(t, ts.URL, JobSpec{Bench: "kmeans"})

	code, body := submit(t, ts.URL, JobSpec{Bench: "bezier"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %d (%s), want 429", code, body)
	}
	if n := s.rec.Counter(telemetry.CounterJobsRejected); n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}

	// The running job's result endpoint reports 409 while live.
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+run.ID+"/result"); code != http.StatusConflict {
		t.Errorf("live result: got %d, want 409", code)
	}

	close(h.release)
	waitState(t, ts.URL, run.ID, 10*time.Second, StateDone)
	waitState(t, ts.URL, queued.ID, 10*time.Second, StateDone)
}

// TestCancelQueued cancels a job before a worker picks it up.
func TestCancelQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	run := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)
	queued := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})

	code, _ := httpDelete(t, ts.URL+"/v1/jobs/"+queued.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel queued: got %d, want 200", code)
	}
	st := waitState(t, ts.URL, queued.ID, 5*time.Second, StateCancelled)
	if st.StartedAt != "" {
		t.Errorf("cancelled-while-queued job has StartedAt %q", st.StartedAt)
	}
	close(h.release)
	waitState(t, ts.URL, run.ID, 10*time.Second, StateDone)
	// Cancelling a finished job conflicts.
	if code, _ := httpDelete(t, ts.URL+"/v1/jobs/"+run.ID); code != http.StatusConflict {
		t.Errorf("cancel finished: got %d, want 409", code)
	}
	if n := s.rec.Counter(telemetry.CounterJobsCancelled); n != 1 {
		t.Errorf("cancelled counter = %d, want 1", n)
	}
}

// TestQueuedCancelFreesSlot: a job cancelled while queued leaves the queue
// at once — its slot, its tenant's queued count and the node's load go with
// it — instead of waiting for a worker to pop it and skip it.
func TestQueuedCancelFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueSize: 1}) // never started: no worker pops
	first := submitOK(t, ts.URL, JobSpec{Bench: "nbody", Tenant: "acme"})
	if code, body := httpDelete(t, ts.URL+"/v1/jobs/"+first.ID); code != http.StatusOK {
		t.Fatalf("cancel queued: got %d %s, want 200", code, body)
	}
	m := fetchMetrics(t, ts.URL)
	if m.Service.QueueDepth != 0 || len(m.Service.Tenants) != 0 || s.queue.Load() != 0 {
		t.Errorf("after the cancel: queue_depth %d, tenants %+v, load %d; want an empty queue",
			m.Service.QueueDepth, m.Service.Tenants, s.queue.Load())
	}
	submitOK(t, ts.URL, JobSpec{Bench: "nbody", Tenant: "acme"})
}

// spinNBody replaces the nbody source with an effectively unbounded loop:
// cancellation, not completion, is the only way the flow ends promptly.
const spinNBody = `
void nbody_main(int n, int seed, double dt, double eps, double *pos, double *vel, double *acc) {
    int i = 0;
    while (i < 2000000000) {
        pos[0] = pos[0] + dt;
        i = i + 1;
    }
}
`

// TestCancelRunningFlow exercises the real cancellation path end to end:
// an uninformed flow over a spinning custom source is stopped mid-branch by
// DELETE, and the job lands in state=cancelled far sooner than the spin
// could ever finish.
func TestCancelRunningFlow(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody", Mode: "uninformed", Source: spinNBody})
	waitState(t, ts.URL, st.ID, 15*time.Second, StateRunning)
	// Give the flow a moment to get into the interpreter loop.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	code, body := httpDelete(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusAccepted {
		t.Fatalf("cancel running: got %d (%s), want 202", code, body)
	}
	fin := waitState(t, ts.URL, st.ID, 20*time.Second, StateCancelled)
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !strings.Contains(fin.Error, "cancel") {
		t.Errorf("cancelled job error = %q, want it to mention cancellation", fin.Error)
	}
}

// TestJobDeadline checks per-job timeouts surface as a failed job.
func TestJobDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody", Mode: "uninformed", Source: spinNBody, TimeoutMS: 100})
	fin := waitState(t, ts.URL, st.ID, 30*time.Second, StateFailed)
	if !strings.Contains(fin.Error, "deadline") {
		t.Errorf("deadline job error = %q, want deadline mention", fin.Error)
	}
	if n := s.rec.Counter(telemetry.CounterJobsFailed); n != 1 {
		t.Errorf("failed counter = %d, want 1", n)
	}
}

// TestDrainSnapshotRestore drains a server with queued jobs and verifies a
// new server over the same data dir restores them (same IDs) and runs them.
func TestDrainSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, DataDir: dir})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	run := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)
	q1 := submitOK(t, ts.URL, JobSpec{Bench: "kmeans", Mode: "uninformed"})
	q2 := submitOK(t, ts.URL, JobSpec{Bench: "bezier", TimeoutMS: 30000})

	drainDone := make(chan int, 1)
	go func() {
		n, err := s.Drain()
		if err != nil {
			t.Errorf("drain: %v", err)
		}
		drainDone <- n
	}()

	// Draining: health flips to 503 and new submissions are refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := getJSON(t, ts.URL+"/healthz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := submit(t, ts.URL, JobSpec{Bench: "nbody"}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d, want 503", code)
	}

	close(h.release) // let the in-flight job finish
	var snapshotted int
	select {
	case snapshotted = <-drainDone:
	case <-time.After(15 * time.Second):
		t.Fatal("drain did not finish")
	}
	if snapshotted != 2 {
		t.Fatalf("snapshotted %d jobs, want 2", snapshotted)
	}
	// The in-flight job completed rather than being snapshotted.
	if st := waitState(t, ts.URL, run.ID, time.Second, StateDone); st.Error != "" {
		t.Errorf("in-flight job error: %s", st.Error)
	}
	assertOnlyStoreDirs(t, dir)

	// Restart: a new server restores the queued jobs under their old IDs.
	s2, ts2 := newTestServer(t, Config{Workers: 2, QueueSize: 8, DataDir: dir})
	h2 := installBlockingHook(s2)
	close(h2.release) // run-through hook: restored jobs finish immediately
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if n := s2.rec.Counter(telemetry.CounterStoreRequeued); n != 2 {
		t.Errorf("requeued counter = %d, want 2", n)
	}
	for _, id := range []string{q1.ID, q2.ID} {
		waitState(t, ts2.URL, id, 10*time.Second, StateDone)
	}
	// Specs survived the roundtrip.
	if job := s2.lookup(q1.ID); job == nil || job.Spec.Mode != "uninformed" {
		t.Errorf("restored job %s lost its spec: %+v", q1.ID, job)
	}

	// Drain with an empty queue succeeds.
	if n, err := s2.Drain(); err != nil || n != 0 {
		t.Errorf("second drain: n=%d err=%v", n, err)
	}
}

// TestDrainIdempotent double-drains an idle server.
func TestDrainIdempotent(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Drain(); err != nil || n != 0 {
		t.Fatalf("first drain: n=%d err=%v", n, err)
	}
	if n, err := s.Drain(); err != nil || n != 0 {
		t.Fatalf("second drain: n=%d err=%v", n, err)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := fmt.Sprintf(`{"bench":"nbody","source":%q}`, strings.Repeat("x", defaultMaxBody+1))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", resp.StatusCode)
	}

	// A custom -max-body tightens the cap; a body the default would have
	// accepted is now rejected, and a small one still goes through.
	_, tsSmall := newTestServer(t, Config{MaxBody: 512})
	mid := fmt.Sprintf(`{"bench":"nbody","source":%q}`, strings.Repeat("x", 600))
	resp, err = http.Post(tsSmall.URL+"/v1/jobs", "application/json", strings.NewReader(mid))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over custom cap: got %d, want 413", resp.StatusCode)
	}
	resp, err = http.Post(tsSmall.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bench":"nbody"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small body under custom cap: got %d, want 202", resp.StatusCode)
	}
}

// TestTerminalStatusHasResult holds the lifecycle invariant "terminal ⇒
// result readable": pollers hammer GET status and GET result while a plain
// job, a batch leader and its queued twin, and a cancelled-while-queued job
// reach their terminal states, and a terminal status whose result is not
// served fails the test. The long design trace makes a result slow to
// build, so a transition that shows the state before the result is caught.
func TestTerminalStatusHasResult(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 16})
	designs := []experiments.DesignResult{{
		Design: &core.Design{Name: "d", Trace: make([]core.TraceEvent, 4000)},
	}}
	gate := make(chan struct{})
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		if job.Spec.Bench == "kmeans" { // the blocker: holds the one worker
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return designs, nil
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	get := func(path string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.Bytes()
	}

	for round := 0; round < 5; round++ {
		blocker := submitOK(t, ts.URL, JobSpec{Bench: "kmeans"})
		waitJobState(t, s.lookup(blocker.ID), StateRunning)
		// Queued behind the blocker, so the pair batches and the victim is
		// still queued when it is cancelled.
		plain := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
		leader := submitOK(t, ts.URL, JobSpec{Bench: "bezier"})
		twin := submitOK(t, ts.URL, JobSpec{Bench: "bezier"})
		victim := submitOK(t, ts.URL, JobSpec{Bench: "adpredictor"})
		ids := []string{blocker.ID, plain.ID, leader.ID, twin.ID, victim.ID}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				verified := map[string]bool{}
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, id := range ids {
						if verified[id] {
							continue
						}
						code, body := get("/v1/jobs/" + id)
						var st JobStatus
						if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil {
							t.Errorf("status %s: got %d (%v), body %s", id, code, err, body)
							return
						}
						if !st.State.Terminal() {
							continue
						}
						if code, body := get("/v1/jobs/" + id + "/result"); code != http.StatusOK {
							t.Errorf("job %s is %s but its result answers %d: %s", id, st.State, code, body)
							return
						}
						verified[id] = true
					}
				}
			}()
		}

		if code, body := httpDelete(t, ts.URL+"/v1/jobs/"+victim.ID); code != http.StatusOK {
			t.Fatalf("cancel queued job: got %d, body %s", code, body)
		}
		gate <- struct{}{}
		for _, id := range ids {
			waitCond(t, "job "+id+" terminal", func() bool { return s.lookup(id).State().Terminal() })
		}
		close(stop)
		wg.Wait()

		if res := jobResult(t, ts.URL, twin.ID); !res.Batched || res.BatchLeader != leader.ID {
			t.Fatalf("job %s did not finish as a twin of %s: %+v", twin.ID, leader.ID, res.JobStatus)
		}
		if res := jobResult(t, ts.URL, victim.ID); res.State != StateCancelled {
			t.Fatalf("job %s is %s, want cancelled", victim.ID, res.State)
		}
	}
}
