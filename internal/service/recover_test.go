package service

// Crash-recovery tests: the durability contract of the WAL-backed store
// under hard process death. A "crash" here is a server abandoned without
// Drain or Close — no flush, no shutdown record, workers parked — which is exactly
// the on-disk state a SIGKILL leaves behind, because every acknowledged
// transition was fsynced before the ack. scripts/crashtest.sh repeats the
// same scenario across a real kill -9 of the daemon binary.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"psaflow/internal/experiments"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// gateHook is a runFlow stand-in with a per-job release valve, so a test
// can finish some jobs and leave others mid-flight at "crash" time.
type gateHook struct {
	started chan string
	mu      sync.Mutex               // guards gates: tests add them while workers look theirs up
	gates   map[string]chan struct{} // job ID → release
}

// gate returns the job's release valve, if it has one.
func (h *gateHook) gate(id string) (chan struct{}, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.gates[id]
	return g, ok
}

// hold gives the job a gate — before it is submitted — and returns it.
func (h *gateHook) hold(id string) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gates[id] = make(chan struct{})
	return h.gates[id]
}

// run is the hooked flow: announce the start, then park on the gate.
func (h *gateHook) run(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
	h.started <- job.ID
	return h.flow(ctx, job, rec)
}

// flow is run without the announcement, for tests that do not read it:
// gated jobs park until released or cancelled, the rest run through.
func (h *gateHook) flow(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
	if gate, ok := h.gate(job.ID); ok {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, nil
}

// crashServer builds a started server whose flows block until released
// through the returned hook.
func crashServer(t *testing.T, dir string, workers int) (*Server, *gateHook) {
	t.Helper()
	s := New(Config{Workers: workers, QueueSize: 16, DataDir: dir})
	h := &gateHook{started: make(chan string, 64), gates: make(map[string]chan struct{})}
	s.runFlow = h.run
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s, h
}

// submitDirect registers a job without the HTTP layer (the handlers are
// exercised elsewhere; these tests drive the persistence path).
func submitDirect(t *testing.T, s *Server, spec JobSpec) *Job {
	t.Helper()
	b, prog, err := spec.validate()
	if err != nil {
		t.Fatal(err)
	}
	job := s.newJob(s.newID(), spec, b, prog, time.Now())
	if _, err := s.admit(job); err != nil {
		t.Fatalf("admit %s: %v", job.ID, err)
	}
	return job
}

func waitJobState(t *testing.T, job *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for job.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", job.ID, job.State(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRecoveryRequeuesAcknowledged is the core durability contract:
// after a hard stop with jobs done, running, and queued, a fresh server
// over the same data dir serves the finished job's result byte-identically
// and requeues every unfinished acknowledged job — zero lost, zero
// duplicated.
func TestCrashRecoveryRequeuesAcknowledged(t *testing.T) {
	dir := t.TempDir()
	s1, h := crashServer(t, dir, 1)

	// Job 1 runs to completion before the crash.
	done := submitDirect(t, s1, JobSpec{Bench: "nbody"})
	if id := <-h.started; id != done.ID {
		t.Fatalf("started %s, want %s", id, done.ID)
	}
	waitJobState(t, done, StateDone)
	preCrash := done.Result()

	// Job 2 is mid-flight at crash time; jobs 3 and 4 never left the queue.
	gateID := fmt.Sprintf("%s-%06d", s1.idBase, s1.nextID.Load()+1)
	h.hold(gateID) // never released: "running at crash"
	running := submitDirect(t, s1, JobSpec{Bench: "kmeans", Mode: "uninformed"})
	if running.ID != gateID {
		t.Fatalf("gate aimed at %s but job is %s", gateID, running.ID)
	}
	if id := <-h.started; id != running.ID {
		t.Fatalf("started %s, want %s", id, running.ID)
	}
	queuedA := submitDirect(t, s1, JobSpec{Bench: "bezier"})
	queuedB := submitDirect(t, s1, JobSpec{Bench: "adpredictor", TimeoutMS: 30000})

	// CRASH: s1 is abandoned — no Drain, no Close, the worker still parked
	// on the gate. Every acknowledged record is already fsynced.
	s2, h2 := crashServer(t, dir, 2)
	defer func() {
		if _, err := s2.Drain(); err != nil {
			t.Errorf("final drain: %v", err)
		}
	}()

	if n := s2.rec.Counter(telemetry.CounterStoreRequeued); n != 3 {
		t.Errorf("requeued counter = %d, want 3 (running + 2 queued)", n)
	}

	// The finished job was NOT requeued (no duplicate execution) and its
	// result replays byte-identically through the fresh server's handler.
	if j := s2.lookup(done.ID); j != nil {
		t.Errorf("finished job %s requeued after crash", done.ID)
	}
	postCrash, ok := s2.storedResult(done.ID)
	if !ok {
		t.Fatal("post-crash result load: finished job's result not in the store")
	}
	if len(preCrash) == 0 || string(preCrash) != string(postCrash) {
		t.Errorf("replayed result differs:\n pre: %s\npost: %s", preCrash, postCrash)
	}

	// Every unfinished acknowledged job came back under its old ID with
	// its spec intact, and runs to completion.
	for _, id := range []string{running.ID, queuedA.ID, queuedB.ID} {
		j := s2.lookup(id)
		if j == nil {
			t.Fatalf("acknowledged job %s lost in the crash", id)
		}
	}
	if j := s2.lookup(running.ID); j.Spec.Mode != "uninformed" {
		t.Errorf("requeued job %s lost its spec: %+v", running.ID, j.Spec)
	}
	if j := s2.lookup(queuedB.ID); j.Spec.TimeoutMS != 30000 {
		t.Errorf("requeued job %s lost its spec: %+v", queuedB.ID, j.Spec)
	}
	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		select {
		case id := <-h2.started:
			seen[id]++
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 3 requeued jobs started: %v", i, seen)
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("job %s executed %d times after recovery", id, n)
		}
	}
	for _, j := range []*Job{s2.lookup(running.ID), s2.lookup(queuedA.ID), s2.lookup(queuedB.ID)} {
		waitJobState(t, j, StateDone)
	}
}

// TestCleanShutdownNoRecoveryNoise: a drained server ends its WAL with a
// shutdown record (and leaves no side file), so the next start requeues
// the jobs it left queued without declaring an unclean shutdown; a server
// abandoned mid-job leaves none, and the start after it says so.
func TestCleanShutdownNoRecoveryNoise(t *testing.T) {
	dir := t.TempDir()
	var logs logCapture
	s1 := New(Config{Workers: 1, QueueSize: 8, DataDir: dir})
	h := &blockingHook{started: make(chan string, 8), release: make(chan struct{})}
	s1.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		h.started <- job.ID
		<-h.release
		return nil, nil
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	running := submitDirect(t, s1, JobSpec{Bench: "nbody"})
	<-h.started
	queued := submitDirect(t, s1, JobSpec{Bench: "kmeans"})

	drainDone := make(chan error, 1)
	go func() { _, err := s1.Drain(); drainDone <- err }()
	// Release the in-flight job only once the drain flag is up, so the
	// queue is closed and the worker exits instead of running the queued
	// job (the nondeterminism a real SIGTERM doesn't have: its release is
	// the flow finishing, well after draining is set).
	for !s1.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	close(h.release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitJobState(t, running, StateDone)
	assertOnlyStoreDirs(t, dir)

	parked := make(chan string, 1)
	s2 := New(Config{Workers: 1, QueueSize: 8, DataDir: dir, Logf: logs.logf})
	s2.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		if job.Spec.Bench == "bezier" {
			parked <- job.ID
			select {} // "running at crash": never returns
		}
		return nil, nil
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := logs.take(); strings.Contains(got, "unclean shutdown") {
		t.Errorf("clean restart logged recovery noise:\n%s", got)
	}
	if j := s2.lookup(queued.ID); j == nil {
		t.Fatalf("drained queued job %s not requeued", queued.ID)
	}
	waitJobState(t, s2.lookup(queued.ID), StateDone)

	// CRASH: s2 is abandoned with one job mid-flight — no Drain, so no
	// shutdown record ends the log.
	lost := submitDirect(t, s2, JobSpec{Bench: "bezier"})
	<-parked

	logs.take()
	s3 := New(Config{Workers: 1, QueueSize: 8, DataDir: dir, Logf: logs.logf})
	s3.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		return nil, nil
	}
	if err := s3.Start(); err != nil {
		t.Fatal(err)
	}
	if got, want := logs.take(), "unclean shutdown detected: 1 unfinished job(s)"; !strings.Contains(got, want) {
		t.Errorf("restart after a crash logged:\n%s\nwant a line with %q", got, want)
	}
	waitJobState(t, s3.lookup(lost.ID), StateDone)
	if _, err := s3.Drain(); err != nil {
		t.Fatal(err)
	}
	assertOnlyStoreDirs(t, dir)
}

// logCapture collects a server's log lines; workers log concurrently with
// the test reading them.
type logCapture struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, format+"\n", args...)
}

// take returns everything logged so far and starts over.
func (l *logCapture) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.buf.String()
	l.buf.Reset()
	return out
}

// assertOnlyStoreDirs checks the data dir holds the two WAL directories
// and nothing else: shutdown state lives in the log, not in a side file.
func assertOnlyStoreDirs(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() || (e.Name() != "store" && e.Name() != "flows") {
			t.Errorf("unexpected entry %q in the data dir", e.Name())
		}
	}
}

// TestCancelledQueuedJobNotRequeued: a client-cancelled queued job is
// terminal in the store, so a crash later must not resurrect it.
func TestCancelledQueuedJobNotRequeued(t *testing.T) {
	dir := t.TempDir()
	s1, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, DataDir: dir})
	h := installBlockingHook(s1)
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	run := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)
	queued := submitOK(t, ts.URL, JobSpec{Bench: "kmeans"})
	if code, _ := httpDelete(t, ts.URL+"/v1/jobs/"+queued.ID); code != http.StatusOK {
		t.Fatalf("cancel queued job failed")
	}
	_ = run

	// Crash without drain; the worker is still parked on the hook.
	s2, _ := crashServer(t, dir, 1)
	defer s2.Drain()
	if j := s2.lookup(queued.ID); j != nil {
		t.Errorf("cancelled job %s requeued after crash", queued.ID)
	}
	// Its cancel record still serves a terminal result.
	doc, ok := s2.storedResult(queued.ID)
	if !ok {
		t.Fatal("cancelled job's result is not in the store")
	}
	var res JobResult
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatalf("cancelled job's stored result: %v", err)
	}
	if res.State != StateCancelled || res.FailureClass != FailureCancelled {
		t.Errorf("stored cancel result wrong: %+v", res)
	}
}

// TestRejectedSubmitNotRequeued: a submission the client saw fail (queue
// full → 429) must not come back from the WAL after a crash.
func TestRejectedSubmitNotRequeued(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, QueueSize: 1, DataDir: dir})
	h := installBlockingHook(s1)
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s1)
	run := submitOK(t, ts, JobSpec{Bench: "nbody"})
	h.waitStarted(t)
	queued := submitOK(t, ts, JobSpec{Bench: "kmeans"})
	code, _ := submit(t, ts, JobSpec{Bench: "bezier"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %d, want 429", code)
	}
	_ = run

	// Crash; only the two acknowledged jobs may return.
	s2, _ := crashServer(t, dir, 1)
	defer s2.Drain()
	if n := s2.rec.Counter(telemetry.CounterStoreRequeued); n != 2 {
		t.Errorf("requeued = %d, want 2 (running + queued, not the 429)", n)
	}
	if s2.lookup(queued.ID) == nil {
		t.Errorf("acknowledged queued job %s lost", queued.ID)
	}
}

// TestReplayPushesPastQueueCap: the queue's cap is backpressure on new
// submissions, not on jobs an earlier process acknowledged. A kill -9 can
// leave more pending records than a smaller queue holds (pending = queued +
// running); after Start every one of them is answerable and queued again,
// new submissions see 429 until the backlog has drained below the cap, and
// all of them finish.
func TestReplayPushesPastQueueCap(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := crashServer(t, dir, 1)
	var ids []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("%s-%06d", s1.idBase, s1.nextID.Load()+1)
		h1.hold(id) // never released: one running, four queued at the crash
		if job := submitDirect(t, s1, JobSpec{Bench: "nbody"}); job.ID != id {
			t.Fatalf("gate aimed at %s but job is %s", id, job.ID)
		}
		ids = append(ids, id)
	}
	<-h1.started

	// CRASH, then a restart with a queue of two and one worker.
	s2 := New(Config{Workers: 1, QueueSize: 2, DataDir: dir})
	h2 := &gateHook{started: make(chan string, 64), gates: make(map[string]chan struct{})}
	var gates []chan struct{}
	for _, id := range ids {
		gates = append(gates, h2.hold(id))
	}
	s2.runFlow = h2.run
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	ts := newHTTPServer(t, s2)
	if n := s2.rec.Counter(telemetry.CounterStoreRequeued); n != 5 {
		t.Errorf("requeued = %d, want all 5 pending records", n)
	}
	<-h2.started // the worker holds the first; four are queued, twice the cap
	for i, id := range ids {
		code, body := getJSON(t, ts+"/v1/jobs/"+id)
		var st JobStatus
		want := StateQueued
		if i == 0 {
			want = StateRunning
		}
		if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st.State != want {
			t.Errorf("acknowledged job %s answers %d %s, want 200 and %s", id, code, body, want)
		}
	}
	if code, body := submit(t, ts, JobSpec{Bench: "kmeans"}); code != http.StatusTooManyRequests {
		t.Errorf("submission over a replayed backlog: got %d %s, want 429", code, body)
	}
	for _, g := range gates {
		close(g)
	}
	for _, id := range ids {
		job := s2.lookup(id)
		if job == nil {
			t.Fatalf("acknowledged job %s is not live after the restart", id)
		}
		waitJobState(t, job, StateDone)
	}
	if code, body := submit(t, ts, JobSpec{Bench: "kmeans"}); code != http.StatusAccepted {
		t.Errorf("submission after the backlog drained: got %d %s, want 202", code, body)
	}
}

// TestReplayToleratesRemovedSpecField: a submit record written by an older
// daemon, whose spec still carries the since-removed "dse_workers" option,
// is requeued on Start (replay decodes leniently, unlike POST /v1/jobs) and
// produces the designs of a job submitted without it.
func TestReplayToleratesRemovedSpecField(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, DataDir: t.TempDir()})
	st, err := store.Open(s.storePath(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const oldID = "old-000001"
	if err := st.Append(store.Record{
		Op:   store.OpSubmit,
		ID:   oldID,
		Time: fmtTime(time.Now()),
		Data: json.RawMessage(`{"bench":"adpredictor","dse_workers":4}`),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	if n := s.rec.Counter(telemetry.CounterStoreRequeued); n != 1 {
		t.Fatalf("requeued = %d, want 1", n)
	}
	waitState(t, ts.URL, oldID, 30*time.Second, StateDone)
	fresh := submitOK(t, ts.URL, JobSpec{Bench: "adpredictor"})
	waitState(t, ts.URL, fresh.ID, 30*time.Second, StateDone)
	got, want := fetchResult(t, ts.URL, oldID).Designs, fetchResult(t, ts.URL, fresh.ID).Designs
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("replayed job's designs differ from a fresh submission:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayRequeuesJobWithLegacyStartRecord: a data directory left by a
// daemon that still logged the queued → running transition, killed with
// the job mid-run (submit, start, nothing), boots cleanly: the job is
// requeued under its old ID and finishes, and nothing is counted corrupt.
func TestReplayRequeuesJobWithLegacyStartRecord(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, DataDir: t.TempDir()})
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		return nil, nil
	}
	st, err := store.Open(s.storePath(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const oldID = "old-000002"
	for _, rec := range []store.Record{
		{Op: store.OpSubmit, ID: oldID, Time: fmtTime(time.Now()), Data: json.RawMessage(`{"bench":"kmeans","mode":"uninformed"}`)},
		{Op: store.Op("start"), ID: oldID}, // encodes to the older build's frame, byte for byte
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	if n := s.rec.Counter(telemetry.CounterStoreRequeued); n != 1 {
		t.Fatalf("requeued = %d, want 1", n)
	}
	if j := s.lookup(oldID); j == nil || j.Spec.Mode != "uninformed" {
		t.Fatalf("job %s not requeued with its spec: %+v", oldID, j)
	}
	waitState(t, ts.URL, oldID, 10*time.Second, StateDone)
	waitCond(t, "terminal record of the requeued job", func() bool {
		_, ok := s.storedResult(oldID)
		return ok
	})
	c := fetchMetrics(t, ts.URL).Telemetry.Counters
	if c[telemetry.CounterStoreSkippedCorrupt] != 0 || c[telemetry.CounterStoreReplayed] != 2 {
		t.Errorf("store after replaying a legacy WAL: %s = %d, %s = %d; want 2 records replayed, none skipped",
			telemetry.CounterStoreReplayed, c[telemetry.CounterStoreReplayed], telemetry.CounterStoreSkippedCorrupt, c[telemetry.CounterStoreSkippedCorrupt])
	}
}

// newHTTPServer wraps a prebuilt Server in a test listener (newTestServer
// constructs its own Server, which these tests sometimes can't use).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
