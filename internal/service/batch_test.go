package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psaflow/internal/experiments"
	"psaflow/internal/interp"
	"psaflow/internal/telemetry"
)

// submitN submits n identical jobs and returns their IDs.
func submitN(t *testing.T, base string, spec JobSpec, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submitOK(t, base, spec).ID
	}
	return ids
}

func jobResult(t *testing.T, base, id string) *JobResult {
	t.Helper()
	code, body := getJSON(t, base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result %s: got %d, body %s", id, code, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	return &res
}

// TestBatchedExecution queues 32 identical jobs before any worker starts
// and verifies the whole group rides ONE flow execution: the first
// dequeued job runs, and when it ends the remaining 31 leave the queue as
// its twins with copied results and the batch fields set.
func TestBatchedExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 64})
	var flowRuns atomic.Int64
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		flowRuns.Add(1)
		return nil, nil
	}

	const n = 32
	ids := submitN(t, ts.URL, JobSpec{Bench: "nbody"}, n)
	// Workers start only now, so every job is still queued when the first
	// run ends — deterministic.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitState(t, ts.URL, id, 30*time.Second, StateDone)
	}

	if got := flowRuns.Load(); got != 1 {
		t.Fatalf("flow executed %d times for %d identical jobs, want 1", got, n)
	}
	leaderID := ""
	for _, id := range ids {
		res := jobResult(t, ts.URL, id)
		if !res.Batched || res.BatchSize != n || res.BatchLeader == "" {
			t.Fatalf("job %s: batch fields = (batched=%t size=%d leader=%q), want (true, %d, leader id)",
				id, res.Batched, res.BatchSize, res.BatchLeader, n)
		}
		if leaderID == "" {
			leaderID = res.BatchLeader
		} else if res.BatchLeader != leaderID {
			t.Fatalf("job %s names leader %s, others name %s", id, res.BatchLeader, leaderID)
		}
	}
	rec := s.Recorder()
	if g := rec.Counter(telemetry.CounterBatchGroups); g != 1 {
		t.Errorf("%s = %d, want 1", telemetry.CounterBatchGroups, g)
	}
	if j := rec.Counter(telemetry.CounterBatchJobs); j != n {
		t.Errorf("%s = %d, want %d", telemetry.CounterBatchJobs, j, n)
	}
	if c := rec.Counter(telemetry.CounterJobsCompleted); c != n {
		t.Errorf("%s = %d, want %d", telemetry.CounterJobsCompleted, c, n)
	}
	if st := rec.Counter(telemetry.CounterJobsStarted); st != n {
		t.Errorf("%s = %d, want %d (followers count as started)", telemetry.CounterJobsStarted, st, n)
	}
}

// TestBatchMixedSpecsSplitGroups checks sameRun: jobs differing in a
// result-affecting field (mode) must not share an execution.
func TestBatchMixedSpecsSplitGroups(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 64})
	var flowRuns atomic.Int64
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		flowRuns.Add(1)
		return nil, nil
	}
	var ids []string
	ids = append(ids, submitN(t, ts.URL, JobSpec{Bench: "nbody", Mode: "informed"}, 3)...)
	ids = append(ids, submitN(t, ts.URL, JobSpec{Bench: "nbody", Mode: "uninformed"}, 3)...)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitState(t, ts.URL, id, 30*time.Second, StateDone)
	}
	if got := flowRuns.Load(); got != 2 {
		t.Fatalf("flow executed %d times for 2 distinct specs, want 2", got)
	}
	if g := s.Recorder().Counter(telemetry.CounterBatchGroups); g != 2 {
		t.Errorf("%s = %d, want 2", telemetry.CounterBatchGroups, g)
	}
}

// TestBatchLowersOnce is the end-to-end acceptance check: a batched run
// of 32 identical-fingerprint jobs through the REAL flow performs exactly
// as many bytecode lowerings as a single job does — the whole batch
// shares one lowered, immutable program image per distinct program the
// flow profiles (counter-verified via the process recorder).
func TestBatchLowersOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two real flows")
	}
	single, ts1 := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	if err := single.Start(); err != nil {
		t.Fatal(err)
	}
	id := submitOK(t, ts1.URL, JobSpec{Bench: "kmeans"}).ID
	waitState(t, ts1.URL, id, 120*time.Second, StateDone)
	want := single.Recorder().Counter(interp.CounterBCLowerings)
	if want < 1 {
		t.Fatalf("single job performed %d lowerings, want >= 1", want)
	}

	const n = 32
	batched, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 64})
	ids := submitN(t, ts2.URL, JobSpec{Bench: "kmeans"}, n)
	if err := batched.Start(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitState(t, ts2.URL, id, 120*time.Second, StateDone)
	}
	rec := batched.Recorder()
	if got := rec.Counter(interp.CounterBCLowerings); got != want {
		t.Errorf("%d batched jobs performed %d lowerings, want %d (same as one job)",
			n, got, want)
	}
	if g, j := rec.Counter(telemetry.CounterBatchGroups), rec.Counter(telemetry.CounterBatchJobs); g != 1 || j != n {
		t.Errorf("batch counters groups=%d jobs=%d, want 1/%d", g, j, n)
	}
	// The shared image must never have fallen back to the tree-walker.
	if fb := rec.Counter(interp.CounterBCFallbacks); fb != 0 {
		t.Errorf("%s = %d, want 0", interp.CounterBCFallbacks, fb)
	}
}

// fourTwins queues four identical jobs on a one-worker server whose flows
// are gated, holds the first job's gate, starts the server and waits for
// that job's flow to begin.
func fourTwins(t *testing.T) (*Server, string, *gateHook, []string) {
	t.Helper()
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 64})
	h := &gateHook{started: make(chan string, 8), gates: make(map[string]chan struct{})}
	s.runFlow = h.run
	ids := submitN(t, ts.URL, JobSpec{Bench: "nbody"}, 4)
	h.hold(ids[0])
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if id := nextFlow(t, h); id != ids[0] {
		t.Fatalf("first flow ran for %s, want %s", id, ids[0])
	}
	return s, ts.URL, h, ids
}

// nextFlow returns the job whose flow starts next.
func nextFlow(t *testing.T, h *gateHook) string {
	t.Helper()
	select {
	case id := <-h.started:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no flow started")
		return ""
	}
}

// checkShared asserts that the jobs ended done with one shared run of
// leader's flow, and that no other flow started.
func checkShared(t *testing.T, base string, h *gateHook, leader string, ids ...string) {
	t.Helper()
	for _, id := range ids {
		waitState(t, base, id, 10*time.Second, StateDone)
		if res := jobResult(t, base, id); !res.Batched || res.BatchSize != len(ids) || res.BatchLeader != leader {
			t.Errorf("job %s: batch fields = (batched=%t size=%d leader=%q), want (true, %d, %s)",
				id, res.Batched, res.BatchSize, res.BatchLeader, len(ids), leader)
		}
	}
	select {
	case id := <-h.started:
		t.Errorf("a second flow ran, for %s", id)
	default:
	}
}

// TestBatchCancelRunning: cancelling the running job of four identical
// jobs cancels it alone. Its twins stay queued; the next one runs and its
// outcome completes the other two.
func TestBatchCancelRunning(t *testing.T) {
	s, base, h, ids := fourTwins(t)
	if code, body := httpDelete(t, base+"/v1/jobs/"+ids[0]); code != http.StatusAccepted {
		t.Fatalf("cancel running job: got %d, body %s", code, body)
	}
	waitState(t, base, ids[0], 10*time.Second, StateCancelled)
	if id := nextFlow(t, h); id != ids[1] {
		t.Fatalf("second flow ran for %s, want %s", id, ids[1])
	}
	checkShared(t, base, h, ids[1], ids[1:]...)
	if d := s.queue.Len(); d != 0 {
		t.Errorf("queue holds %d jobs with nothing queued", d)
	}
}

// TestBatchCancelQueuedTwin: cancelling a queued twin while the run it
// would ride is in progress is an ordinary queued cancel. The run's outcome
// completes the other two.
func TestBatchCancelQueuedTwin(t *testing.T) {
	s, base, h, ids := fourTwins(t)
	code, body := httpDelete(t, base+"/v1/jobs/"+ids[2])
	var st JobStatus
	if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued twin: got %d, body %s; want 200 and cancelled", code, body)
	}
	gate, _ := h.gate(ids[0])
	close(gate)
	checkShared(t, base, h, ids[0], ids[0], ids[1], ids[3])
	if res := jobResult(t, base, ids[2]); res.State != StateCancelled || res.Batched {
		t.Errorf("cancelled twin %s: state %s, batched %t; want cancelled, unbatched", ids[2], res.State, res.Batched)
	}
	if d := s.queue.Len(); d != 0 {
		t.Errorf("queue holds %d jobs with nothing queued", d)
	}
}

// TestBatchTwinStepRaces has four clients submit identical jobs to two
// workers while each also cancels an earlier job, so twin steps race
// DELETEs and new submissions. Every job must end terminal, a 200 cancel
// must end cancelled, each group must be exactly the jobs that name its
// leader, every started job must have run its own flow or ridden one, and
// the queue must come back empty.
func TestBatchTwinStepRaces(t *testing.T) {
	s := New(Config{Workers: 2, QueueSize: 256})
	var runs atomic.Int64
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		runs.Add(1)
		select {
		case <-time.After(200 * time.Microsecond):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	var (
		mu       sync.Mutex
		ids      []string
		cancels  = map[string]int{} // job → the status its DELETE answered
		wg       sync.WaitGroup
		clients  = 4
		jobsEach = 16
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				code, body := do(http.MethodPost, "/v1/jobs", `{"bench":"nbody"}`)
				var st JobStatus
				if err := json.Unmarshal(body, &st); code != http.StatusAccepted || err != nil {
					t.Errorf("submit: %d %s", code, body)
					return
				}
				mu.Lock()
				ids = append(ids, st.ID)
				victim := ids[len(ids)/2]
				mu.Unlock()
				if i%2 == 1 {
					code, _ := do(http.MethodDelete, "/v1/jobs/"+victim, "")
					mu.Lock()
					cancels[victim] = code
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	waitCond(t, "every job terminal", func() bool {
		for _, id := range ids {
			if !s.lookup(id).State().Terminal() {
				return false
			}
		}
		return true
	})

	members := map[string]int{} // leader → jobs that name it
	results := map[string]*JobResult{}
	for _, id := range ids {
		var res JobResult
		if err := json.Unmarshal(s.lookup(id).Result(), &res); err != nil {
			t.Fatal(err)
		}
		results[id] = &res
		if res.Batched {
			members[res.BatchLeader]++
		}
		if cancels[id] == http.StatusOK && res.State != StateCancelled {
			t.Errorf("job %s: DELETE answered 200 but it ended %s", id, res.State)
		}
	}
	for _, res := range results {
		if res.Batched && res.BatchSize != members[res.BatchLeader] {
			t.Errorf("job %s: batch_size %d, but %d jobs name leader %s", res.ID, res.BatchSize, members[res.BatchLeader], res.BatchLeader)
		}
	}
	rec := s.Recorder()
	twins := rec.Counter(telemetry.CounterBatchJobs) - rec.Counter(telemetry.CounterBatchGroups)
	if started := rec.Counter(telemetry.CounterJobsStarted); started != runs.Load()+twins {
		t.Errorf("%d jobs started, but %d flows ran and %d twins rode them", started, runs.Load(), twins)
	}
	if d := s.queue.Len(); d != 0 {
		t.Errorf("queue holds %d jobs with nothing queued", d)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d jobs: %d flows, %d twins, %d cancels", len(ids), runs.Load(), twins, len(cancels))
}
