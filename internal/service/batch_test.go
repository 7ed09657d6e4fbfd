package service

import (
	"context"
	"encoding/json"
	"net/http"
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
// dequeued job leads, the remaining 31 are finished as followers with
// copied results and the batch fields set.
func TestBatchedExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 64, Batch: true})
	var flowRuns atomic.Int64
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		flowRuns.Add(1)
		return nil, nil
	}

	const n = 32
	ids := submitN(t, ts.URL, JobSpec{Bench: "nbody"}, n)
	// Workers start only now, so every job is queued (and enrolled for
	// batching) before the leader claims the group — deterministic.
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

// TestBatchMixedSpecsSplitGroups checks the batch key: jobs differing in
// a result-affecting field (mode) must not share an execution.
func TestBatchMixedSpecsSplitGroups(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 64, Batch: true})
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

// TestBatchDisabledRunsEveryJob is the control: with batching off every
// job executes its own flow.
func TestBatchDisabledRunsEveryJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 64})
	var flowRuns atomic.Int64
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		flowRuns.Add(1)
		return nil, nil
	}
	ids := submitN(t, ts.URL, JobSpec{Bench: "nbody"}, 4)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitState(t, ts.URL, id, 30*time.Second, StateDone)
	}
	if got := flowRuns.Load(); got != 4 {
		t.Fatalf("flow executed %d times with batching off, want 4", got)
	}
	if res := jobResult(t, ts.URL, ids[0]); res.Batched || res.BatchSize != 0 {
		t.Errorf("unbatched job carries batch fields: %+v", res)
	}
}

// TestBatchLowersOnce is the end-to-end acceptance check: a batched run
// of 32 identical-fingerprint jobs through the REAL flow performs exactly
// as many bytecode lowerings as a single job does — the whole batch
// shares one lowered, progressively-quickened program image per distinct
// program the flow profiles (counter-verified via the process recorder).
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
	batched, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 64, Batch: true})
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
