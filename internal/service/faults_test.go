package service

// Resilience tests for the serving layer: per-job fault specs and retry
// overrides, failure classification in job results, fault injection into
// the daemon's own persistence writes, and a chaos soak that pushes real
// flows through the worker pool with injection enabled.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"psaflow/internal/experiments"
	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// fastRetry keeps the daemon-side retry loops test-friendly.
var fastRetry = faults.RetryPolicy{
	MaxAttempts: 6,
	BaseDelay:   10 * time.Microsecond,
	MaxDelay:    100 * time.Microsecond,
}

func TestFaultSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range []JobSpec{
		{Bench: "nbody", Faults: "seed=notanumber"},
		{Bench: "nbody", Faults: "rate=2notafloat"},
		{Bench: "nbody", Faults: "kinds=warpdrive"},
		{Bench: "nbody", RetryMaxAttempts: -1},
		{Bench: "nbody", RetryBudget: -2},
		{Bench: "nbody", TaskTimeoutMS: -1},
	} {
		if code, body := submit(t, ts.URL, spec); code != http.StatusBadRequest {
			t.Errorf("spec %+v: got %d (%s), want 400", spec, code, body)
		}
	}
	// Valid specs must pass validation (not run — no Start()).
	for _, spec := range []JobSpec{
		{Bench: "nbody", Faults: "seed=3,rate=0.1,kinds=hls,run"},
		{Bench: "nbody", Faults: "off"},
		{Bench: "nbody", RetryMaxAttempts: 3, RetryBudget: -1, TaskTimeoutMS: 500},
	} {
		if code, body := submit(t, ts.URL, spec); code != http.StatusAccepted {
			t.Errorf("spec %+v: got %d (%s), want 202", spec, code, body)
		}
	}
}

// TestFlowEnvResolution checks the per-job spec vs server-default
// precedence: empty inherits, "off" disables even over a default, and
// retry overrides land in the policy.
func TestFlowEnvResolution(t *testing.T) {
	paper := flowlang.Bundled().Compile(flowlang.Options{})
	def := experiments.Settings{Faults: "seed=7,rate=0.5", Retry: faults.DefaultRetry}
	sp := &JobSpec{Bench: "nbody"}
	env, err := sp.flowEnv(paper, def)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Faults.Enabled() || env.Faults.Seed() != 7 {
		t.Errorf("empty job spec should inherit the server default injector, got %v", env.Faults)
	}

	sp = &JobSpec{Bench: "nbody", Faults: "off"}
	if env, err = sp.flowEnv(paper, def); err != nil || env.Faults.Enabled() {
		t.Errorf(`"off" should beat the server default, got inj=%v err=%v`, env.Faults, err)
	}

	sp = &JobSpec{Bench: "nbody", Faults: "seed=2,rate=0.25,kinds=device", RetryMaxAttempts: 3, RetryBudget: -1, TaskTimeoutMS: 250}
	env, err = sp.flowEnv(paper, experiments.Settings{Retry: faults.DefaultRetry})
	if err != nil {
		t.Fatal(err)
	}
	if env.Faults.Seed() != 2 {
		t.Errorf("job spec seed not honoured: %v", env.Faults)
	}
	if env.Retry.MaxAttempts != 3 {
		t.Errorf("retry_max_attempts override lost: %+v", env.Retry)
	}
	if env.Retry.WithDefaults().Budget != 0 {
		t.Errorf("retry_budget=-1 should mean unlimited, got %d", env.Retry.WithDefaults().Budget)
	}
	if env.TaskTimeout != 250*time.Millisecond {
		t.Errorf("task timeout lost: %v", env.TaskTimeout)
	}
}

// fetchResult retrieves and decodes a terminal job's result.
func fetchResult(t *testing.T, base, id string) JobResult {
	t.Helper()
	code, body := getJSON(t, base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result %s: got %d, body %s", id, code, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFailureClassification drives each terminal error shape through a
// runFlow hook and checks the class reported in the job result.
func TestFailureClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		panics    bool
		wantState JobState
		wantClass string
	}{
		{name: "plain error", err: errors.New("boom"), wantState: StateFailed, wantClass: FailureError},
		{name: "fault", err: fmt.Errorf("flow: %w", &faults.Fault{Kind: faults.Device, Op: "a10", N: 1}), wantState: StateFailed, wantClass: FailureFault},
		{name: "timeout", err: context.DeadlineExceeded, wantState: StateFailed, wantClass: FailureTimeout},
		{name: "cancelled", err: context.Canceled, wantState: StateCancelled, wantClass: FailureCancelled},
		{name: "panic", panics: true, wantState: StateFailed, wantClass: FailurePanic},
		{name: "success", err: nil, wantState: StateDone, wantClass: ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
			s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
				if tc.panics {
					panic("kaboom")
				}
				return nil, tc.err
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
			waitState(t, ts.URL, st.ID, 10*time.Second, tc.wantState)
			res := fetchResult(t, ts.URL, st.ID)
			if res.FailureClass != tc.wantClass {
				t.Errorf("failure class: got %q, want %q (error %q)", res.FailureClass, tc.wantClass, res.Error)
			}
		})
	}
}

// TestPersistIOFaultsRetried injects transient I/O faults into every job
// record the daemon writes — submit, result, and the evict of a pending
// record start-up cannot replay — and checks they are retried to success,
// with the injections and retries visible on the service recorder.
func TestPersistIOFaultsRetried(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{DataDir: dir, Faults: "seed=1,rate=0.4,kinds=io", Retry: fastRetry})
	// Left by an older daemon: acknowledged submissions whose spec this
	// build no longer accepts.
	st, err := store.Open(s.storePath(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const stale = 10
	for i := 0; i < stale; i++ {
		rec := store.Record{Op: store.OpSubmit, ID: fmt.Sprintf("stale-%02d", i), Data: json.RawMessage(`{"bench":"retired"}`)}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.openStore(); err != nil {
		t.Fatal(err)
	}
	if n := s.replayStore(); n != 0 {
		t.Fatalf("replay of %d unreplayable records requeued %d", stale, n)
	}
	if n := s.store.Stats().PendingJobs; n != 0 {
		t.Errorf("%d of %d unreplayable records survived their evict", n, stale)
	}
	if got := s.rec.Counter(telemetry.CounterFaultsInjected); got == 0 {
		t.Error("rate=0.4 over 10 replay evicts injected nothing; the evict bypasses persistIO")
	}

	b, prog, err := (&JobSpec{Bench: "nbody"}).validate(s.programs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		job := s.newJob(fmt.Sprintf("job-%02d", i), JobSpec{Bench: "nbody"}, b, prog, time.Now())
		if _, err := s.admit(job); err != nil {
			t.Fatalf("admit %s: %v", job.ID, err)
		}
		if !s.start(job, func() {}, "") {
			t.Fatalf("start %s refused", job.ID)
		}
		s.complete(job, store.OpResult, &outcome{state: StateDone})
		if e, ok := s.store.Get(job.ID); !ok || e.Phase != store.PhaseTerminal {
			t.Fatalf("result %s not in the store: %+v ok=%v", job.ID, e, ok)
		}
	}
	if got := s.rec.Counter(telemetry.CounterRetryAttempts); got == 0 {
		t.Error("injected I/O faults were not retried")
	}
}

// TestPersistIOFaultsExhaust: at rate=1 every attempt fails, so the
// write must give up with the fault surfaced (the daemon logs and moves
// on — a lost result file must never take a worker down).
func TestPersistIOFaultsExhaust(t *testing.T) {
	dir := t.TempDir()
	var logs logCapture
	s := New(Config{DataDir: dir, Faults: "seed=1,rate=1,kinds=io", Retry: fastRetry, Logf: logs.logf})
	if err := s.openStore(); err != nil {
		t.Fatal(err)
	}
	b, prog, err := (&JobSpec{Bench: "nbody"}).validate(s.programs)
	if err != nil {
		t.Fatal(err)
	}
	job := s.newJob("doomed", JobSpec{Bench: "nbody"}, b, prog, time.Now())
	_, err = s.admit(job)
	if err == nil {
		t.Fatal("rate=1 I/O injection still succeeded")
	}
	if faults.AsFault(err) == nil {
		t.Errorf("exhausted persist error should carry the fault chain, got %v", err)
	}
	// The terminal write gives up the same way, and says so in the log: the
	// job is terminal and readable all the same.
	if err := s.enqueue(job, false); err != nil || !s.start(job, func() {}, "") {
		t.Fatal("could not start the job past its failed submit record")
	}
	if st, ok := s.complete(job, store.OpResult, &outcome{state: StateDone}); !ok || st.State != StateDone || job.Result() == nil {
		t.Errorf("job whose terminal write failed ended %+v (ok=%v) with result %q", st, ok, job.Result())
	}
	if got := logs.take(); !strings.Contains(got, "job doomed: persist result:") {
		t.Errorf("failed terminal write not logged:\n%s", got)
	}
	// The injection fires before the WAL append, so the failed writes left
	// no record behind.
	if _, ok := s.store.Get("doomed"); ok {
		t.Error("failed write left a store record behind")
	}
}

// TestChaosSoak pushes real informed flows through the pool with fault
// injection enabled: every job must finish done (degradation, not
// failure), and the merged /metrics must expose the resilience counters.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8, Retry: fastRetry})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := 1; seed <= 3; seed++ {
		st := submitOK(t, ts.URL, JobSpec{
			Bench:  "adpredictor",
			Faults: fmt.Sprintf("seed=%d,rate=0.2", seed),
		})
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, ts.URL, id, 120*time.Second, StateDone)
		res := fetchResult(t, ts.URL, id)
		if res.FailureClass != "" {
			t.Errorf("job %s: failure class %q on a done job", id, res.FailureClass)
		}
		feasible := 0
		for _, d := range res.Designs {
			if d.Infeasible == "" {
				feasible++
			}
		}
		if feasible == 0 {
			t.Errorf("job %s: no feasible design under chaos", id)
		}
		if res.Telemetry != nil {
			if want := res.Telemetry.Counters[telemetry.CounterFaultDegradations]; res.DegradedDesigns != want {
				t.Errorf("job %s: degraded_designs=%d, telemetry says %d", id, res.DegradedDesigns, want)
			}
		}
	}
	c := fetchMetrics(t, ts.URL).Telemetry.Counters
	if c[telemetry.CounterFaultsInjected] == 0 {
		t.Error("soak at rate=0.2 injected nothing according to /metrics")
	}
	if c[telemetry.CounterRetryAttempts] == 0 {
		t.Error("soak retried nothing according to /metrics")
	}
}
