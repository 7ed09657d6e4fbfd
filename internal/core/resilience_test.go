package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"psaflow/internal/faults"
	"psaflow/internal/telemetry"
)

// fastRetry keeps resilience tests quick: microsecond backoff.
var fastRetry = faults.RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   time.Microsecond,
	MaxDelay:    10 * time.Microsecond,
}

// resilientCtx returns a Context with resilience active (an enabled
// injector flips the engine's recovery tiers on) but whose injector is
// never consulted — the test tasks simulate faults themselves, keeping
// each scenario deterministic and explicit.
func resilientCtx(rec *telemetry.Recorder) *Context {
	return &Context{Faults: faults.New(1, 1), Retry: fastRetry, Telemetry: rec}
}

// transientFault builds the error a retry-worthy instrumented call site
// would surface.
func transientFault(op string) error {
	return &faults.Fault{Kind: faults.Run, Op: op, N: 1, Transient: true}
}

// deviceFault builds the non-transient fault of an unavailable target.
func deviceFault(op string) error {
	return &faults.Fault{Kind: faults.Device, Op: op, N: 1}
}

func TestRunTaskRetriesTransient(t *testing.T) {
	rec := telemetry.New()
	calls := 0
	flow := &Flow{Name: "retry"}
	flow.AddTask(TaskFunc{TaskName: "flaky", TaskKind: Analysis,
		Fn: func(*Context, *Design) error {
			calls++
			if calls < 3 {
				return transientFault("flaky")
			}
			return nil
		}})
	out, err := flow.Run(resilientCtx(rec), newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 3 || len(out) != 1 {
		t.Fatalf("calls=%d out=%d", calls, len(out))
	}
	if got := rec.Counter(telemetry.CounterRetryAttempts); got != 2 {
		t.Errorf("retry.attempts = %d, want 2", got)
	}
	if got := rec.Counter(telemetry.CounterRetryGiveups); got != 0 {
		t.Errorf("retry.giveups = %d, want 0", got)
	}
}

func TestRunTaskGiveupAfterMaxAttempts(t *testing.T) {
	rec := telemetry.New()
	calls := 0
	flow := &Flow{Name: "giveup"}
	flow.AddTask(TaskFunc{TaskName: "doomed", TaskKind: Analysis,
		Fn: func(*Context, *Design) error {
			calls++
			return transientFault("doomed")
		}})
	_, err := flow.Run(resilientCtx(rec), newTestDesign())
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if calls != fastRetry.MaxAttempts {
		t.Fatalf("calls = %d, want %d", calls, fastRetry.MaxAttempts)
	}
	// The flow position names the task once; the exhaustion does not
	// name it again.
	if want := fmt.Sprintf("flow giveup: task doomed: %d attempts exhausted: %v", fastRetry.MaxAttempts, transientFault("doomed")); err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	// The exhausted error must keep its fault classification so a branch
	// above could still degrade the path.
	if !faults.Degradable(err) {
		t.Error("exhausted error lost its fault chain")
	}
	if got := rec.Counter(telemetry.CounterRetryGiveups); got != 1 {
		t.Errorf("retry.giveups = %d, want 1", got)
	}
}

func TestRunTaskNonTransientFailsFast(t *testing.T) {
	rec := telemetry.New()
	calls := 0
	flow := &Flow{Name: "fast-fail"}
	flow.AddTask(TaskFunc{TaskName: "device", TaskKind: Analysis,
		Fn: func(*Context, *Design) error {
			calls++
			return deviceFault("board0")
		}})
	if _, err := flow.Run(resilientCtx(rec), newTestDesign()); err == nil {
		t.Fatal("expected error")
	}
	if calls != 1 {
		t.Fatalf("non-transient fault retried: %d calls", calls)
	}
	if got := rec.Counter(telemetry.CounterRetryAttempts); got != 0 {
		t.Errorf("retry.attempts = %d, want 0", got)
	}
}

func TestRetryBudgetCapsFlowWideRetries(t *testing.T) {
	rec := telemetry.New()
	ctx := resilientCtx(rec)
	ctx.Retry = faults.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Budget:      2,
	}
	calls := 0
	flow := &Flow{Name: "budgeted-retries"}
	flow.AddTask(TaskFunc{TaskName: "doomed", TaskKind: Analysis,
		Fn: func(*Context, *Design) error {
			calls++
			return transientFault("doomed")
		}})
	_, err := flow.Run(ctx, newTestDesign())
	if want := "flow budgeted-retries: task doomed: flow retry budget exhausted: " + transientFault("doomed").Error(); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	// Initial attempt + Budget retries, then the next retry is denied.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if got := rec.Counter(telemetry.CounterRetryBudgetExhausted); got != 1 {
		t.Errorf("retry.budget_exhausted = %d, want 1", got)
	}
	if got := rec.Counter(telemetry.CounterRetryAttempts); got != 2 {
		t.Errorf("retry.attempts = %d, want 2", got)
	}
}

func TestTaskTimeoutClassifiedAndRetried(t *testing.T) {
	rec := telemetry.New()
	ctx := &Context{TaskTimeout: 20 * time.Millisecond, Retry: fastRetry, Telemetry: rec}
	calls := 0
	flow := &Flow{Name: "timeouts"}
	flow.AddTask(TaskFunc{TaskName: "hang", TaskKind: Analysis,
		Fn: func(c *Context, _ *Design) error {
			calls++
			if calls == 1 {
				<-c.Ctx.Done() // simulate a hung tool invocation
				return c.Ctx.Err()
			}
			return nil
		}})
	out, err := flow.Run(ctx, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 2 || len(out) != 1 {
		t.Fatalf("calls=%d out=%d", calls, len(out))
	}
	if got := rec.Counter(telemetry.CounterTaskTimeouts); got != 1 {
		t.Errorf("fault.task_timeouts = %d, want 1", got)
	}
	if got := rec.Counter(telemetry.CounterRetryAttempts); got != 1 {
		t.Errorf("retry.attempts = %d, want 1", got)
	}
}

func TestTaskTimeoutDoesNotMaskFlowCancellation(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	ctx := &Context{Ctx: base, TaskTimeout: time.Minute, Retry: fastRetry}
	calls := 0
	flow := &Flow{Name: "cancelled"}
	flow.AddTask(TaskFunc{TaskName: "victim", TaskKind: Analysis,
		Fn: func(c *Context, _ *Design) error {
			calls++
			cancel() // the job is cancelled mid-task
			<-c.Ctx.Done()
			return c.Ctx.Err()
		}})
	_, err := flow.Run(ctx, newTestDesign())
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("cancelled task retried: %d calls", calls)
	}
}

// preferFirst is an informed-style selector: it prefers the paths in
// their declared order, so fault fallbacks walk that order.
var preferFirst = SelectorFunc{SelName: "prefer-first",
	Fn: func(_ *Context, _ *Design, paths []Path) ([]Alternative, error) {
		order := make([]int, len(paths))
		for i := range order {
			order[i] = i
		}
		return Prefer(order...), nil
	}}

// failingPathFlow stamps the device like pathFlow, but fails with a
// non-transient device fault when the path's name is in bad.
func failingPathFlow(name string, bad map[string]bool) *Flow {
	f := &Flow{Name: name}
	f.AddTask(TaskFunc{TaskName: "stamp-" + name, TaskKind: Transform,
		Fn: func(_ *Context, d *Design) error {
			if bad[name] {
				return deviceFault(name)
			}
			d.Device = name
			return nil
		}})
	return f
}

// TestInformedFallbackOrdering is the satellite table test: with paths
// preferred a > b > c and 1..N of them failing, the branch must land on
// the first surviving path (or terminate unspecialized when all fail),
// reporting each failed path as an Infeasible verdict.
func TestInformedFallbackOrdering(t *testing.T) {
	cases := []struct {
		name       string
		bad        map[string]bool
		wantDevice string // "" = no surviving path, design unmodified
	}{
		{"first-fails", map[string]bool{"a": true}, "b"},
		{"first-two-fail", map[string]bool{"a": true, "b": true}, "c"},
		{"all-fail", map[string]bool{"a": true, "b": true, "c": true}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := telemetry.New()
			flow := &Flow{Name: "informed"}
			flow.AddBranch(Branch{PointName: "X",
				Paths: []Path{
					{Name: "a", Flow: failingPathFlow("a", c.bad)},
					{Name: "b", Flow: failingPathFlow("b", c.bad)},
					{Name: "c", Flow: failingPathFlow("c", c.bad)},
				},
				Select: preferFirst})
			out, err := flow.Run(resilientCtx(rec), newTestDesign())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var survivors, verdicts []*Design
			for _, d := range out {
				if d.Infeasible != "" {
					verdicts = append(verdicts, d)
				} else {
					survivors = append(survivors, d)
				}
			}
			if len(survivors) != 1 {
				t.Fatalf("survivors = %d, want 1 (%v)", len(survivors), out)
			}
			if survivors[0].Device != c.wantDevice {
				t.Errorf("landed on %q, want %q", survivors[0].Device, c.wantDevice)
			}
			if len(verdicts) != len(c.bad) {
				t.Errorf("failure verdicts = %d, want %d", len(verdicts), len(c.bad))
			}
			for _, v := range verdicts {
				if !strings.Contains(v.Infeasible, "failed") {
					t.Errorf("verdict %q does not report the failure", v.Infeasible)
				}
			}
			if got := rec.Counter(telemetry.CounterFaultFallbacks); got != int64(len(c.bad)) {
				t.Errorf("fault.fallbacks = %d, want %d", got, len(c.bad))
			}
			if got := rec.Counter(telemetry.CounterFaultDegradations); got != int64(len(c.bad)) {
				t.Errorf("fault.degradations = %d, want %d", got, len(c.bad))
			}
		})
	}
}

// TestUninformedBranchReportsFailureVerdicts: SelectAll keeps the
// surviving versions and turns each failed path into an Infeasible
// verdict instead of aborting the generation sweep.
func TestUninformedBranchReportsFailureVerdicts(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			rec := telemetry.New()
			bad := map[string]bool{"b": true}
			flow := &Flow{Name: "uninformed"}
			flow.AddBranch(Branch{PointName: "X",
				Paths: []Path{
					{Name: "a", Flow: failingPathFlow("a", bad)},
					{Name: "b", Flow: failingPathFlow("b", bad)},
					{Name: "c", Flow: failingPathFlow("c", bad)},
				},
				Select: SelectAll{}})
			ctx := resilientCtx(rec)
			ctx.Parallel = parallel
			out, err := flow.Run(ctx, newTestDesign())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(out) != 3 {
				t.Fatalf("designs = %d, want 3 (2 survivors + 1 verdict)", len(out))
			}
			devices := map[string]bool{}
			verdicts := 0
			for _, d := range out {
				if d.Infeasible != "" {
					verdicts++
					if !strings.Contains(d.Infeasible, `path "b" failed`) {
						t.Errorf("verdict = %q", d.Infeasible)
					}
					continue
				}
				devices[d.Device] = true
			}
			if verdicts != 1 || !devices["a"] || !devices["c"] {
				t.Errorf("verdicts=%d devices=%v", verdicts, devices)
			}
			if got := rec.Counter(telemetry.CounterFaultFallbacks); got != 0 {
				t.Errorf("multi-select recorded %d fallbacks, want 0", got)
			}
			if got := rec.Counter(telemetry.CounterFaultDegradations); got != 1 {
				t.Errorf("fault.degradations = %d, want 1", got)
			}
		})
	}
}

// TestNestedBranchAllFailFallsBack: when every path of a nested
// multi-select branch fails, the enclosing informed branch treats the
// whole sub-flow as failed and falls back to its next-best path — the
// "both GPUs unavailable → strategy retargets" scenario.
func TestNestedBranchAllFailFallsBack(t *testing.T) {
	rec := telemetry.New()
	bad := map[string]bool{"dev0": true, "dev1": true}
	inner := &Flow{Name: "devices"}
	inner.AddBranch(Branch{PointName: "B",
		Paths: []Path{
			{Name: "dev0", Flow: failingPathFlow("dev0", bad)},
			{Name: "dev1", Flow: failingPathFlow("dev1", bad)},
		},
		Select: SelectAll{}})
	outer := &Flow{Name: "targets"}
	outer.AddBranch(Branch{PointName: "A",
		Paths: []Path{
			{Name: "accel", Flow: inner},
			{Name: "cpu", Flow: pathFlow("cpu")},
		},
		Select: preferFirst})
	out, err := outer.Run(resilientCtx(rec), newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var survivor *Design
	verdicts := 0
	for _, d := range out {
		if d.Infeasible != "" {
			verdicts++
			if !strings.Contains(d.Infeasible, "all 2 selected paths failed") {
				t.Errorf("verdict = %q", d.Infeasible)
			}
			continue
		}
		survivor = d
	}
	if survivor == nil || survivor.Device != "cpu" {
		t.Fatalf("fallback did not land on cpu: %v", out)
	}
	if verdicts != 1 {
		t.Errorf("verdicts = %d, want 1 (the degraded accel sub-flow)", verdicts)
	}
	if got := rec.Counter(telemetry.CounterFaultFallbacks); got != 1 {
		t.Errorf("fault.fallbacks = %d, want 1", got)
	}
}

// TestDegradationDisabledWithoutResilience: with injection off and no
// task timeout, a fault-shaped error still aborts the flow — the
// pre-resilience contract.
func TestDegradationDisabledWithoutResilience(t *testing.T) {
	flow := &Flow{Name: "strict"}
	flow.AddBranch(Branch{PointName: "X",
		Paths:  []Path{{Name: "a", Flow: failingPathFlow("a", map[string]bool{"a": true})}},
		Select: preferFirst})
	if _, err := flow.Run(&Context{}, newTestDesign()); err == nil {
		t.Fatal("expected failure to abort without resilience")
	}
}

// TestFailPointCounters: an injector wired through the Context records
// both the aggregate and the per-kind injection counters.
func TestFailPointCounters(t *testing.T) {
	rec := telemetry.New()
	ctx := &Context{Faults: faults.New(1, 1), Telemetry: rec}
	if err := ctx.FailPoint(faults.HLS, "devA"); err == nil {
		t.Fatal("rate=1 injector did not fire")
	}
	if err := ctx.FailPoint(faults.Run, "run:gpu:main"); err == nil {
		t.Fatal("rate=1 injector did not fire")
	}
	if got := rec.Counter(telemetry.CounterFaultsInjected); got != 2 {
		t.Errorf("fault.injected = %d, want 2", got)
	}
	if got := rec.Counter(telemetry.FaultCounter("hls")); got != 1 {
		t.Errorf("fault.injected.hls = %d, want 1", got)
	}
}

// TestResilientSingleSelectForks: with resilience active, even a single
// selected path runs on a fork so a fallback can restart from the
// pristine design.
func TestResilientSingleSelectForks(t *testing.T) {
	rec := telemetry.New()
	flow := &Flow{Name: "fork-check"}
	flow.AddBranch(Branch{PointName: "X",
		Paths:  []Path{{Name: "a", Flow: pathFlow("a")}},
		Select: preferFirst})

	if _, err := flow.Run(&Context{Telemetry: rec}, newTestDesign()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(telemetry.CounterDesignsForked); got != 0 {
		t.Fatalf("non-resilient single select forked %d times, want 0", got)
	}

	rec2 := telemetry.New()
	if _, err := flow.Run(resilientCtx(rec2), newTestDesign()); err != nil {
		t.Fatal(err)
	}
	if got := rec2.Counter(telemetry.CounterDesignsForked); got != 1 {
		t.Fatalf("resilient single select forked %d times, want 1", got)
	}
}

// TestSpanNotesRecordRecovery: retry annotations surface in the span
// snapshot so operators can see a flow's recovery history.
func TestSpanNotesRecordRecovery(t *testing.T) {
	rec := telemetry.New()
	calls := 0
	flow := &Flow{Name: "noted"}
	flow.AddTask(TaskFunc{TaskName: "flaky", TaskKind: Analysis,
		Fn: func(*Context, *Design) error {
			calls++
			if calls == 1 {
				return transientFault("flaky")
			}
			return nil
		}})
	if _, err := flow.Run(resilientCtx(rec), newTestDesign()); err != nil {
		t.Fatal(err)
	}
	var notes []string
	var walk func(s telemetry.SpanSnapshot)
	walk = func(s telemetry.SpanSnapshot) {
		notes = append(notes, s.Notes...)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range rec.Snapshot().Spans {
		walk(s)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "retry 1") {
		t.Fatalf("span notes = %v", notes)
	}
}
