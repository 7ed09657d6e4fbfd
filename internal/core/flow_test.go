package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/codegen"
	"psaflow/internal/hls"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/telemetry"
)

const flowSrc = `
void app(int n, double *a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
}
`

func newTestDesign() *Design {
	return NewDesign("test", minic.MustParse(flowSrc))
}

// record builds a task that appends its name to a log slice.
func record(log *[]string, name string) Task {
	return TaskFunc{
		TaskName: name, TaskKind: Transform,
		Fn: func(ctx *Context, d *Design) error {
			*log = append(*log, name+"@"+d.Label())
			return nil
		},
	}
}

func TestFlowSequentialTasks(t *testing.T) {
	var log []string
	flow := &Flow{Name: "seq"}
	flow.AddTask(record(&log, "t1"))
	flow.AddTask(record(&log, "t2"))
	flow.AddTask(record(&log, "t3"))
	out, err := flow.Run(&Context{}, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("designs = %d, want 1", len(out))
	}
	if len(log) != 3 || !strings.HasPrefix(log[0], "t1") || !strings.HasPrefix(log[2], "t3") {
		t.Fatalf("log = %v", log)
	}
	// Trace records every task.
	if len(out[0].Trace) != 3 {
		t.Fatalf("trace = %v", out[0].Trace)
	}
}

func TestFlowTaskError(t *testing.T) {
	flow := &Flow{Name: "failing"}
	flow.AddTask(TaskFunc{TaskName: "boom", TaskKind: Analysis,
		Fn: func(*Context, *Design) error { return errors.New("kaput") }})
	_, err := flow.Run(&Context{}, newTestDesign())
	if err == nil {
		t.Fatal("expected error")
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("error type %T", err)
	}
	if fe.Task != "boom" || fe.Flow != "failing" {
		t.Fatalf("flow error = %+v", fe)
	}
}

// TestTaskNeedsFact: a flow built in Go that runs a task before the task
// that gives its fact fails with a FlowError naming the task and the fact,
// and the task's Fn never runs. Facts a design holds survive Fork.
func TestTaskNeedsFact(t *testing.T) {
	ran := false
	give := TaskFunc{TaskName: "give", Give: FactKernel, Fn: func(*Context, *Design) error { return nil }}
	need := TaskFunc{TaskName: "need", Need: FactKernel | FactDeps,
		Fn: func(*Context, *Design) error { ran = true; return nil }}
	_, err := (&Flow{Name: "order"}).AddTask(need).AddTask(give).Run(&Context{}, newTestDesign())
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Task != "need" || fe.Err.Error() != "needs kernel and deps" {
		t.Fatalf("err = %v, want task need failing with needs kernel and deps", err)
	}
	if ran {
		t.Error("Fn ran on a design without the facts it needs")
	}

	d := newTestDesign()
	if err := give.Run(&Context{}, d); err != nil {
		t.Fatal(err)
	}
	need.Need = FactKernel
	if err := need.Run(&Context{}, d.Fork()); err != nil || !ran {
		t.Errorf("fork lost the kernel fact: err = %v, ran = %t", err, ran)
	}
}

// TestTaskChoosesOnce: a flow built in Go that gives a design's target or
// device a second time fails with the message flowlang.Check refuses the
// same document with, and the second task's Fn never runs; facts that are
// not choices may be given again.
func TestTaskChoosesOnce(t *testing.T) {
	ran := 0
	give := func(name string, f Fact) TaskFunc {
		return TaskFunc{TaskName: name, Give: f, Fn: func(*Context, *Design) error { ran++; return nil }}
	}
	cases := []struct {
		first, second Fact
		want          string // "" when the second task runs
	}{
		{FactTarget, FactTarget, "chooses target twice: a path chooses its target and its device once"},
		{FactTarget | FactDevice, FactDevice, "chooses device twice: a path chooses its target and its device once"},
		{FactTarget, FactDevice, ""},
		{FactDeps, FactDeps, ""},
	}
	for _, c := range cases {
		ran = 0
		_, err := (&Flow{Name: "twice"}).AddTask(give("first", c.first)).AddTask(give("second", c.second)).Run(&Context{}, newTestDesign())
		if c.want == "" {
			if err != nil || ran != 2 {
				t.Errorf("%v then %v: err = %v, ran = %d", c.first, c.second, err, ran)
			}
			continue
		}
		var fe *FlowError
		if !errors.As(err, &fe) || fe.Task != "second" || fe.Err.Error() != c.want {
			t.Errorf("%v then %v: err = %v, want task second failing with %q", c.first, c.second, err, c.want)
		}
		if ran != 1 {
			t.Errorf("%v then %v: %d Fn ran, want the first alone", c.first, c.second, ran)
		}
	}
}

// pathFlow builds a sub-flow that stamps the design's Device.
func pathFlow(name string) *Flow {
	f := &Flow{Name: name}
	f.AddTask(TaskFunc{TaskName: "stamp-" + name, TaskKind: Transform,
		Fn: func(ctx *Context, d *Design) error {
			d.Device = name
			return nil
		}})
	return f
}

func TestBranchSelectAllForks(t *testing.T) {
	flow := &Flow{Name: "fork"}
	flow.AddBranch(Branch{
		PointName: "X",
		Paths: []Path{
			{Name: "a", Flow: pathFlow("a")},
			{Name: "b", Flow: pathFlow("b")},
			{Name: "c", Flow: pathFlow("c")},
		},
		Select: SelectAll{},
	})
	out, err := flow.Run(&Context{}, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("designs = %d, want 3", len(out))
	}
	devices := map[string]bool{}
	for _, d := range out {
		devices[d.Device] = true
		// Forked designs hold programs of their own (which share function
		// declarations until one is edited).
		for _, other := range out {
			if other != d && other.Prog == d.Prog {
				t.Fatal("forked designs share a program")
			}
		}
	}
	if !devices["a"] || !devices["b"] || !devices["c"] {
		t.Fatalf("devices = %v", devices)
	}
}

func TestBranchSingleSelection(t *testing.T) {
	sel := SelectorFunc{SelName: "pick-b",
		Fn: func(ctx *Context, d *Design, paths []Path) ([]Alternative, error) {
			return Prefer(1), nil
		}}
	flow := &Flow{Name: "single"}
	flow.AddBranch(Branch{PointName: "X",
		Paths:  []Path{{Name: "a", Flow: pathFlow("a")}, {Name: "b", Flow: pathFlow("b")}},
		Select: sel})
	out, err := flow.Run(&Context{}, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 1 || out[0].Device != "b" {
		t.Fatalf("out = %v", out)
	}
	// The single selection must not fork (same design flows on).
	found := false
	for _, ev := range out[0].Trace {
		if ev.Kind == "branch" && strings.Contains(ev.Detail, `path "b"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("branch trace missing: %v", out[0].Trace)
	}
}

func TestBranchNoPathTerminates(t *testing.T) {
	sel := SelectorFunc{SelName: "none",
		Fn: func(ctx *Context, d *Design, paths []Path) ([]Alternative, error) {
			return nil, nil
		}}
	flow := &Flow{Name: "terminate"}
	flow.AddBranch(Branch{PointName: "X",
		Paths:  []Path{{Name: "a", Flow: pathFlow("a")}},
		Select: sel})
	out, err := flow.Run(&Context{}, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Design passes through unmodified (Fig. 3: flow terminates without
	// specializing).
	if len(out) != 1 || out[0].Device != "" {
		t.Fatalf("out = %+v", out[0])
	}
}

func TestBranchInvalidIndex(t *testing.T) {
	sel := SelectorFunc{SelName: "bad",
		Fn: func(ctx *Context, d *Design, paths []Path) ([]Alternative, error) {
			return Prefer(7), nil
		}}
	flow := &Flow{Name: "bad"}
	flow.AddBranch(Branch{PointName: "X", Paths: []Path{{Name: "a", Flow: pathFlow("a")}}, Select: sel})
	if _, err := flow.Run(&Context{}, newTestDesign()); err == nil {
		t.Fatal("expected error for invalid path index")
	}
}

// TestBudgetFeedback exercises the Fig. 3 cost-evaluation loop: the first
// alternative exceeds the budget, so the branch takes the strategy's next.
func TestBudgetFeedback(t *testing.T) {
	costs := map[string]float64{"expensive": 100, "cheap": 1}
	sel := SelectorFunc{SelName: "greedy",
		Fn: func(ctx *Context, d *Design, paths []Path) ([]Alternative, error) {
			return Prefer(0, 1), nil // expensive first
		}}
	flow := &Flow{Name: "budgeted"}
	flow.AddBranch(Branch{PointName: "X",
		Paths:  []Path{{Name: "expensive", Flow: pathFlow("expensive")}, {Name: "cheap", Flow: pathFlow("cheap")}},
		Select: sel, Gated: true})
	ctx := &Context{
		Budget: 10,
		Cost:   func(d *Design) float64 { return costs[d.Device] },
	}
	out, err := flow.Run(ctx, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 1 || out[0].Device != "cheap" {
		t.Fatalf("budget feedback should land on cheap path, got %v", out[0].Device)
	}
	// Trace should record the revision.
	revised := false
	for _, ev := range out[0].Trace {
		if strings.Contains(ev.Detail, "re-selecting") {
			revised = true
		}
	}
	if !revised {
		t.Fatalf("revision not traced: %v", out[0].Trace)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	sel := SelectorFunc{SelName: "stubborn",
		Fn: func(ctx *Context, d *Design, paths []Path) ([]Alternative, error) {
			return Prefer(0), nil // no second choice → terminates
		}}
	flow := &Flow{Name: "exhaust"}
	flow.AddBranch(Branch{PointName: "X",
		Paths:  []Path{{Name: "only", Flow: pathFlow("only")}},
		Select: sel, Gated: true, MaxRevisions: 2})
	ctx := &Context{Budget: 1, Cost: func(*Design) float64 { return 50 }}
	out, err := flow.Run(ctx, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Out of alternatives: unmodified design.
	if len(out) != 1 || out[0].Device != "" {
		t.Fatalf("out = %v", out)
	}
}

func TestInfeasibleDesignSkipsRemainingTasks(t *testing.T) {
	var log []string
	flow := &Flow{Name: "skip"}
	flow.AddTask(TaskFunc{TaskName: "mark", TaskKind: Optimisation,
		Fn: func(ctx *Context, d *Design) error {
			d.Infeasible = "overmap"
			return nil
		}})
	flow.AddTask(record(&log, "after"))
	out, err := flow.Run(&Context{}, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log) != 0 {
		t.Fatalf("tasks ran after infeasibility: %v", log)
	}
	if out[0].Infeasible != "overmap" {
		t.Fatal("infeasibility lost")
	}
}

func TestNestedBranches(t *testing.T) {
	inner := &Flow{Name: "inner"}
	inner.AddBranch(Branch{PointName: "B",
		Paths:  []Path{{Name: "x", Flow: pathFlow("x")}, {Name: "y", Flow: pathFlow("y")}},
		Select: SelectAll{}})
	flow := &Flow{Name: "outer"}
	flow.AddBranch(Branch{PointName: "A",
		Paths:  []Path{{Name: "p", Flow: inner}, {Name: "q", Flow: pathFlow("q")}},
		Select: SelectAll{}})
	out, err := flow.Run(&Context{}, newTestDesign())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 3 { // p→{x,y} + q
		t.Fatalf("designs = %d, want 3", len(out))
	}
}

func TestForkIndependence(t *testing.T) {
	d := newTestDesign()
	d.Report.KernelFlops = 42
	d.SharedMem = []string{"a"}
	d.Tracef("note", "orig", "first")
	f := d.Fork()
	f.Report.KernelFlops = 99
	f.SharedMem[0] = "b"
	f.Tracef("note", "fork", "second")
	if d.Report.KernelFlops != 42 {
		t.Error("fork shares report")
	}
	if d.SharedMem[0] != "a" {
		t.Error("fork shares shared-mem slice")
	}
	if len(d.Trace) != 1 {
		t.Error("fork shares trace")
	}
}

// TestForkDeepCopiesReport: forks must not share the report's reference
// fields (AliasPairs backing array, OuterDeps pointer) — parallel branch
// paths would race or cross-contaminate analyses through them.
func TestForkDeepCopiesReport(t *testing.T) {
	d := newTestDesign()
	d.Report.AliasPairs = [][2]string{{"a", "b"}}
	d.Report.OuterDeps = &analysis.LoopDeps{
		LoopID:     7,
		Var:        "i",
		Carried:    []analysis.Dependence{{Kind: analysis.DepScalar, Name: "s"}},
		Reductions: []analysis.Reduction{{Name: "acc"}},
	}
	f := d.Fork()
	if f.Report.OuterDeps == d.Report.OuterDeps {
		t.Fatal("fork shares *LoopDeps")
	}
	f.Report.AliasPairs[0] = [2]string{"x", "y"}
	f.Report.AliasPairs = append(f.Report.AliasPairs, [2]string{"p", "q"})
	f.Report.OuterDeps.Carried[0].Name = "mutated"
	f.Report.OuterDeps.Reductions[0].Name = "mutated"
	if d.Report.AliasPairs[0] != [2]string{"a", "b"} || len(d.Report.AliasPairs) != 1 {
		t.Errorf("fork mutated original alias pairs: %v", d.Report.AliasPairs)
	}
	if d.Report.OuterDeps.Carried[0].Name != "s" {
		t.Errorf("fork mutated original carried deps: %v", d.Report.OuterDeps.Carried)
	}
	if d.Report.OuterDeps.Reductions[0].Name != "acc" {
		t.Errorf("fork mutated original reductions: %v", d.Report.OuterDeps.Reductions)
	}
}

// TestForkDeepCopiesArtifacts: the HLS report and rendered artifact are
// per-design results; forks must own their copies.
func TestForkDeepCopiesArtifacts(t *testing.T) {
	d := newTestDesign()
	d.HLSReport = &hls.Report{Device: "A10", Unroll: 4}
	d.Artifact = &codegen.Design{Target: "oneapi", LOC: 10}
	f := d.Fork()
	f.HLSReport.Unroll = 8
	f.Artifact.LOC = 99
	if d.HLSReport.Unroll != 4 || d.Artifact.LOC != 10 {
		t.Errorf("fork shares artifacts: hls=%+v art=%+v", d.HLSReport, d.Artifact)
	}
}

// TestBudgetExhaustionRevisionCount: with MaxRevisions=N and more than N+1
// over-budget alternatives on offer, the branch runs the first choice plus
// exactly N revisions, the trace numbers them 1..N, and the terminal error
// reports the same N.
func TestBudgetExhaustionRevisionCount(t *testing.T) {
	ran := 0
	costly := func(name string) *Flow {
		f := pathFlow(name)
		f.AddTask(TaskFunc{TaskName: "count", TaskKind: Analysis,
			Fn: func(*Context, *Design) error { ran++; return nil }})
		return f
	}
	const maxRev = 2
	flow := &Flow{Name: "exhaust-count"}
	flow.AddBranch(Branch{PointName: "X",
		Paths: []Path{
			{Name: "a", Flow: costly("a")}, {Name: "b", Flow: costly("b")},
			{Name: "c", Flow: costly("c")}, {Name: "d", Flow: costly("d")},
		},
		Select: preferFirst, Gated: true, MaxRevisions: maxRev})
	d := newTestDesign()
	ctx := &Context{Budget: 1, Cost: func(*Design) float64 { return 50 }}
	_, err := flow.Run(ctx, d)
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if want := fmt.Sprintf("exhausted %d revisions", maxRev); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not report %q", err, want)
	}
	if ran != maxRev+1 {
		t.Errorf("paths run = %d, want %d (first choice + %d revisions)", ran, maxRev+1, maxRev)
	}
	trace := fmt.Sprint(d.Trace)
	for rev := 1; rev <= maxRev; rev++ {
		if !strings.Contains(trace, fmt.Sprintf("revision %d:", rev)) {
			t.Errorf("trace missing revision %d: %v", rev, trace)
		}
	}
	if strings.Contains(trace, fmt.Sprintf("revision %d:", maxRev+1)) {
		t.Errorf("trace numbers a revision beyond MaxRevisions: %v", trace)
	}
}

// TestStepErrorLeavesPriorDesignsIntact: the Step case must build its
// output in a fresh slice; reusing the input's backing array would let a
// mid-step failure (or a future drop/expand step) corrupt designs that
// were already processed.
func TestStepErrorLeavesPriorDesignsIntact(t *testing.T) {
	var visited []*Design
	flow := &Flow{Name: "midstep"}
	flow.AddBranch(Branch{
		PointName: "X",
		Paths: []Path{
			{Name: "a", Flow: pathFlow("a")},
			{Name: "b", Flow: pathFlow("b")},
			{Name: "c", Flow: pathFlow("c")},
		},
		Select: SelectAll{},
	})
	flow.AddTask(TaskFunc{TaskName: "fail-on-b", TaskKind: Transform,
		Fn: func(ctx *Context, d *Design) error {
			visited = append(visited, d)
			if d.Device == "b" {
				return errors.New("boom")
			}
			d.NumThreads = 32 // mark successful processing
			return nil
		}})
	_, err := flow.Run(&Context{}, newTestDesign())
	if err == nil {
		t.Fatal("expected mid-step error")
	}
	if len(visited) != 2 {
		t.Fatalf("visited %d designs before failing, want 2", len(visited))
	}
	first := visited[0]
	if first.Device != "a" || first.NumThreads != 32 {
		t.Errorf("prior design corrupted: device=%q threads=%d", first.Device, first.NumThreads)
	}
}

// TestFlowTelemetrySpans: a recorded run produces the flow → branch →
// path → task hierarchy and the fork counter.
func TestFlowTelemetrySpans(t *testing.T) {
	rec := telemetry.New()
	flow := &Flow{Name: "observed"}
	flow.AddTask(TaskFunc{TaskName: "prep", TaskKind: Analysis,
		Fn: func(*Context, *Design) error { return nil }})
	flow.AddBranch(Branch{
		PointName: "X",
		Paths:     []Path{{Name: "a", Flow: pathFlow("a")}, {Name: "b", Flow: pathFlow("b")}},
		Select:    SelectAll{},
	})
	if _, err := flow.Run(&Context{Telemetry: rec, Parallel: true}, newTestDesign()); err != nil {
		t.Fatal(err)
	}
	rep := rec.Snapshot()
	if len(rep.Spans) != 1 || rep.Spans[0].Kind != telemetry.KindFlow {
		t.Fatalf("roots = %+v", rep.Spans)
	}
	kinds := map[string]int64{}
	names := map[string]bool{}
	for _, st := range rep.Stats {
		kinds[st.Kind] += st.Calls
		names[st.Name] = true
	}
	if kinds[telemetry.KindTask] != 3 { // prep + 2 path stamps
		t.Errorf("task spans = %d, want 3 (%v)", kinds[telemetry.KindTask], rep.Stats)
	}
	if kinds[telemetry.KindBranch] != 1 || kinds[telemetry.KindPath] != 2 {
		t.Errorf("branch/path spans = %d/%d, want 1/2", kinds[telemetry.KindBranch], kinds[telemetry.KindPath])
	}
	if !names["X/a"] || !names["X/b"] || !names["stamp-a"] {
		t.Errorf("span names missing: %v", names)
	}
	if got := rec.Counter(telemetry.CounterDesignsForked); got != 2 {
		t.Errorf("designs forked = %d, want 2", got)
	}
}

func TestTaskKindStrings(t *testing.T) {
	want := map[TaskKind]string{Analysis: "A", Transform: "T", CodeGen: "CG", Optimisation: "O"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// chooseGPU gives d the GPU target the way a generator task does.
func chooseGPU(t *testing.T, d *Design) {
	t.Helper()
	choose := TaskFunc{TaskName: "choose", Give: FactTarget, Fn: func(_ *Context, d *Design) error {
		d.Target = platform.TargetGPU
		return nil
	}}
	if err := choose.Run(&Context{}, d); err != nil {
		t.Fatal(err)
	}
}

func TestDesignLabel(t *testing.T) {
	d := newTestDesign()
	// Before a task chooses a target, the zero TargetKind (CPU) is no
	// choice, and the label is the app's alone.
	if got := d.Label(); got != "test" {
		t.Errorf("label = %q", got)
	}
	chooseGPU(t, d)
	if got := d.Label(); got != "test/gpu" {
		t.Errorf("label = %q", got)
	}
	d.Device = "X"
	if got := d.Label(); got != "test/gpu/X" {
		t.Errorf("label = %q", got)
	}
}

func TestTraceEventString(t *testing.T) {
	e := TraceEvent{Kind: "task", Name: "foo"}
	if e.String() != "[task] foo" {
		t.Errorf("got %q", e.String())
	}
	e.Detail = "bar"
	if e.String() != "[task] foo: bar" {
		t.Errorf("got %q", e.String())
	}
}

// TestTraceLines: TraceLines renders each event as String does, the empty
// parts and multi-byte text included, and no events as no lines.
func TestTraceLines(t *testing.T) {
	trace := []TraceEvent{
		{Kind: "note", Name: "no detail"},
		{},
		{Kind: "dse", Detail: "no name"},
		{Kind: "task", Name: "Générer ✓", Detail: "A: \"quoted\"\n"},
	}
	lines := TraceLines(trace)
	if len(lines) != len(trace) {
		t.Fatalf("%d lines for %d events", len(lines), len(trace))
	}
	for i, e := range trace {
		if lines[i] != e.String() {
			t.Errorf("line %d = %q, want %q", i, lines[i], e.String())
		}
	}
	if got := TraceLines(nil); got != nil {
		t.Errorf("no events gave lines %q, want nil", got)
	}
}

func TestFlowErrorUnwrap(t *testing.T) {
	inner := fmt.Errorf("inner")
	fe := &FlowError{Flow: "f", Task: "t", Err: inner}
	if !errors.Is(fe, inner) {
		t.Error("Unwrap broken")
	}
	if !strings.Contains(fe.Error(), "inner") {
		t.Errorf("message = %q", fe.Error())
	}
}

// TestParallelBranchMatchesSequential: parallel path evaluation produces
// the same designs in the same order as sequential.
func TestParallelBranchMatchesSequential(t *testing.T) {
	build := func() *Flow {
		flow := &Flow{Name: "fork"}
		flow.AddBranch(Branch{
			PointName: "X",
			Paths: []Path{
				{Name: "a", Flow: pathFlow("a")},
				{Name: "b", Flow: pathFlow("b")},
				{Name: "c", Flow: pathFlow("c")},
			},
			Select: SelectAll{},
		})
		return flow
	}
	seq, err := build().Run(&Context{}, newTestDesign())
	if err != nil {
		t.Fatal(err)
	}
	par, err := build().Run(&Context{Parallel: true}, newTestDesign())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Device != par[i].Device {
			t.Errorf("order differs at %d: %q vs %q", i, seq[i].Device, par[i].Device)
		}
	}
}

// TestParallelBranchErrorPropagates: a failing path surfaces its error.
func TestParallelBranchErrorPropagates(t *testing.T) {
	bad := &Flow{Name: "bad"}
	bad.AddTask(TaskFunc{TaskName: "boom", TaskKind: Analysis,
		Fn: func(*Context, *Design) error { return errors.New("kaput") }})
	flow := &Flow{Name: "fork"}
	flow.AddBranch(Branch{
		PointName: "X",
		Paths:     []Path{{Name: "ok", Flow: pathFlow("ok")}, {Name: "bad", Flow: bad}},
		Select:    SelectAll{},
	})
	if _, err := flow.Run(&Context{Parallel: true}, newTestDesign()); err == nil {
		t.Fatal("expected error from parallel path")
	}
}

func TestDesignExport(t *testing.T) {
	dir := t.TempDir()
	d := newTestDesign()
	d.Device = "Test Device 1"
	chooseGPU(t, d)
	d.Tracef("note", "x", "hello")
	out, err := d.Export(dir)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	for _, f := range []string{"transformed.minic", "trace.log", "design.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(out, "design.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"target": "gpu"`) {
		t.Errorf("summary missing target:\n%s", data)
	}
	traceData, _ := os.ReadFile(filepath.Join(out, "trace.log"))
	if !strings.Contains(string(traceData), "hello") {
		t.Error("trace not exported")
	}
	if strings.ContainsAny(filepath.Base(out), "/ ") {
		t.Errorf("unsanitized dir name %q", out)
	}
}
