package flowlang_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/flowlang"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// fixturePath holds the built-in flow's graph as a Go builder wrote it
// before the bundled paper.psa became the only spelling of Fig. 4. It is
// frozen: a change to it is a change to Fig. 4, made by hand.
const fixturePath = "testdata/psaflow.graph"

// fixtureRows are the flow options the fixture pins: every mode × sharing
// combination, and one strategy whose Fig. 3 decision differs from the
// default's on the probe kernel.
var fixtureRows = []struct {
	name string
	opts flowlang.Options
}{
	{"informed", flowlang.Options{Mode: tasks.Informed}},
	{"uninformed", flowlang.Options{Mode: tasks.Uninformed}},
	{"informed/sharing", flowlang.Options{Mode: tasks.Informed, ResourceSharing: true}},
	{"uninformed/sharing", flowlang.Options{Mode: tasks.Uninformed, ResourceSharing: true}},
	{"informed/strategy", flowlang.Options{Mode: tasks.Informed,
		Strategy: tasks.StrategyConfig{AIThreshold: 10, TransferBW: 1e9}}},
}

// probeChoice asks a branch point's selector about one fixed kernel —
// parallel, 8 FLOPs/B, 2 MB moved — so the graph shows the strategy a
// selector was built with, not only its name.
func probeChoice(br core.Branch) string {
	d := &core.Design{Report: &core.KernelReport{
		HotspotCycles: 1e9, BytesIn: 1e6, BytesOut: 1e6, DynamicAI: 8,
		OuterDeps: &analysis.LoopDeps{},
	}}
	alts, err := br.Select.Select(&core.Context{CPU: platform.EPYC7543}, d, br.Paths)
	if err != nil {
		return "error: " + err.Error()
	}
	var choice []string
	for _, a := range alts {
		var names []string
		for _, i := range a.Paths {
			names = append(names, br.Paths[i].Name)
		}
		choice = append(choice, strings.Join(names, "+"))
	}
	s := "probe: " + strings.Join(choice, ", ")
	for _, ev := range d.Trace {
		s += " | " + ev.Detail()
	}
	return s
}

// renderGraph writes everything that determines a flow's execution, one
// node a line: flow names, each task's name, kind and dynamic marker, and
// each branch point's name, selector, gating, revision bound, probe choice
// and paths.
func renderGraph(sb *strings.Builder, f *core.Flow, indent string) {
	fmt.Fprintf(sb, "%sflow %q\n", indent, f.Name)
	for _, n := range f.Nodes {
		switch n := n.(type) {
		case *core.Step:
			fmt.Fprintf(sb, "%s  task %q kind=%s dynamic=%t\n", indent, n.Task.Name(), n.Task.Kind(), n.Task.Dynamic())
		case core.Branch:
			fmt.Fprintf(sb, "%s  branch %q select=%s gated=%t revisions=%d\n", indent,
				n.PointName, n.Select.Name(), n.Gated, n.MaxRevisions)
			fmt.Fprintf(sb, "%s    %s\n", indent, probeChoice(n))
			for _, p := range n.Paths {
				fmt.Fprintf(sb, "%s    path %q\n", indent, p.Name)
				renderGraph(sb, p.Flow, indent+"      ")
			}
		default:
			fmt.Fprintf(sb, "%s  node %T\n", indent, n)
		}
	}
}

func renderRow(name string, f *core.Flow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", name)
	renderGraph(&sb, f, "")
	return sb.String()
}

// TestPaperFlowStructuralDiff pins the built-in flow, row by row, to the
// frozen graph: a task lost from, added to or moved in paper.psa fails its
// row.
func TestPaperFlowStructuralDiff(t *testing.T) {
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	want, name := map[string]string{}, ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if h, ok := strings.CutPrefix(line, "== "); ok {
			name = strings.TrimSuffix(h, "\n")
		}
		want[name] += line
	}
	for _, row := range fixtureRows {
		t.Run(row.name, func(t *testing.T) {
			flow := flowlang.PSAFlow(row.opts)
			if got := renderRow(row.name, flow); got != want[row.name] {
				t.Errorf("graph differs from %s\ngot:\n%s\nwant:\n%s", fixturePath, got, want[row.name])
			}
		})
	}
}

// resultFingerprint flattens everything Fig. 5 reports about one design —
// label, verdict, speedup, breakdown, and the full provenance trace — into
// a comparable string.
func resultFingerprint(rs []experiments.DesignResult) []string {
	var out []string
	for _, r := range rs {
		s := fmt.Sprintf("%s infeasible=%v speedup=%v kernel=%v total=%v note=%q",
			r.Design.Label(), r.Infeasible, r.Speedup,
			r.Breakdown.KernelTime, r.Breakdown.Total, r.Breakdown.Note)
		for _, ev := range r.Design.Trace {
			s += fmt.Sprintf("\n  %s %s %s", ev.Kind(), ev.Name, ev.Detail())
		}
		out = append(out, s)
	}
	return out
}

// TestBundledFlowSharedAcrossJobs: every job lowers the one parsed bundled
// file, so lowerings with different options, run side by side on one run
// cache, must each produce what the same lowering produces run alone.
// scripts/ci.sh runs it under -race.
func TestBundledFlowSharedAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	b, err := bench.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []flowlang.Options
	for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
		for _, sharing := range []bool{false, true} {
			for _, strategy := range []tasks.StrategyConfig{{}, {AIThreshold: 10, TransferBW: 1e9}} {
				jobs = append(jobs, flowlang.Options{Mode: mode, ResourceSharing: sharing, Strategy: strategy})
			}
		}
	}
	run := func(opts flowlang.Options, runs *core.RunCache) ([]string, error) {
		rs, err := experiments.RunBenchmarkEnv(context.Background(), b, nil, opts,
			experiments.JobEnv{Flow: flowlang.Bundled().Compile(opts).Flow}, nil, nil, runs)
		return resultFingerprint(rs), err
	}
	serial := make([][]string, len(jobs))
	for i, opts := range jobs {
		if serial[i], err = run(opts, core.NewRunCache()); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
	shared := core.NewRunCache()
	got := make([][]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, opts := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(opts, shared)
		}()
	}
	wg.Wait()
	for i, opts := range jobs {
		if errs[i] != nil {
			t.Errorf("%+v: %v", opts, errs[i])
		} else if !reflect.DeepEqual(got[i], serial[i]) {
			t.Errorf("%+v: run beside the others differs from run alone\nshared: %v\nalone:  %v", opts, got[i], serial[i])
		}
	}
}

// TestMinimalFlowRuns smoke-runs the bundled two-task flow end to end.
func TestMinimalFlowRuns(t *testing.T) {
	b, err := bench.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	c, err := flowlang.CompileSource(readExample(t, "minimal.psa"), flowlang.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := experiments.RunBenchmarkEnv(context.Background(), b, nil,
		tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy},
		experiments.JobEnv{Flow: c.Flow}, nil, nil, core.NewRunCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d designs, want 1", len(rs))
	}
}
