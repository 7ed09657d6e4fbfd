package core_test

// Flow.Without, tested on the graph it exists for: the built-in PSA-flow,
// flowlang.PSAFlow.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/flowlang"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// outline renders everything that determines a flow's execution, one node
// a line: flow names, task identities in order, and each branch point's
// name, selector, gating, revision bound and path names.
func outline(f *core.Flow) []string {
	var out []string
	var walk func(f *core.Flow, indent string)
	walk = func(f *core.Flow, indent string) {
		out = append(out, indent+"flow "+f.Name)
		for _, n := range f.Nodes {
			switch n := n.(type) {
			case *core.Step:
				out = append(out, fmt.Sprintf("%s  task %s (%s dyn=%t)", indent, n.Task.Name(), n.Task.Kind(), n.Task.Dynamic()))
			case core.Branch:
				out = append(out, fmt.Sprintf("%s  branch %s select=%s gated=%t revisions=%d", indent, n.PointName, n.Select.Name(), n.Gated, n.MaxRevisions))
				for _, p := range n.Paths {
					out = append(out, indent+"    path "+p.Name)
					walk(p.Flow, indent+"      ")
				}
			}
		}
	}
	walk(f, "")
	return out
}

func TestFlowEdits(t *testing.T) {
	build := func() *core.Flow { return flowlang.PSAFlow(flowlang.Options{Mode: tasks.Informed}) }
	cases := []struct {
		name string
		edit func(*core.Flow) (*core.Flow, error)
		// What the edit does to the outline of the unedited flow: the lines
		// containing a key of drop are gone, and there were that many;
		// nothing else moves. fails: the edit matches nothing and must be an
		// error.
		drop  map[string]int
		fails bool
	}{
		{name: "Without a task two sub-flows run", // the GPU and the FPGA path
			edit: func(f *core.Flow) (*core.Flow, error) { return f.Without(tasks.SinglePrecisionFns) },
			drop: map[string]int{"task Employ SP Math Fns ": 2}},
		{name: "Without two tasks, one of them in every device path",
			edit: func(f *core.Flow) (*core.Flow, error) { return f.Without(tasks.PinnedMemory, tasks.RenderDesign) },
			drop: map[string]int{"task Employ HIP Pinned Memory ": 1, "task Render Design Source ": 5}},
		{name: "Without nothing is a copy",
			edit: func(f *core.Flow) (*core.Flow, error) { return f.Without() }},
		{name: "Without a task no step runs",
			edit: func(f *core.Flow) (*core.Flow, error) {
				return f.Without(tasks.PinnedMemory, tasks.UnrollUntilOvermapWithSharing(platform.Stratix10))
			}, fails: true},
	}
	fresh := outline(build())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := build()
			got, err := c.edit(base)
			if after := outline(base); !reflect.DeepEqual(after, fresh) {
				t.Errorf("the edit changed its receiver:\n%s\nwant\n%s", strings.Join(after, "\n"), strings.Join(fresh, "\n"))
			}
			if c.fails {
				if err == nil || got != nil {
					t.Fatalf("an edit that matches nothing returned (%v, %v), want an error", got, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			dropped := map[string]int{}
			want := slices.DeleteFunc(slices.Clone(fresh), func(l string) bool {
				for sub := range c.drop {
					if strings.Contains(l, sub) {
						dropped[sub]++
						return true
					}
				}
				return false
			})
			if len(c.drop) > 0 && !reflect.DeepEqual(dropped, c.drop) {
				t.Fatalf("the unedited outline has %v of the lines to drop; the case expects %v", dropped, c.drop)
			}
			if !reflect.DeepEqual(outline(got), want) {
				t.Errorf("edited flow:\n%s\nwant\n%s", strings.Join(outline(got), "\n"), strings.Join(want, "\n"))
			}
			// A deep copy: growing every flow of the result leaves the
			// receiver as it was.
			var grow func(*core.Flow)
			grow = func(f *core.Flow) {
				for _, n := range f.Nodes {
					if b, ok := n.(core.Branch); ok {
						for _, p := range b.Paths {
							grow(p.Flow)
						}
					}
				}
				f.AddTask(tasks.RenderDesign)
			}
			grow(got)
			if after := outline(base); !reflect.DeepEqual(after, fresh) {
				t.Errorf("the edited flow shares structure with its receiver:\n%s", strings.Join(after, "\n"))
			}
		})
	}
}

// TestEditedFlowRunsBesideBase: a flow is a value Run never writes to, so
// the built-in flow and an edit of it — which share every task and selector
// — run concurrently on one benchmark and one run cache and each generates
// what it generates alone. Under -race this is the check that an edit's
// copy is deep enough.
func TestEditedFlowRunsBesideBase(t *testing.T) {
	if testing.Short() {
		t.Skip("flow runs")
	}
	b, err := bench.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	opts := tasks.FlowOptions{Mode: tasks.Uninformed}
	base := flowlang.PSAFlow(opts)
	edited, err := base.Without(tasks.PinnedMemory)
	if err != nil {
		t.Fatal(err)
	}
	run := func(f *core.Flow, runs *core.RunCache) []string {
		results, err := experiments.RunBenchmarkEnv(context.Background(), b, nil, opts, experiments.JobEnv{Flow: f}, nil, nil, runs)
		if err != nil {
			t.Error(err)
			return nil
		}
		var out []string
		for _, r := range results {
			s := fmt.Sprintf("%s infeasible=%t speedup=%v", r.Design.Label(), r.Infeasible, r.Speedup)
			for _, ev := range r.Design.Trace {
				s += "\n  " + ev.String()
			}
			out = append(out, s)
		}
		return out
	}
	alone := map[*core.Flow][]string{base: run(base, core.NewRunCache()), edited: run(edited, core.NewRunCache())}
	if reflect.DeepEqual(alone[base], alone[edited]) {
		t.Fatal("removing pinned memory changed no design: the test compares nothing")
	}
	shared := core.NewRunCache()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, f := range []*core.Flow{base, edited} {
			wg.Add(1)
			go func(f *core.Flow) {
				defer wg.Done()
				if got := run(f, shared); !reflect.DeepEqual(got, alone[f]) {
					t.Errorf("flow %p beside the other generates\n%s\nalone it generates\n%s", f, strings.Join(got, "\n"), strings.Join(alone[f], "\n"))
				}
			}(f)
		}
	}
	wg.Wait()
}
