//go:build !race

package core_test

import (
	"context"
	"fmt"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/minic"
	"psaflow/internal/query"
	"psaflow/internal/tasks"
)

// TestForkAllocationsIndependentOfProgram: a Fork copies the design's
// fields and a slice of function pointers, never a function, so it costs
// the same on each application's design as branch point A forks it.
func TestForkAllocationsIndependentOfProgram(t *testing.T) {
	var first float64
	for i, b := range bench.All() {
		d := front(t, b)
		allocs := testing.AllocsPerRun(100, func() { d.Fork() })
		t.Logf("%s: %.0f allocations per Fork", b.Name, allocs)
		if i == 0 {
			first = allocs
		}
		if allocs != first || allocs > 8 {
			t.Errorf("Fork of %s's design allocates %.0f times, want the same small constant on every application (%s: %.0f)",
				b.Name, allocs, bench.All()[0].Name, first)
		}
	}
}

// TestEditLoopAllocationsIndependentOfKernel: EditLoop copies the path
// down to the loop, never the loop's body, so it costs the same small
// constant on nbody's kernel as on rushlarsen's after Unroll Fixed Loops
// has materialised it for the FPGA path.
func TestEditLoopAllocationsIndependentOfKernel(t *testing.T) {
	var first float64
	for i, name := range []string{"nbody", "rushlarsen"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := front(t, b)
		if name == "rushlarsen" {
			if err := tasks.UnrollFixedLoopsTask.Run(&core.Context{Workload: bench.Workload{B: b}}, d); err != nil {
				t.Fatal(err)
			}
		}
		loop := query.OutermostLoops(d.KernelFunc())[0]
		fork := testing.AllocsPerRun(100, func() { d.Fork() })
		allocs := testing.AllocsPerRun(100, func() { d.Fork().EditLoop(loop) }) - fork
		t.Logf("%s: %.0f allocations per EditLoop after a Fork", name, allocs)
		if i == 0 {
			first = allocs
		}
		if allocs != first || allocs > 8 {
			t.Errorf("EditLoop on %s's kernel allocates %.0f times, want the same small constant on both kernels (nbody: %.0f)",
				name, allocs, first)
		}
	}
}

// TestUnrollAllocationsIndependentOfProgram: Unroll Fixed Loops after a Fork
// copies the kernel it renumbers and no other function, so it allocates the
// same on rushlarsen's design with forty unrelated functions placed before
// the host as without them.
func TestUnrollAllocationsIndependentOfProgram(t *testing.T) {
	b, err := bench.ByName("rushlarsen")
	if err != nil {
		t.Fatal(err)
	}
	d, padded := front(t, b), front(t, b)
	var pad []*minic.FuncDecl
	for i := range 40 {
		pad = append(pad, minic.MustParse(fmt.Sprintf(
			"void pad%d(int n, double *x) { for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0 + 1.0; } }", i)).Funcs[0])
	}
	padded.Prog.Funcs = append(pad, padded.Prog.Funcs...)
	minic.AssignIDs(padded.Prog)
	ctx := &core.Context{Workload: bench.Workload{B: b}}
	var allocs [2]float64
	for i, d := range []*core.Design{d, padded} {
		allocs[i] = testing.AllocsPerRun(20, func() {
			if err := tasks.UnrollFixedLoopsTask.Run(ctx, d.Fork()); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("Fork and Unroll Fixed Loops: %.0f allocations, %.0f with 40 functions before the host", allocs[0], allocs[1])
	if allocs[0] != allocs[1] {
		t.Errorf("forty functions before the host moved Unroll Fixed Loops' allocations from %.0f to %.0f: it copies more than the kernel",
			allocs[0], allocs[1])
	}
}

// parentHotFlowAllocs is what ten hot flows (BenchmarkFlowHot's loop body:
// the five applications in both modes on a warmed run cache) allocated
// while Fork deep-copied the program for every branch path.
const parentHotFlowAllocs = 81932

// TestHotFlowAllocationBudget pins the point of sharing functions between
// forks, and of copying a function with one allocation per node kind: ten
// hot flows allocate at most 9 320 times (measured: ≈ 8 877, and the bound
// is that plus 5%). It was 14 100 (measured: ≈ 13 460) before the
// dependence analysis pooled its scratch and the printer and generators
// appended into pooled buffers, 24 000 (measured: ≈ 22 700, then ≈ 18 860 once the lexer read the source
// in place) while Unroll Fixed Loops and every function copy allocated each
// node on its own, 52 000 (measured: ≈ 47 700, later ≈ 26 000 once the
// dependence analysis stopped building maps) while Unroll Fixed Loops
// copied the whole program and Hotspot Loop Extraction copied its loop, and
// 66 000 (measured: ≈ 61 900) while the FPGA and CPU paths copied the
// whole kernel to write one loop pragma and WeightedOps built an OpCounts
// per statement.
func TestHotFlowAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("flow runs")
	}
	runs := core.NewRunCache()
	flows := func() {
		for _, b := range bench.All() {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				opts := tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy}
				if _, err := experiments.RunBenchmarkEnv(context.Background(), b, nil, opts, experiments.JobEnv{}, nil, nil, runs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	flows() // warm the run cache
	const budget = 9320
	allocs := testing.AllocsPerRun(5, flows)
	t.Logf("ten hot flows: %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("ten hot flows allocate %.0f times, want <= %d (the parent's %d, less the program copies forks no longer make)",
			allocs, budget, parentHotFlowAllocs)
	}
}
