//go:build !race

package analysis_test

import (
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/query"
	"psaflow/internal/tasks"
)

// parentAnalyzeLoopAllocs is what AnalyzeLoop allocated over all loops of
// each application's kernel after Unroll Fixed Loops while affine forms
// were maps and the body was walked four times.
var parentAnalyzeLoopAllocs = map[string]float64{"nbody": 203, "kmeans": 453, "adpredictor": 111, "rushlarsen": 1325, "bezier": 248}

// TestAnalyzeLoopAllocations pins what dependence analysis costs on the
// kernels the FPGA path estimates: every HLS report analyses the loops of
// the materialised kernel, so a map or a walk per subscript shows here at
// once. The bounds are the five kernels' counts when the walk's scratch
// was pooled and scalar details became rendered on read (40, 18, 18, 55
// and 67 before): each loop's result, its two slices and an array
// dependence's text. AnalyzeLoop may allocate less, never more.
func TestAnalyzeLoopAllocations(t *testing.T) {
	bound := map[string]float64{"nbody": 5, "kmeans": 1, "adpredictor": 1, "rushlarsen": 9, "bezier": 9}
	for _, b := range bench.All() {
		ctx := &core.Context{Workload: bench.Workload{B: b}}
		d := core.NewDesign(b.Name, b.Parse())
		for _, task := range []core.Task{tasks.IdentifyHotspots, tasks.ExtractHotspot, tasks.UnrollFixedLoopsTask} {
			if err := task.Run(ctx, d); err != nil {
				t.Fatalf("%s: %s: %v", b.Name, task.Name(), err)
			}
		}
		loops := query.LoopsIn(d.KernelFunc())
		allocs := testing.AllocsPerRun(20, func() {
			for _, l := range loops {
				analysis.AnalyzeLoop(l)
			}
		})
		t.Logf("%s: AnalyzeLoop over %d loops makes %.0f allocations (parent %.0f)", b.Name, len(loops), allocs, parentAnalyzeLoopAllocs[b.Name])
		if allocs > bound[b.Name] {
			t.Errorf("%s: AnalyzeLoop over the unrolled kernel's %d loops makes %.0f allocations, want at most %.0f (the parent: %.0f)",
				b.Name, len(loops), allocs, bound[b.Name], parentAnalyzeLoopAllocs[b.Name])
		}
	}
}
