//go:build !race

package analysis_test

import (
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/tasks"
)

// parentWeightedOpsAllocs is what WeightedOps allocated on rushlarsen's
// materialised kernel while every statement it visited returned an OpCounts
// of its own, map included.
const parentWeightedOpsAllocs = 493

// TestWeightedOpsAllocationsConstant: WeightedOps allocates the type
// environment (typesIn's maps) and the one OpCounts it returns, with its
// SpecialK map and that map's first group — never per statement, so it
// costs the same beside typesIn on rushlarsen's kernel after Unroll Fixed
// Loops has materialised it as on nbody's.
func TestWeightedOpsAllocationsConstant(t *testing.T) {
	const opCounts = 3 // the OpCounts, its SpecialK map, the map's first group
	for _, name := range []string{"nbody", "rushlarsen"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &core.Context{Workload: bench.Workload{B: b}}
		d := core.NewDesign(b.Name, b.Parse())
		for _, task := range []core.Task{tasks.IdentifyHotspots, tasks.ExtractHotspot, tasks.UnrollFixedLoopsTask} {
			if err := task.Run(ctx, d); err != nil {
				t.Fatalf("%s: %s: %v", name, task.Name(), err)
			}
		}
		fn := d.KernelFunc()
		env := testing.AllocsPerRun(20, func() { analysis.TypesIn(fn) })
		got := testing.AllocsPerRun(20, func() { analysis.WeightedOps(fn) })
		t.Logf("%s: WeightedOps %.0f allocations, typesIn %.0f", name, got, env)
		if got > env+opCounts {
			t.Errorf("WeightedOps on %s's kernel allocates %.0f times, want at most typesIn's %.0f + %d (the parent: %d on rushlarsen)",
				name, got, env, opCounts, parentWeightedOpsAllocs)
		}
	}
}
