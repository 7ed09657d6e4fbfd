package analysis_test

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
)

// weightedOpsFixture holds WeightedOps and HeavySpecialFraction of the five
// kernels as the commit before WeightedOps summed into one OpCounts
// computed them. It is frozen: a change to it is a change to the costs
// every FPGA and GPU estimate reads, made by hand.
const weightedOpsFixture = "testdata/weightedops.golden"

// weightedOpsTable renders every field of WeightedOps(fn), SpecialK sorted
// by name, then HeavySpecialFraction(fn).
func weightedOpsTable(sb *strings.Builder, label string, fn *minic.FuncDecl) {
	ops := analysis.WeightedOps(fn)
	fmt.Fprintf(sb, "%s\n", label)
	v := reflect.ValueOf(*ops)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "SpecialK" {
			var keys []string
			for k := range ops.SpecialK {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(sb, "\tSpecialK[%s] %v\n", k, ops.SpecialK[k])
			}
			continue
		}
		fmt.Fprintf(sb, "\t%s %v\n", name, v.Field(i).Interface())
	}
	fmt.Fprintf(sb, "\tHeavySpecialFraction %v\n", analysis.HeavySpecialFraction(fn))
}

// TestWeightedOpsFixture: on each application's kernel as Hotspot Loop
// Extraction leaves it and after Unroll Fixed Loops materialises it, every
// count WeightedOps reports equals the fixture's, exactly.
func TestWeightedOpsFixture(t *testing.T) {
	var sb strings.Builder
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		ctx := &core.Context{Workload: bench.Workload{B: b}, Runs: runs}
		d := core.NewDesign(b.Name, b.Parse())
		for _, stage := range []struct {
			name  string
			tasks []core.Task
		}{
			{"extract-hotspot", []core.Task{tasks.IdentifyHotspots, tasks.ExtractHotspot}},
			{"unroll-fixed-loops", []core.Task{tasks.UnrollFixedLoopsTask}},
		} {
			for _, task := range stage.tasks {
				if err := task.Run(ctx, d); err != nil {
					t.Fatalf("%s: %s: %v", b.Name, task.Name(), err)
				}
			}
			weightedOpsTable(&sb, b.Name+" "+stage.name, d.KernelFunc())
		}
	}
	want, err := os.ReadFile(weightedOpsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got %q\nwant %q", weightedOpsFixture, i+1, g, w)
			}
		}
	}
}
