package hls_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/hls"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/tasks"
	"psaflow/internal/transform"
)

// TestDatapathReplicateMatchesEstimate pins the split the Fig. 2 walk
// relies on: a datapath costed once, replicated in closed form, is the
// report a fresh Estimate gives with the pragma installed — every field,
// integer resource totals included — for every bundled kernel as the FPGA
// sub-flow leaves it, on both devices, at every factor the walk can try.
// The CPU designs' kernels still hold their fixed inner loops, so they
// serve the resource-sharing case: one inner loop marked rolled.
func TestDatapathReplicateMatchesEstimate(t *testing.T) {
	runs := core.NewRunCache()
	rolled := 0
	for _, b := range bench.All() {
		results, err := experiments.RunBenchmarkEnv(context.Background(), b, nil,
			tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy},
			experiments.JobEnv{}, nil, nil, runs)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, r := range results {
			d := r.Design
			kfn := d.KernelFunc()
			outer := query.OutermostLoops(kfn)[0]
			switch d.Target {
			case platform.TargetFPGA:
			case platform.TargetCPU:
				var inner minic.Stmt
				for _, l := range query.InnerLoops(outer) {
					if trips, fixed := query.FixedTripCount(l); fixed && trips > 1 {
						inner = l
						break
					}
				}
				if inner == nil {
					continue
				}
				if err := transform.InsertLoopPragma(inner, "unroll 1"); err != nil {
					t.Fatal(err)
				}
				if !analysis.LoopMarkedRolled(inner) {
					t.Fatalf("%s: inner loop not marked rolled", d.Label())
				}
				rolled++
			default:
				continue
			}
			install := func(n int) {
				transform.RemoveLoopPragmas(outer, "unroll")
				if err := transform.InsertLoopPragma(outer, fmt.Sprintf("unroll %d", n)); err != nil {
					t.Fatal(err)
				}
			}
			install(1)
			dp := hls.CostDatapath(kfn)
			trips := d.Report.PipelinedTrips
			for _, dev := range []platform.FPGASpec{platform.Arria10, platform.Stratix10} {
				for n := 1; n <= 1<<16; n *= 2 {
					install(n)
					want := hls.Estimate(d.Prog, kfn, dev, trips)
					if got := dp.Replicate(dev, n, trips); !reflect.DeepEqual(got, want) {
						t.Errorf("%s on %s, unroll %d:\nReplicate %+v\nEstimate  %+v", d.Label(), dev.Name, n, got, want)
					}
				}
			}
		}
	}
	if rolled == 0 {
		t.Error("no kernel exercised the rolled-inner-loop case")
	}
}
