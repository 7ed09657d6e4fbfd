package experiments

import (
	"fmt"
	"sort"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// leafFingerprint condenses everything the flow decides about one design
// into a comparable string: label, feasibility, and every tuned parameter.
func leafFingerprint(d *core.Design) string {
	return fmt.Sprintf("%s infeasible=%q threads=%d blocksize=%d pinned=%t shared=%v fast=%t unroll=%d zerocopy=%t",
		d.Label(), d.Infeasible, d.NumThreads, d.Blocksize, d.Pinned,
		d.SharedMem, d.Specialised, d.UnrollFactor, d.ZeroCopy)
}

// runUninformed pushes a benchmark through the full uninformed PSA-flow
// with the given parallelism setting and returns sorted leaf fingerprints.
func runUninformed(t *testing.T, b *bench.Benchmark, parallel bool) []string {
	t.Helper()
	ctx := &core.Context{
		Workload:  bench.Workload{B: b},
		CPU:       platform.EPYC7543,
		Parallel:  parallel,
		Telemetry: telemetry.New(),
	}
	flow := tasks.BuildPSAFlow(tasks.Uninformed, tasks.DefaultStrategy)
	leaves, err := flow.Run(ctx, core.NewDesign(b.Name, b.Parse()))
	if err != nil {
		t.Fatalf("%s (parallel=%t): %v", b.Name, parallel, err)
	}
	fps := make([]string, 0, len(leaves))
	for _, d := range leaves {
		fps = append(fps, leafFingerprint(d))
	}
	sort.Strings(fps)
	return fps
}

// TestParallelFlowMatchesSerial runs the full uninformed flow with
// concurrent branch paths (the experiment harness configuration) and
// asserts the produced design set is identical to a serial run. Under
// `go test -race` this also exercises Fork's sharing and telemetry
// locking: path goroutines mutate forked designs, read the functions the
// forks share and record spans concurrently.
func TestParallelFlowMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	for _, name := range []string{"kmeans", "bezier"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			serial := runUninformed(t, b, false)
			parallel := runUninformed(t, b, true)
			if len(parallel) != len(serial) {
				t.Fatalf("parallel produced %d designs, serial %d:\nparallel=%v\nserial=%v",
					len(parallel), len(serial), parallel, serial)
			}
			for i := range serial {
				if parallel[i] != serial[i] {
					t.Errorf("design %d differs:\nparallel: %s\nserial:   %s", i, parallel[i], serial[i])
				}
			}
		})
	}
}
