package experiments

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
)

// TestUniqueProgramFootprint is the gate on what a never-seen program
// leaves behind in a long-lived process: its profiled results in the run
// cache — scalars, loop map, traffic rows, binding shapes — and nothing
// the run was made from. 60 programs never seen before (the five
// applications in both modes, six rounds, each source salted the way the
// benchmark salts it) through one shared RunCache and JobEnv.Progs may grow
// the live heap by at most 32 KB per job (measured ≈ 970 KB when the
// lowered image was pooled and every binding kept the run's argument
// buffers; ≈ 8.7 KB now, in 144 cache entries over the 60 jobs, 2.4 a
// job). The bound is for the plain build and holds unchanged under -race,
// whose shadow memory is not Go heap: the detector's build measures the
// same.
func TestUniqueProgramFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 80 cold flows; skipped in -short mode")
	}
	runs := core.NewRunCache()
	env := JobEnv{Progs: interp.NewProgramCache()}
	jobs := 0
	round := func() {
		t.Helper()
		for _, b := range bench.All() {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				src := fmt.Sprintf("%s\nint bench_salt_%d(int x) { return x + %d; }\n", b.Source, jobs, jobs)
				prog, err := minic.Parse(src)
				if err != nil {
					t.Fatalf("%s salt %d: %v", b.Name, jobs, err)
				}
				opts := tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy}
				if _, err := RunBenchmarkEnv(context.Background(), b, prog, opts, env, nil, nil, runs); err != nil {
					t.Fatalf("%s salt %d: %v", b.Name, jobs, err)
				}
				jobs++
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first cycle's finalizers and pooled buffers go in the second
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	const warmup, measured = 2, 6
	for i := 0; i < warmup; i++ {
		round()
	}
	before, entries, jobs0 := liveHeap(), runs.Len(), jobs
	for i := 0; i < measured; i++ {
		round()
	}
	after := liveHeap()
	n := jobs - jobs0
	perJob := (float64(after) - float64(before)) / float64(n) / 1024
	t.Logf("live heap %.1f -> %.1f MB over %d unique jobs (%d run-cache entries): %.1f KB per job",
		float64(before)/(1<<20), float64(after)/(1<<20), n, runs.Len()-entries, perJob)
	if perJob > 32 {
		t.Errorf("a never-seen program leaves %.1f KB of live heap behind, want <= 32 KB", perJob)
	}
	if runs.Len() <= entries {
		t.Error("the run cache kept nothing: the jobs above did not exercise it")
	}
	if got := env.Progs.Len(); got != 0 {
		t.Errorf("%d lowered programs pooled; with a run cache none can be leased again", got)
	}
}
