package tasks

// Tests for the profiled-run cache: sharing across the target-independent
// analyses, automatic invalidation through the AST fingerprint when each
// transform rewrites the program, and flow-level equivalence with a cache
// shared by parallel branch paths (run under -race in CI).

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/query"
	"psaflow/internal/telemetry"
	"psaflow/internal/transform"
)

// cachedSynthCtx is synthCtx plus a run cache and a recorder.
func cachedSynthCtx() *core.Context {
	ctx := synthCtx()
	ctx.Runs = core.NewRunCache()
	ctx.Telemetry = telemetry.New()
	return ctx
}

func TestRunCacheSharesRunsAcrossAnalysesEquivalence(t *testing.T) {
	// Reference: the analyses without a cache.
	_, plain := runTindep(t)

	// Cached: the kernel-watched analyses (pointer, data-in/out, trip
	// count) must collapse onto one execution.
	ctx := cachedSynthCtx()
	d := core.NewDesign("synth", minic.MustParse(appSrc))
	for _, task := range TargetIndependent() {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("task %s: %v", task.Name(), err)
		}
	}
	hits, misses := ctx.Runs.Stats()
	// Expected runs: hotspot identification (entry watch) and one
	// kernel-watched run = 2 misses; data-in/out and trip count reuse the
	// pointer analysis run = 2 hits.
	if misses != 2 || hits != 2 {
		t.Errorf("cache stats hits=%d misses=%d, want 2/2", hits, misses)
	}
	if !reflect.DeepEqual(d.Report, plain.Report) {
		t.Errorf("cached analyses diverge from uncached:\ncached: %+v\nplain:  %+v", d.Report, plain.Report)
	}
	// The counters the benchmark harness reports must agree with Stats.
	rep := ctx.Telemetry.Snapshot()
	if rep.Counters[telemetry.CounterRunCacheHits] != hits ||
		rep.Counters[telemetry.CounterRunCacheMisses] != misses {
		t.Errorf("telemetry counters %v disagree with cache stats %d/%d", rep.Counters, hits, misses)
	}
	if rep.Counters[telemetry.CounterRunCacheOpsAvoided] <= 0 {
		t.Errorf("ops avoided = %d, want > 0", rep.Counters[telemetry.CounterRunCacheOpsAvoided])
	}
	// Exactly one interpreter execution per miss: hits spawned none.
	if got := rep.Counters[telemetry.CounterInterpRuns]; got != misses {
		t.Errorf("interp.runs = %d, want %d (cache must prevent re-execution)", got, misses)
	}
}

// TestProgramCacheOnlyWithoutRunCache: a lowered image is pooled only where
// it can be leased again. Without a run cache Pointer Analysis, Data In/Out
// and Trip-Count each re-execute the extracted program and share one image;
// with one the program runs once, so nothing is pooled and the image (with
// the AST it points at) is garbage when the run returns.
func TestProgramCacheOnlyWithoutRunCache(t *testing.T) {
	for _, withRuns := range []bool{false, true} {
		ctx := synthCtx()
		ctx.Progs = interp.NewProgramCache()
		ctx.Telemetry = telemetry.New()
		if withRuns {
			ctx.Runs = core.NewRunCache()
		}
		d := core.NewDesign("synth", minic.MustParse(appSrc))
		for _, task := range TargetIndependent() {
			if err := task.Run(ctx, d); err != nil {
				t.Fatalf("task %s: %v", task.Name(), err)
			}
		}
		counters := ctx.Telemetry.Snapshot().Counters
		leases, pooled := counters[interp.CounterBCProgHits], ctx.Progs.Len()
		if withRuns {
			if leases != 0 || pooled != 0 {
				t.Errorf("with a run cache: %d leases, %d pooled programs, want none", leases, pooled)
			}
			if runs, misses := counters[telemetry.CounterInterpRuns], counters[telemetry.CounterRunCacheMisses]; runs != misses {
				t.Errorf("with a run cache: %d runs for %d misses", runs, misses)
			}
		} else if leases < 2 || pooled != 2 {
			// Two programs (before and after extraction); the kernel-watched
			// one runs three times, so at least two of those lease.
			t.Errorf("without a run cache: %d leases over %d pooled programs, want >= 2 over 2", leases, pooled)
		}
	}
}

func TestRunCacheInvalidatedByRewrite(t *testing.T) {
	ctx := cachedSynthCtx()
	d := core.NewDesign("synth", minic.MustParse(appSrc))
	run := func() {
		t.Helper()
		if err := IdentifyHotspots.Run(ctx, d); err != nil {
			t.Fatalf("hotspots: %v", err)
		}
	}
	run() // miss
	run() // unchanged program: hit
	if hits, misses := ctx.Runs.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats before rewrite hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Any rewrite — here unrolling the fixed inner loop — must change the
	// fingerprint and force a fresh execution.
	fn := d.Prog.MustFunc("app")
	n, err := transform.UnrollFixedLoops(d.Prog, fn, 64)
	if err != nil || n == 0 {
		t.Fatalf("unroll: n=%d err=%v", n, err)
	}
	run() // rewritten program: miss again
	if hits, misses := ctx.Runs.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats after rewrite hits=%d misses=%d, want 1/2 (stale reuse!)", hits, misses)
	}
}

// fpSrc exercises every transform: a pragma-able outer loop, a fixed
// unrollable inner loop, an array += accumulation with a loop-invariant
// subscript, and double-precision math calls and literals.
const fpSrc = `
void app(int n, const double *in, double *out) {
    for (int i = 0; i < n; i++) {
        for (int r = 0; r < 8; r++) {
            out[i] += sqrt(in[i] * 2.0 + (double)r);
        }
    }
}
`

// TestFingerprintInvalidationPerTransform applies every transform in
// internal/transform to a fresh clone and asserts the AST fingerprint
// changes — the property that makes cache invalidation automatic.
func TestFingerprintInvalidationPerTransform(t *testing.T) {
	base := minic.MustParse(fpSrc)
	baseFP := minic.Fingerprint(base)
	if cloneFP := minic.Fingerprint(base.Clone()); cloneFP != baseFP {
		t.Fatalf("clone fingerprint %x != original %x (forks could never share runs)", cloneFP, baseFP)
	}

	outerLoop := func(p *minic.Program) minic.Stmt {
		q := query.New(p)
		loops := q.OutermostLoops(p.MustFunc("app"))
		if len(loops) == 0 {
			t.Fatal("no outer loop")
		}
		return loops[0].(minic.Stmt)
	}
	cases := []struct {
		name  string
		apply func(t *testing.T, p *minic.Program)
	}{
		{"InsertLoopPragma", func(t *testing.T, p *minic.Program) {
			if err := transform.InsertLoopPragma(outerLoop(p), "unroll 4"); err != nil {
				t.Fatal(err)
			}
		}},
		{"ExtractHotspot", func(t *testing.T, p *minic.Program) {
			if _, err := transform.ExtractHotspot(p, p.MustFunc("app"), outerLoop(p), "app_hotspot"); err != nil {
				t.Fatal(err)
			}
		}},
		{"UnrollFixedLoops", func(t *testing.T, p *minic.Program) {
			n, err := transform.UnrollFixedLoops(p, p.MustFunc("app"), 64)
			if err != nil || n == 0 {
				t.Fatalf("n=%d err=%v", n, err)
			}
		}},
		{"RemovePlusEqDep", func(t *testing.T, p *minic.Program) {
			n, err := transform.RemovePlusEqDep(p, p.MustFunc("app"))
			if err != nil || n == 0 {
				t.Fatalf("n=%d err=%v", n, err)
			}
		}},
		{"SinglePrecisionFns", func(t *testing.T, p *minic.Program) {
			if n := transform.SinglePrecisionFns(p.MustFunc("app")); n == 0 {
				t.Fatal("no calls rewritten")
			}
		}},
		{"SinglePrecisionLiterals", func(t *testing.T, p *minic.Program) {
			if n := transform.SinglePrecisionLiterals(p.MustFunc("app")); n == 0 {
				t.Fatal("no literals rewritten")
			}
		}},
		{"SpecialisedMathFns", func(t *testing.T, p *minic.Program) {
			fn := p.MustFunc("app")
			transform.SinglePrecisionFns(fn)
			if n := transform.SpecialisedMathFns(fn); n == 0 {
				t.Fatal("no intrinsics rewritten")
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p := base.Clone()
			c.apply(t, p)
			if got := minic.Fingerprint(p); got == baseFP {
				t.Errorf("fingerprint unchanged after %s: stale cached runs would survive the rewrite", c.name)
			}
		})
	}

	// Pragma removal restores the original hash: the fingerprint is a
	// function of structure, not history.
	t.Run("RemoveLoopPragmas", func(t *testing.T) {
		p := base.Clone()
		loop := outerLoop(p)
		if err := transform.InsertLoopPragma(loop, "unroll 4"); err != nil {
			t.Fatal(err)
		}
		withPragma := minic.Fingerprint(p)
		if withPragma == baseFP {
			t.Fatal("pragma not hashed")
		}
		transform.RemoveLoopPragmas(loop, "unroll")
		if got := minic.Fingerprint(p); got != baseFP {
			t.Errorf("removing the pragma should restore the base fingerprint: %x != %x", got, baseFP)
		}
	})
}

// TestCachedParallelFlowEquivalence runs the full uninformed PSA-flow
// with parallel branch paths sharing one RunCache and asserts the design
// set matches an uncached serial run. Under -race this exercises the
// singleflight path: sibling goroutines requesting the same profiled run
// concurrently.
func TestCachedParallelFlowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	leafLine := func(d *core.Design) string {
		r := d.Report
		return fmt.Sprintf("%s infeasible=%q threads=%d blocksize=%d unroll=%d "+
			"hotspot=%d share=%v flops=%v bytes=%v/%v trips=%v/%v serial=%v ai=%v sp=%t",
			d.Label(), d.Infeasible, d.NumThreads, d.Blocksize, d.UnrollFactor,
			r.HotspotLoopID, r.HotspotShare, r.KernelFlops, r.BytesIn, r.BytesOut,
			r.OuterTrips, r.PipelinedTrips, r.SerialDepth, r.DynamicAI, r.SinglePrec)
	}
	runFlow := func(parallel bool, runs *core.RunCache) []string {
		t.Helper()
		ctx := synthCtx()
		ctx.Parallel = parallel
		ctx.Runs = runs
		flow := BuildPSAFlow(Uninformed, DefaultStrategy)
		leaves, err := flow.Run(ctx, core.NewDesign("synth", minic.MustParse(appSrc)))
		if err != nil {
			t.Fatalf("flow (parallel=%t cached=%t): %v", parallel, runs != nil, err)
		}
		out := make([]string, 0, len(leaves))
		for _, d := range leaves {
			out = append(out, leafLine(d))
		}
		sort.Strings(out)
		return out
	}
	plain := runFlow(false, nil)
	cache := core.NewRunCache()
	cached := runFlow(true, cache)
	if !reflect.DeepEqual(plain, cached) {
		t.Errorf("cached parallel flow diverges from uncached serial flow:\ncached: %v\nplain:  %v", cached, plain)
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("parallel flow produced no cache hits; sibling paths are not sharing runs")
	}
}
