package tasks

// Tests for the profiled-run cache: sharing across the target-independent
// analyses and automatic invalidation through the AST fingerprint when each
// transform rewrites the program. Flow-level equivalence with a cache shared
// by parallel branch paths is TestCachedParallelFlowEquivalence, in
// flow_test.go.

import (
	"reflect"
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

// parentTindepReport is what the target-independent tasks learned about
// appSrc at the commit before the hotspot run watched its own loop, when
// pointer analysis, data in/out and trip count read a second run, of the
// outlined program. Now that the cache-less reference makes one run too, it
// is the independent reference for the fields a run decides.
var parentTindepReport = core.KernelReport{
	HotspotLoopID: 22, HotspotShare: 0.9959187969221414, HotspotCycles: 127747.5,
	KernelFlops: 28672, SpecialFlops: 16384, BytesIn: 512, BytesOut: 512, KernelBytes: 1024,
	OuterTrips: 64, PipelinedTrips: 64, SerialDepth: 64, Calls: 1, DynamicAI: 28,
}

func TestRunCacheSharesRunsAcrossAnalysesEquivalence(t *testing.T) {
	// Reference: the analyses without a cache.
	_, plain := runTindep(t)
	want := parentTindepReport
	want.StaticAI, want.OuterDeps, want.Unroll, want.RegsEstimate =
		plain.Report.StaticAI, plain.Report.OuterDeps, plain.Report.Unroll, plain.Report.RegsEstimate
	if !reflect.DeepEqual(*plain.Report, want) {
		t.Errorf("uncached analyses moved from the recorded report:\ngot:  %+v\nwant: %+v", *plain.Report, want)
	}

	// Cached: one execution serves hotspot identification and the three
	// kernel analyses (pointer, data-in/out, trip count), which read the
	// hotspot run's record of its loop and never look a run up — where the
	// parent made a second, kernel-watched run (2 misses) that the other two
	// analyses then hit (2 hits).
	ctx := cachedSynthCtx()
	tindep := func() *core.Design {
		d := core.NewDesign("synth", minic.MustParse(appSrc))
		for _, task := range TargetIndependent() {
			if err := task.Run(ctx, d); err != nil {
				t.Fatalf("task %s: %v", task.Name(), err)
			}
		}
		return d
	}
	d := tindep()
	if hits, misses := ctx.Runs.Stats(); misses != 1 || hits != 0 {
		t.Errorf("cache stats hits=%d misses=%d, want 0/1", hits, misses)
	}
	if !reflect.DeepEqual(d.Report, plain.Report) {
		t.Errorf("cached analyses diverge from uncached:\ncached: %+v\nplain:  %+v", d.Report, plain.Report)
	}
	// With no look-up after the first there is nothing left to hit inside
	// one flow; a second flow over the same cache hits that one run.
	if again := tindep(); !reflect.DeepEqual(again.Report, plain.Report) {
		t.Errorf("second flow over the cache diverges:\ncached: %+v\nplain:  %+v", again.Report, plain.Report)
	}
	hits, misses := ctx.Runs.Stats()
	if misses != 1 || hits != 1 {
		t.Errorf("cache stats after a second flow hits=%d misses=%d, want 1/1", hits, misses)
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
// it can be leased again. That takes a flow without a run cache whose kernel
// analyses cannot read the hotspot run's record (here: it is taken away
// after outlining): Pointer Analysis, Data In/Out and Trip-Count then each
// re-execute the extracted program and share one image. A cache-less flow
// that can read it runs each program once and leases nothing; with a run
// cache nothing is even pooled, and the image (with the AST it points at)
// is garbage when the run returns.
func TestProgramCacheOnlyWithoutRunCache(t *testing.T) {
	for _, c := range []struct {
		name               string
		withRuns, noRecord bool
		leases, pooled     int64
	}{
		{"run cache", true, false, 0, 0},
		{"no run cache", false, false, 0, 1},
		{"no run cache, no record of the kernel", false, true, 2, 2},
	} {
		ctx := synthCtx()
		ctx.Progs = interp.NewProgramCache()
		ctx.Telemetry = telemetry.New()
		if c.withRuns {
			ctx.Runs = core.NewRunCache()
		}
		d := core.NewDesign("synth", minic.MustParse(appSrc))
		for _, task := range TargetIndependent() {
			if err := task.Run(ctx, d); err != nil {
				t.Fatalf("task %s: %v", task.Name(), err)
			}
			if c.noRecord {
				d.HotspotLoops = nil
			}
		}
		counters := ctx.Telemetry.Snapshot().Counters
		if leases, pooled := counters[interp.CounterBCProgHits], int64(ctx.Progs.Len()); leases != c.leases || pooled != c.pooled {
			t.Errorf("%s: %d leases over %d pooled programs, want %d over %d", c.name, leases, pooled, c.leases, c.pooled)
		}
		if runs, misses := counters[telemetry.CounterInterpRuns], counters[telemetry.CounterRunCacheMisses]; c.withRuns && runs != misses {
			t.Errorf("%s: %d runs for %d misses", c.name, runs, misses)
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
		loops := query.OutermostLoops(p.MustFunc("app"))
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
