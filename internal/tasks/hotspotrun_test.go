package tasks

// The kernel analyses read the hotspot run's record of its own loop. These
// tests pin the paths on which they must not: no record published, a kernel
// rewritten since outlining, and a hotspot outlining would change.

import (
	"reflect"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/telemetry"
	"psaflow/internal/transform"
)

// helperSrc puts the winning loop in a helper that is entered once from
// inside another depth-1 loop and three times from straight-line code: the
// hotspot run's record of it misses the first entry, so none is published.
const helperSrc = `
void work(int n, const double *in, double *out) {
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int r = 0; r < 16; r++) {
            acc += sqrt(in[i] * in[i] + (double)r);
        }
        out[i] = acc;
    }
}
void app(int n, const double *in, double *out) {
    for (int w = 0; w < 1; w++) {
        work(n, in, out);
    }
    work(n, in, out);
    work(n, in, out);
    work(n, in, out);
}
`

func runTasks(t *testing.T, ctx *core.Context, d *core.Design, list ...core.Task) {
	t.Helper()
	for _, task := range list {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("task %s: %v", task.Name(), err)
		}
	}
}

// TestPartialRecordFallsBackToOutlinedRun: with no record published the
// flow does what every flow did before — one kernel-watched run of the
// outlined program, hit by the other two analyses — and learns what the
// commit before this mode learned (its report, recorded here).
func TestPartialRecordFallsBackToOutlinedRun(t *testing.T) {
	ctx := cachedSynthCtx()
	d := core.NewDesign("synth", minic.MustParse(helperSrc))
	runTasks(t, ctx, d, IdentifyHotspots)
	if d.HotspotProf.WatchLoop != 0 || d.HotspotProf.WatchCalls != 0 || len(d.HotspotProf.ParamTraffic) != 0 {
		t.Fatalf("hotspot run published a record of a loop it watched only in part: %+v", d.HotspotProf)
	}
	runTasks(t, ctx, d, TargetIndependent()[1:]...)
	if d.HotspotProf != nil {
		t.Error("a profile without a record of the kernel was kept past outlining")
	}
	if hits, misses := ctx.Runs.Stats(); misses != 2 || hits != 2 {
		t.Errorf("cache stats hits=%d misses=%d, want 2/2 (hotspot run, kernel-watched run and its two re-readers)", hits, misses)
	}
	if runs := ctx.Telemetry.Snapshot().Counters[telemetry.CounterInterpRuns]; runs != 2 {
		t.Errorf("interp.runs = %d, want 2", runs)
	}
	want := core.KernelReport{
		HotspotLoopID: 7, HotspotShare: 0.9995965092284104, HotspotCycles: 130062,
		KernelFlops: 28672, SpecialFlops: 16384, BytesIn: 512, BytesOut: 512, KernelBytes: 1024,
		OuterTrips: 256, PipelinedTrips: 256, SerialDepth: 16, Calls: 4, DynamicAI: 28,
		StaticAI: d.Report.StaticAI, OuterDeps: d.Report.OuterDeps, Unroll: d.Report.Unroll, RegsEstimate: d.Report.RegsEstimate,
	}
	if !reflect.DeepEqual(*d.Report, want) {
		t.Errorf("report moved from the all-runs path:\ngot:  %+v\nwant: %+v", *d.Report, want)
	}
}

// TestRewrittenKernelIsProfiledAgain: task order in a flow is free, so a
// kernel may be rewritten between outlining and an analysis; the analysis
// must then measure the rewritten program (one more miss, as before), not
// read the record of the loop as it was.
func TestRewrittenKernelIsProfiledAgain(t *testing.T) {
	ctx := cachedSynthCtx()
	d := core.NewDesign("synth", minic.MustParse(appSrc))
	runTasks(t, ctx, d, IdentifyHotspots, ExtractHotspot, PointerAnalysis)
	if hits, misses := ctx.Runs.Stats(); misses != 1 || hits != 0 {
		t.Fatalf("before the rewrite: hits=%d misses=%d, want 0/1", hits, misses)
	}
	asOutlined := d.HotspotProf.WatchCycles
	if n, err := transform.UnrollFixedLoops(d.Prog, d.KernelFunc(), 64); err != nil || n != 1 {
		t.Fatalf("unroll: n=%d err=%v", n, err)
	}
	runTasks(t, ctx, d, DataInOut, TripCount)
	if hits, misses := ctx.Runs.Stats(); misses != 2 || hits != 1 {
		t.Errorf("after the rewrite: hits=%d misses=%d, want 1/2 (data in/out runs the rewritten program, trip count hits it)", hits, misses)
	}
	res, err := interp.Run(d.Prog, interp.Config{Entry: "app", Args: ctx.Workload.Args(), Watch: d.Kernel})
	if err != nil {
		t.Fatal(err)
	}
	if d.Report.HotspotCycles != res.Prof.WatchCycles || d.Report.HotspotCycles == asOutlined {
		t.Errorf("HotspotCycles = %v; the rewritten kernel measures %v, the loop as outlined %v",
			d.Report.HotspotCycles, res.Prof.WatchCycles, asOutlined)
	}
	if d.Report.PipelinedTrips != 64 || d.Report.SerialDepth != 0 {
		t.Errorf("trips pipelined=%v serial=%v, want 64 and 0: the unrolled kernel has one loop",
			d.Report.PipelinedTrips, d.Report.SerialDepth)
	}
}

// TestReidentifiedHotspotIsNotTheKernelRecord: a hotspot run made after
// outlining describes its own hotspot loop in the outlined program, not the
// kernel the design already has; only an outlining marks a profile as the
// kernel's, so the analyses run the program with the kernel watched.
func TestReidentifiedHotspotIsNotTheKernelRecord(t *testing.T) {
	ctx := cachedSynthCtx()
	d := core.NewDesign("synth", minic.MustParse(appSrc))
	runTasks(t, ctx, d, IdentifyHotspots, ExtractHotspot, IdentifyHotspots)
	if d.HotspotProf.WatchLoop == 0 || d.HotspotProf.WatchFunc != "" {
		t.Fatalf("second hotspot run published WatchLoop=%d WatchFunc=%q, want a loop record", d.HotspotProf.WatchLoop, d.HotspotProf.WatchFunc)
	}
	runTasks(t, ctx, d, PointerAnalysis, DataInOut, TripCount)
	if hits, misses := ctx.Runs.Stats(); misses != 3 || hits != 2 {
		t.Errorf("hits=%d misses=%d, want 2/3 (two hotspot runs, one kernel-watched run and its two re-readers)", hits, misses)
	}
	// What a run decides, but for the two fields that now describe the
	// second hotspot run's program.
	want := parentTindepReport
	want.HotspotLoopID, want.HotspotShare = d.Report.HotspotLoopID, d.Report.HotspotShare
	want.StaticAI, want.OuterDeps, want.Unroll, want.RegsEstimate =
		d.Report.StaticAI, d.Report.OuterDeps, d.Report.Unroll, d.Report.RegsEstimate
	got := *d.Report
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report moved from the all-runs path:\ngot:  %+v\nwant: %+v", got, want)
	}
}
