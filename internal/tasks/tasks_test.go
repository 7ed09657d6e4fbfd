package tasks

import (
	"reflect"
	"strings"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/hls"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/query"
)

// synthetic workload: a compute-bound parallel app with a clear hotspot.
const appSrc = `
void app(int n, const double *in, double *out) {
    for (int w = 0; w < n; w++) {
        out[w] = 0.0;
    }
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int r = 0; r < 64; r++) {
            acc += sqrt(in[i] * in[i] + (double)r);
        }
        out[i] = acc;
    }
}
`

type synthWorkload struct{ n int }

func (w synthWorkload) Name() string  { return "synth" }
func (w synthWorkload) Entry() string { return "app" }
func (w synthWorkload) Args() []interp.Value {
	in := make([]float64, w.n)
	for i := range in {
		in[i] = float64(i) * 0.5
	}
	return []interp.Value{
		interp.IntVal(int64(w.n)),
		interp.BufVal(interp.NewFloatBuffer("in", minic.Double, in)),
		interp.BufVal(interp.NewFloatBuffer("out", minic.Double, make([]float64, w.n))),
	}
}

func synthCtx() *core.Context {
	return &core.Context{Workload: synthWorkload{n: 64}, CPU: platform.EPYC7543}
}

func runTindep(t *testing.T) (*core.Context, *core.Design) {
	t.Helper()
	ctx := synthCtx()
	d := core.NewDesign("synth", minic.MustParse(appSrc))
	for _, task := range TargetIndependent() {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("task %s: %v", task.Name(), err)
		}
	}
	return ctx, d
}

func TestIdentifyHotspotsFindsComputeLoop(t *testing.T) {
	ctx := synthCtx()
	d := core.NewDesign("synth", minic.MustParse(appSrc))
	if err := IdentifyHotspots.Run(ctx, d); err != nil {
		t.Fatalf("IdentifyHotspots: %v", err)
	}
	if d.Report.HotspotLoopID == 0 {
		t.Fatal("no hotspot found")
	}
	if d.Report.HotspotShare < 0.8 {
		t.Errorf("hotspot share = %v, want > 0.8 (the sqrt loop dominates)", d.Report.HotspotShare)
	}
}

func TestExtractAfterIdentify(t *testing.T) {
	_, d := runTindep(t)
	if d.Kernel != "synth_hotspot" {
		t.Fatalf("kernel = %q", d.Kernel)
	}
	kfn := d.KernelFunc()
	if kfn == nil {
		t.Fatal("kernel function missing")
	}
	// The init loop must stay in the host.
	host := d.Prog.MustFunc("app")
	if !strings.Contains(minic.Print(&minic.Program{Funcs: []*minic.FuncDecl{host}}), "synth_hotspot(") {
		t.Error("host does not call kernel")
	}
}

func TestAnalysesPopulateReport(t *testing.T) {
	_, d := runTindep(t)
	r := d.Report
	if r.KernelFlops <= 0 || r.HotspotCycles <= 0 {
		t.Errorf("flops=%v cycles=%v", r.KernelFlops, r.HotspotCycles)
	}
	if r.SpecialFlops <= 0 || r.SpecialFlops >= r.KernelFlops {
		t.Errorf("special flops = %v of %v", r.SpecialFlops, r.KernelFlops)
	}
	if r.BytesIn <= 0 || r.BytesOut <= 0 {
		t.Errorf("in=%v out=%v", r.BytesIn, r.BytesOut)
	}
	if r.DynamicAI <= 0 {
		t.Errorf("dynamic AI = %v", r.DynamicAI)
	}
	if r.OuterDeps == nil || !r.OuterDeps.Parallel() {
		t.Errorf("outer loop should be parallel: %+v", r.OuterDeps)
	}
	if r.OuterTrips != 64 {
		t.Errorf("outer trips = %v, want 64", r.OuterTrips)
	}
	if r.Calls != 1 {
		t.Errorf("calls = %v, want 1", r.Calls)
	}
	if r.SerialDepth != 64 {
		// inner r-loop is a fixed-bound reduction: serial depth 64
		t.Errorf("serial depth = %v, want 64", r.SerialDepth)
	}
	if r.RegsEstimate <= 0 {
		t.Errorf("regs = %v", r.RegsEstimate)
	}
	if len(r.AliasPairs) != 0 {
		t.Errorf("unexpected aliasing: %v", r.AliasPairs)
	}
}

func TestPointerAnalysisDetectsAliasing(t *testing.T) {
	aliasSrc := `
void app(int n, double *a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
    helper(n, a, a);
}
void helper(int n, const double *x, double *y) {
    for (int i = 0; i < n; i++) {
        y[i] = x[i] + 1.0;
    }
}
`
	ctx := &core.Context{CPU: platform.EPYC7543}
	ctx.Workload = funcWorkload{
		entry: "app",
		args: func() []interp.Value {
			return []interp.Value{interp.IntVal(8),
				interp.BufVal(interp.NewFloatBuffer("a", minic.Double, make([]float64, 8)))}
		},
	}
	d := core.NewDesign("alias", minic.MustParse(aliasSrc))
	d.Kernel = "helper"
	// The kernel is named by hand, not given by Extract Hotspot, so the
	// task's Fn runs without Run's need check.
	err := PointerAnalysis.Fn(ctx, d)
	if err == nil || !strings.Contains(err.Error(), "alias") {
		t.Fatalf("err = %v, want aliasing failure", err)
	}
}

type funcWorkload struct {
	entry string
	args  func() []interp.Value
}

func (w funcWorkload) Name() string         { return "w" }
func (w funcWorkload) Entry() string        { return w.entry }
func (w funcWorkload) Args() []interp.Value { return w.args() }

func TestGPUPathTasks(t *testing.T) {
	ctx, d := runTindep(t)
	for _, task := range []core.Task{GenerateHIP, PinnedMemory, SinglePrecisionFns,
		SinglePrecisionLiterals, SharedMemBuffer, SpecialisedMathFns, VerifyKernelRuns} {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("task %s: %v", task.Name(), err)
		}
	}
	if d.Target != platform.TargetGPU || !d.Pinned {
		t.Errorf("target=%v pinned=%v", d.Target, d.Pinned)
	}
	if !d.Report.SinglePrec {
		t.Error("SP literal task should mark kernel single precision")
	}
	src := minic.Print(&minic.Program{Funcs: []*minic.FuncDecl{d.KernelFunc()}})
	if !strings.Contains(src, "__fsqrt_rn(") {
		t.Errorf("specialised sqrt missing:\n%s", src)
	}
	// The read-only input array should be staged through shared memory.
	found := false
	for _, name := range d.SharedMem {
		if name == "in" {
			found = true
		}
	}
	if !found {
		t.Errorf("shared mem staging = %v, want [in]", d.SharedMem)
	}

	bsTask := BlocksizeDSE(platform.RTX2080Ti)
	if err := bsTask.Run(ctx, d); err != nil {
		t.Fatalf("blocksize DSE: %v", err)
	}
	if d.Blocksize <= 0 || d.Device != platform.RTX2080Ti.Name {
		t.Errorf("blocksize=%d device=%q", d.Blocksize, d.Device)
	}
	if err := RenderDesign.Run(ctx, d); err != nil {
		t.Fatalf("render: %v", err)
	}
	if d.Artifact == nil || d.Artifact.Target != "hip" {
		t.Fatalf("artifact = %+v", d.Artifact)
	}
}

// TestBlocksizeDSENoFeasibleBlocksize: a GPU no blocksize candidate fits
// leaves the design infeasible on that device, named in its label, as the
// unroll DSE leaves a design that overmaps; the device is chosen either
// way, so a render after it runs (and renders nothing).
func TestBlocksizeDSENoFeasibleBlocksize(t *testing.T) {
	ctx, d := runTindep(t)
	if err := GenerateHIP.Run(ctx, d); err != nil {
		t.Fatal(err)
	}
	dev := platform.RTX2080Ti
	dev.Name, dev.MaxBlockSize = "Tiny GPU", perfmodel.BlocksizeCandidates[0]/2
	if err := BlocksizeDSE(dev).Run(ctx, d); err != nil {
		t.Fatal(err)
	}
	if d.Infeasible != "no feasible blocksize" || d.Device != dev.Name || d.Label() != "synth/gpu/Tiny GPU" {
		t.Errorf("infeasible=%q device=%q label=%q", d.Infeasible, d.Device, d.Label())
	}
	if err := RenderDesign.Run(ctx, d); err != nil || d.Artifact != nil {
		t.Errorf("render: err=%v artifact=%v", err, d.Artifact)
	}
}

func TestFPGAPathTasks(t *testing.T) {
	ctx, d := runTindep(t)
	for _, task := range []core.Task{GenerateOneAPI, UnrollFixedLoopsTask,
		SinglePrecisionFns, SinglePrecisionLiterals, VerifyKernelRuns} {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("task %s: %v", task.Name(), err)
		}
	}
	// The fixed 64-trip reduction loop is materialized.
	kfn := d.KernelFunc()
	src := minic.Print(&minic.Program{Funcs: []*minic.FuncDecl{kfn}})
	if strings.Contains(src, "for (int r") {
		t.Errorf("fixed inner loop not unrolled:\n%s", src[:400])
	}

	zc := ZeroCopy(platform.Stratix10)
	if err := zc.Run(ctx, d); err != nil {
		t.Fatalf("zero copy: %v", err)
	}
	if !d.ZeroCopy {
		t.Error("zero copy flag not set")
	}
	if err := ZeroCopy(platform.Arria10).Run(ctx, d); err == nil {
		t.Error("zero copy on non-USM device must fail")
	}

	dse := UnrollUntilOvermap(platform.Stratix10)
	if err := dse.Run(ctx, d); err != nil {
		t.Fatalf("unroll DSE: %v", err)
	}
	if d.Infeasible != "" {
		t.Fatalf("design infeasible: %s", d.Infeasible)
	}
	if d.UnrollFactor < 1 || d.HLSReport == nil {
		t.Fatalf("unroll=%d report=%v", d.UnrollFactor, d.HLSReport)
	}
	if !d.HLSReport.Fits {
		t.Error("final report must fit")
	}
	if err := RenderDesign.Run(ctx, d); err != nil {
		t.Fatalf("render: %v", err)
	}
	if d.Artifact == nil || d.Artifact.Target != "oneapi" {
		t.Fatalf("artifact = %+v", d.Artifact)
	}
	if !strings.Contains(d.Artifact.Source, "malloc_host") {
		t.Error("zero-copy design should use USM host allocations")
	}
}

// TestUnrollWalkFixedPipelineLoop covers the one kernel shape whose
// datapath changes during the Fig. 2 walk: "unroll 1" marks a fixed-trip
// pipeline loop rolled, any larger factor leaves it spatial. The walk's
// winning report must still be the partial compile of the design it
// leaves behind.
func TestUnrollWalkFixedPipelineLoop(t *testing.T) {
	prog := minic.MustParse(`
void k(const float *a, float *b) {
    for (int i = 0; i < 16; i++) {
        b[i] = a[i] * 2.0f + 1.0f;
    }
}
`)
	d := core.NewDesign("fixed", prog)
	d.Kernel = "k"
	dev := platform.Stratix10
	// A hand-named kernel: no task gave it, so call Fn, not Run.
	if err := UnrollUntilOvermap(dev).Fn(synthCtx(), d); err != nil {
		t.Fatal(err)
	}
	if d.UnrollFactor < 2 {
		t.Fatalf("unroll = %d (%s), want a factor past the rolled n=1 step", d.UnrollFactor, d.Infeasible)
	}
	if want := hls.Estimate(d.Prog, d.KernelFunc(), dev, 0); !reflect.DeepEqual(d.HLSReport, want) {
		t.Errorf("walk kept %+v\nthe design it left estimates as %+v", d.HLSReport, want)
	}
}

func TestCPUPathTasks(t *testing.T) {
	ctx, d := runTindep(t)
	if err := OMPParallelLoops.Run(ctx, d); err != nil {
		t.Fatalf("OMP task: %v", err)
	}
	if d.Target != platform.TargetCPU {
		t.Errorf("target = %v", d.Target)
	}
	if err := NumThreadsDSE.Run(ctx, d); err != nil {
		t.Fatalf("threads DSE: %v", err)
	}
	if d.NumThreads != 32 {
		t.Errorf("threads = %d, want 32", d.NumThreads)
	}
	if err := RenderDesign.Run(ctx, d); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(d.Artifact.Source, "omp parallel for") {
		t.Error("OMP pragma missing from artifact")
	}
}

func TestOMPRejectsSerialLoop(t *testing.T) {
	serialSrc := `
void app(int n, double *a) {
    for (int i = 1; i < n; i++) {
        a[i] = a[i - 1] * 0.5 + (double)i;
    }
}
`
	ctx := &core.Context{CPU: platform.EPYC7543}
	ctx.Workload = funcWorkload{entry: "app", args: func() []interp.Value {
		return []interp.Value{interp.IntVal(16),
			interp.BufVal(interp.NewFloatBuffer("a", minic.Double, make([]float64, 16)))}
	}}
	d := core.NewDesign("serial", minic.MustParse(serialSrc))
	for _, task := range TargetIndependent() {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("tindep %s: %v", task.Name(), err)
		}
	}
	if err := OMPParallelLoops.Run(ctx, d); err == nil {
		t.Fatal("OMP task must reject a loop-carried recurrence")
	}
}

// TestOMPRejectsCarriedScalarMessage pins the text of the rejection for a
// loop that carries a scalar: each dependence renders as
// kind "name": detail, the scalar's detail rendered when read.
func TestOMPRejectsCarriedScalarMessage(t *testing.T) {
	prog := minic.MustParse(`
void k(int n, double *a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s * 0.5 + a[i];
        a[i] = s;
    }
}
`)
	d := core.NewDesign("carried", prog)
	d.Kernel = "k"
	d.Report.OuterDeps = analysis.AnalyzeLoop(query.OutermostLoops(d.KernelFunc())[0])
	// A hand-named kernel: no task gave it, so call Fn, not Run.
	err := OMPParallelLoops.Fn(&core.Context{}, d)
	const want = `outer loop is not parallelizable: scalar "s": scalar "s" written in loop body and visible outside`
	if err == nil || err.Error() != want {
		t.Fatalf("OMP task error = %v, want %q", err, want)
	}
}

func TestInformedStrategyBranches(t *testing.T) {
	ctx, d := runTindep(t)
	// Compute-bound, outer parallel, inner fixed-64 dep loop: 64 > the
	// fully-unrollable limit (12), so the strategy picks the GPU.
	target, ok := firstChoice(t, ctx, d, DefaultStrategy)
	if !ok || target != platform.TargetGPU {
		t.Fatalf("selected = %v ok=%v, want gpu", target, ok)
	}
	// With an absurd AI threshold everything is memory bound → CPU.
	cfg := DefaultStrategy
	cfg.AIThreshold = 1e12
	target, ok = firstChoice(t, ctx, d, cfg)
	if !ok || target != platform.TargetCPU {
		t.Fatalf("selected = %v ok=%v, want cpu at huge X", target, ok)
	}
}
