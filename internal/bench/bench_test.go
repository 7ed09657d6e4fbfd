package bench

import (
	"strings"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/hls"
	"psaflow/internal/interp"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/query"
)

func TestAllBenchmarksParse(t *testing.T) {
	for _, b := range All() {
		prog := b.Parse()
		if prog.Func(b.Entry) == nil {
			t.Errorf("%s: entry %q missing", b.Name, b.Entry)
		}
	}
}

func TestAllBenchmarksExecute(t *testing.T) {
	for _, b := range All() {
		res, err := interp.Run(b.Parse(), interp.Config{Entry: b.Entry, Args: b.MakeArgs()})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(res.Output) == 0 {
			t.Errorf("%s: driver produced no validation output", b.Name)
		}
		if res.Prof.Cycles <= 0 {
			t.Errorf("%s: no cycles recorded", b.Name)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, b := range All() {
		r1, err1 := interp.Run(b.Parse(), interp.Config{Entry: b.Entry, Args: b.MakeArgs()})
		r2, err2 := interp.Run(b.Parse(), interp.Config{Entry: b.Entry, Args: b.MakeArgs()})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", b.Name, err1, err2)
		}
		if strings.Join(r1.Output, "|") != strings.Join(r2.Output, "|") {
			t.Errorf("%s: nondeterministic output:\n%v\n%v", b.Name, r1.Output, r2.Output)
		}
		if r1.Prof.Cycles != r2.Prof.Cycles {
			t.Errorf("%s: nondeterministic cycles", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, b := range All() {
		got, err := ByName(b.Name)
		if err != nil || got.Name != b.Name {
			t.Errorf("ByName(%s): %v", b.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

// hotspotOf runs hotspot detection and returns the function holding the
// hottest outermost loop.
func hotspotOf(t *testing.T, b *Benchmark) (string, float64) {
	t.Helper()
	res, err := interp.Run(b.Parse(), interp.Config{Entry: b.Entry, Args: b.MakeArgs()})
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	hs, share := res.Prof.Hotspot()
	if hs == nil {
		t.Fatalf("%s: no hotspot", b.Name)
	}
	return hs.Func, share
}

func TestHotspotsLandInComputeKernels(t *testing.T) {
	want := map[string]string{
		"nbody":       "nbody_step",
		"kmeans":      "kmeans_iter",
		"adpredictor": "adpredictor_batch",
		"rushlarsen":  "rush_larsen",
		"bezier":      "bezier_surface",
	}
	for _, b := range All() {
		fn, share := hotspotOf(t, b)
		if fn != want[b.Name] {
			t.Errorf("%s: hotspot in %q, want %q", b.Name, fn, want[b.Name])
		}
		if share < 0.5 {
			t.Errorf("%s: hotspot share %.2f, want > 0.5", b.Name, share)
		}
	}
}

func TestRegisterEstimates(t *testing.T) {
	// Rush Larsen must hit the paper's 255 registers/thread; streaming
	// kernels stay far below.
	rush, _ := ByName("rushlarsen")
	prog := rush.Parse()
	if regs := analysis.RegisterEstimate(prog.MustFunc("rush_larsen")); regs != 255 {
		t.Errorf("rush regs = %d, want 255 (paper)", regs)
	}
	km, _ := ByName("kmeans")
	if regs := analysis.RegisterEstimate(km.Parse().MustFunc("kmeans_iter")); regs >= 255 {
		t.Errorf("kmeans regs = %d, want below the cap", regs)
	}
}

func TestOuterLoopParallelism(t *testing.T) {
	kernels := map[string]string{
		"nbody":       "nbody_step",
		"kmeans":      "kmeans_iter",
		"adpredictor": "adpredictor_batch",
		"rushlarsen":  "rush_larsen",
		"bezier":      "bezier_surface",
	}
	for name, fnName := range kernels {
		b, _ := ByName(name)
		prog := b.Parse()
		outer := query.OutermostLoops(prog.MustFunc(fnName))
		if len(outer) == 0 {
			t.Fatalf("%s: no loops", name)
		}
		deps := analysis.AnalyzeLoop(outer[0])
		if !deps.ParallelWithReduction() {
			t.Errorf("%s: compute loop must be outer-parallel: %+v", name, deps.Carried)
		}
	}
}

func TestRushLarsenOvermapsBothFPGAs(t *testing.T) {
	b, _ := ByName("rushlarsen")
	prog := b.Parse()
	fn := prog.MustFunc("rush_larsen")
	// Even at unroll 1 the 20x3 exponential units exceed both devices:
	// the paper's "designs exceed the capacity of our current FPGA
	// devices" outcome. The gate loop is accounted spatially by
	// WeightedOps whether or not materialized.
	repA10 := hls.Estimate(prog, fn, platform.Arria10, 0)
	repS10 := hls.Estimate(prog, fn, platform.Stratix10, 0)
	if repA10.Fits {
		t.Errorf("rush should overmap Arria 10: %s", repA10)
	}
	if repS10.Fits {
		t.Errorf("rush should overmap Stratix 10: %s", repS10)
	}
}

func TestEvalScaleApply(t *testing.T) {
	es := EvalScale{Work: 4, Footprint: 2, Threads: 3, Pipelined: 5, Calls: 7}
	f := perfmodel.KernelFeatures{
		HotspotCycles: 10, Flops: 10, SpecialFlops: 4, Bytes: 10,
		TransferIn: 10, TransferOut: 10, Threads: 10, Calls: 1,
	}
	got := es.Apply(f)
	if got.HotspotCycles != 40 || got.Flops != 40 || got.SpecialFlops != 16 {
		t.Errorf("work scaling wrong: %+v", got)
	}
	if got.Bytes != 20 || got.TransferIn != 20 || got.TransferOut != 20 {
		t.Errorf("footprint scaling wrong: %+v", got)
	}
	if got.Threads != 30 || got.Calls != 7 {
		t.Errorf("threads/calls wrong: %+v", got)
	}
	// Zero factors default to 1.
	id := EvalScale{}.Apply(f)
	if id != f {
		t.Errorf("identity scale changed features: %+v", id)
	}
}

func TestEvalScaleApplyHLS(t *testing.T) {
	es := EvalScale{Pipelined: 8}
	rep := &hls.Report{PipelinedTrips: 100}
	out := es.ApplyHLS(rep)
	if out.PipelinedTrips != 800 {
		t.Errorf("trips = %v", out.PipelinedTrips)
	}
	if rep.PipelinedTrips != 100 {
		t.Error("ApplyHLS mutated the input report")
	}
}

func TestRNGDeterministicAndBounded(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 100)
	fillRange(a, 5, -2, 3)
	fillRange(b, 5, -2, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fillRange not deterministic")
		}
		if a[i] < -2 || a[i] >= 3 {
			t.Fatalf("value %v out of range", a[i])
		}
	}
	c := make([]float64, 100)
	fillRange(c, 6, -2, 3)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 10 {
		t.Error("different seeds produce similar sequences")
	}
}
