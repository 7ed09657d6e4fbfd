package mlpsa

import (
	"slices"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/platform"
)

func TestTrainRequiresExamples(t *testing.T) {
	if _, err := Train(nil, 3); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestTrainClampsK(t *testing.T) {
	ex := SyntheticTrainingSet(SyntheticConfig{N: 5, Seed: 1})
	m, err := Train(ex, 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 5 {
		t.Errorf("k = %d, want clamped to 5", m.K)
	}
	m2, _ := Train(ex, 0)
	if m2.K != 3 {
		t.Errorf("default k = %d, want 3", m2.K)
	}
}

func TestSyntheticTrainingSetCoversAllTargets(t *testing.T) {
	ex := SyntheticTrainingSet(SyntheticConfig{N: 500, Seed: 7})
	if len(ex) != 500 {
		t.Fatalf("examples = %d", len(ex))
	}
	counts := map[platform.TargetKind]int{}
	for _, e := range ex {
		counts[e.Target]++
	}
	for _, target := range []platform.TargetKind{platform.TargetCPU, platform.TargetGPU, platform.TargetFPGA} {
		if counts[target] < 10 {
			t.Errorf("target %s has only %d examples; distribution degenerate: %v",
				target, counts[target], counts)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := SyntheticTrainingSet(SyntheticConfig{N: 50, Seed: 3})
	b := SyntheticTrainingSet(SyntheticConfig{N: 50, Seed: 3})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthetic set not deterministic")
		}
	}
}

// TestHeldOutAccuracy: train on one synthetic sample, evaluate on a
// disjoint one; the kNN must beat a majority-class baseline comfortably.
func TestHeldOutAccuracy(t *testing.T) {
	train := SyntheticTrainingSet(SyntheticConfig{N: 600, Seed: 11})
	test := SyntheticTrainingSet(SyntheticConfig{N: 200, Seed: 97})
	m, err := Train(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	majority := map[platform.TargetKind]int{}
	for _, e := range test {
		majority[e.Target]++
		if got, _ := m.Predict(e.X); got == e.Target {
			correct++
		}
	}
	maxClass := 0
	for _, n := range majority {
		if n > maxClass {
			maxClass = n
		}
	}
	acc := float64(correct) / float64(len(test))
	base := float64(maxClass) / float64(len(test))
	t.Logf("held-out accuracy %.2f (majority baseline %.2f)", acc, base)
	if acc < 0.75 {
		t.Errorf("accuracy %.2f too low", acc)
	}
	if acc <= base {
		t.Errorf("accuracy %.2f does not beat majority baseline %.2f", acc, base)
	}
}

// report builds a hand-crafted kernel report.
func report(parallel bool, ai, flops, serial float64, regs int, innerDeps int, fixed bool) *core.KernelReport {
	r := &core.KernelReport{
		KernelFlops:   flops,
		SpecialFlops:  flops * 0.3,
		KernelBytes:   flops / ai,
		BytesIn:       flops / ai * 0.7,
		BytesOut:      flops / ai * 0.3,
		HotspotCycles: flops * 2,
		// ~100 flops per pipelined iteration, ~1000 per outer iteration —
		// keeps the synthetic kernel geometrically consistent.
		OuterTrips:     flops / 1000,
		PipelinedTrips: flops / 100,
		SerialDepth:    serial,
		Calls:          1,
		DynamicAI:      ai,
		RegsEstimate:   regs,
		SinglePrec:     true,
		OuterDeps:      &analysis.LoopDeps{},
	}
	if !parallel {
		r.OuterDeps.Carried = []analysis.Dependence{{Kind: analysis.DepScalar, Name: "s"}}
	}
	r.Unroll.InnerWithDeps = innerDeps
	r.Unroll.AllDepsFixed = fixed
	return r
}

// TestModelRecoversStrategyDecisions: the classifier trained on device-
// model labels should agree with the physics on clear-cut kernels.
func TestModelRecoversStrategyDecisions(t *testing.T) {
	m, err := Train(SyntheticTrainingSet(SyntheticConfig{N: 800, Seed: 23}), 5)
	if err != nil {
		t.Fatal(err)
	}
	cpu := platform.EPYC7543
	// Memory-bound parallel kernel → CPU.
	memBound := report(true, 0.5, 1e9, 0, 48, 0, false)
	if got, _ := m.Predict(FromReport(memBound, cpu)); got != platform.TargetCPU {
		t.Errorf("memory-bound kernel predicted %s, want cpu", got)
	}
	// Massive compute-bound parallel kernel → GPU.
	computeBound := report(true, 500, 1e12, 0, 48, 0, false)
	if got, _ := m.Predict(FromReport(computeBound, cpu)); got != platform.TargetGPU {
		t.Errorf("compute-bound kernel predicted %s, want gpu", got)
	}
}

func TestSelectorIntegration(t *testing.T) {
	m, err := Train(SyntheticTrainingSet(SyntheticConfig{N: 400, Seed: 31}), 5)
	if err != nil {
		t.Fatal(err)
	}
	sel := Selector(m)
	if sel.Name() != "ml-knn" {
		t.Errorf("selector name %q", sel.Name())
	}
	d := &core.Design{Name: "x", Report: report(true, 500, 1e12, 0, 48, 0, false)}
	ctx := &core.Context{CPU: platform.EPYC7543}
	paths := []core.Path{
		{Name: "gpu"}, {Name: "fpga"}, {Name: "cpu"},
	}
	alts, err := sel.Select(ctx, d, paths)
	if err != nil {
		t.Fatal(err)
	}
	// The predicted target first, then every other path once, CPU first:
	// what the engine falls back on when the prediction is ruled out.
	var order []string
	for _, a := range alts {
		if len(a.Paths) != 1 {
			t.Fatalf("alternative %v takes %d paths, want 1", a, len(a.Paths))
		}
		order = append(order, paths[a.Paths[0]].Name)
	}
	if want := []string{"gpu", "cpu", "fpga"}; !slices.Equal(order, want) {
		t.Fatalf("preference order = %v, want %v", order, want)
	}
	// Selector demands analysis results.
	bare := &core.Design{Name: "bare", Report: &core.KernelReport{}}
	if _, err := sel.Select(ctx, bare, paths); err == nil {
		t.Error("expected error without analysis results")
	}
}

func TestFeatureEncodingStable(t *testing.T) {
	r := report(true, 10, 1e9, 20, 255, 1, true)
	x := FromReport(r, platform.EPYC7543)
	if x[1] != 1 {
		t.Error("parallel flag not encoded")
	}
	if x[2] != 1 {
		t.Error("inner-deps count not encoded")
	}
	if x[3] != 1 {
		t.Error("fully-unrollable flag not encoded")
	}
	if x[5] != 1 {
		t.Errorf("regs feature = %v, want 1 at 255 regs", x[5])
	}
	serial := report(true, 10, 1e9, 0, 64, 0, false)
	y := FromReport(serial, platform.EPYC7543)
	if y[4] != 0 {
		t.Errorf("serial-depth feature = %v, want 0", y[4])
	}
}
