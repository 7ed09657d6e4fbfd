// Package mlpsa implements the paper's proposed future work (§VI):
// "developing sophisticated ML-based PSA strategies". It provides a
// k-nearest-neighbour target classifier over the same kernel features the
// hand-written Fig. 3 strategy inspects, a synthetic training-set
// generator that labels feature vectors with the fastest target under the
// device models, and an adapter that plugs the trained model into a
// core.Branch as a drop-in Selector.
package mlpsa

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/hls"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
)

// NumFeatures is the dimensionality of the feature vector.
const NumFeatures = 9

// Features is the normalized kernel descriptor the classifier consumes.
type Features [NumFeatures]float64

// FromReport extracts the feature vector from an analyzed kernel report.
// All features are scale-free ratios or structural flags, so a model
// trained at deployment scale transfers to the profile-scale measurements
// available at branch time (the same property the hand-written Fig. 3
// strategy has).
func FromReport(r *core.KernelReport, cpu platform.CPUSpec) Features {
	feat := r.Features()
	log10 := func(v float64) float64 {
		if v <= 0 {
			return 0
		}
		return math.Log10(v)
	}
	boolF := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	ai := r.DynamicAI
	if ai == 0 {
		ai = r.StaticAI
	}
	tCPU := perfmodel.CPUTime1(cpu, feat)
	tData := (r.BytesIn + r.BytesOut) / 12e9
	ratio := 0.0
	if tCPU > 0 {
		ratio = tData / tCPU
	}
	parallel := r.OuterDeps != nil && r.OuterDeps.ParallelWithReduction()
	specialFrac := 0.0
	if feat.Flops > 0 {
		specialFrac = feat.SpecialFlops / feat.Flops
	}
	flopsPerIter := 0.0
	if r.PipelinedTrips > 0 {
		flopsPerIter = feat.Flops * math.Max(feat.Calls, 1) / r.PipelinedTrips
	}
	return Features{
		log10(ai + 1),
		boolF(parallel),
		float64(r.Unroll.InnerWithDeps),
		boolF(r.Unroll.AllDepsFixed),
		log10(feat.SerialDepth + 1),
		float64(feat.Regs) / 255,
		math.Min(ratio, 10),
		specialFrac,
		log10(flopsPerIter + 1),
	}
}

// Example is one labeled training point.
type Example struct {
	X      Features
	Target platform.TargetKind
}

// KNN is a k-nearest-neighbour classifier with per-feature
// standardization.
type KNN struct {
	K        int
	Mean     Features
	Std      Features
	Examples []Example
}

// Train fits the standardization statistics and stores the examples.
func Train(examples []Example, k int) (*KNN, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("mlpsa: no training examples")
	}
	if k <= 0 {
		k = 3
	}
	if k > len(examples) {
		k = len(examples)
	}
	m := &KNN{K: k, Examples: append([]Example(nil), examples...)}
	n := float64(len(examples))
	for _, e := range examples {
		for i, v := range e.X {
			m.Mean[i] += v / n
		}
	}
	for _, e := range examples {
		for i, v := range e.X {
			d := v - m.Mean[i]
			m.Std[i] += d * d / n
		}
	}
	for i := range m.Std {
		m.Std[i] = math.Sqrt(m.Std[i])
		if m.Std[i] < 1e-9 {
			m.Std[i] = 1
		}
	}
	return m, nil
}

func (m *KNN) normalize(x Features) Features {
	var out Features
	for i, v := range x {
		out[i] = (v - m.Mean[i]) / m.Std[i]
	}
	return out
}

func dist2(a, b Features) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Predict returns the majority target among the k nearest neighbours and
// the vote fraction as a confidence.
func (m *KNN) Predict(x Features) (platform.TargetKind, float64) {
	xn := m.normalize(x)
	type scored struct {
		d float64
		t platform.TargetKind
	}
	nb := make([]scored, 0, len(m.Examples))
	for _, e := range m.Examples {
		nb = append(nb, scored{d: dist2(xn, m.normalize(e.X)), t: e.Target})
	}
	sort.Slice(nb, func(i, j int) bool { return nb[i].d < nb[j].d })
	votes := map[platform.TargetKind]int{}
	for i := 0; i < m.K && i < len(nb); i++ {
		votes[nb[i].t]++
	}
	best, bestVotes := platform.TargetCPU, -1
	for _, t := range []platform.TargetKind{platform.TargetCPU, platform.TargetGPU, platform.TargetFPGA} {
		if votes[t] > bestVotes {
			best, bestVotes = t, votes[t]
		}
	}
	return best, float64(bestVotes) / float64(m.K)
}

// Selector adapts the model to a PSA branch point with paths named
// "cpu", "gpu", and "fpga" (the Fig. 4 branch point A layout): the
// predicted target first, then the remaining paths, CPU first.
func Selector(m *KNN) core.Selector {
	return core.SelectorFunc{
		SelName: "ml-knn",
		Fn: func(ctx *core.Context, d *core.Design, paths []core.Path) ([]core.Alternative, error) {
			if d.Report == nil || d.Report.OuterDeps == nil {
				return nil, fmt.Errorf("mlpsa: selector requires analysis results")
			}
			x := FromReport(d.Report, ctx.CPU)
			target, conf := m.Predict(x)
			d.Tracef("branch", "ml", "kNN predicts %s (confidence %.2f)", target, conf)
			var order []int
			for _, name := range []string{target.String(), "cpu", "gpu", "fpga"} {
				i := slices.IndexFunc(paths, func(p core.Path) bool { return p.Name == name })
				if i >= 0 && !slices.Contains(order, i) {
					order = append(order, i)
				}
			}
			return core.Prefer(order...), nil
		},
	}
}

// SyntheticConfig bounds the synthetic kernel distribution.
type SyntheticConfig struct {
	N    int
	Seed int64
}

// SyntheticTrainingSet samples random kernel feature combinations and
// labels each with the fastest target under the device performance models
// — the flow's own cost models act as the oracle, so the classifier
// distils them into a single branch decision. Returns the labeled
// examples (features use the same encoding as FromReport).
func SyntheticTrainingSet(cfg SyntheticConfig) []Example {
	if cfg.N <= 0 {
		cfg.N = 400
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cpu := platform.EPYC7543
	out := make([]Example, 0, cfg.N)
	for len(out) < cfg.N {
		feat, report := randomKernel(rng)
		target, ok := bestTarget(cpu, feat, report)
		if !ok {
			continue
		}
		out = append(out, Example{X: FromReport(report, cpu), Target: target})
	}
	return out
}

// randomKernel draws a plausible kernel: work, data, parallel structure.
func randomKernel(rng *rand.Rand) (perfmodel.KernelFeatures, *core.KernelReport) {
	r := &core.KernelReport{}
	// Work: 1e6 .. 1e12 flops.
	r.KernelFlops = math.Pow(10, 6+6*rng.Float64())
	r.SpecialFlops = r.KernelFlops * rng.Float64() * 0.9
	// Intensity: footprint derived from a target AI 0.1 .. 1000.
	ai := math.Pow(10, -1+4*rng.Float64())
	foot := r.KernelFlops / ai
	r.BytesIn = foot * (0.3 + 0.6*rng.Float64())
	r.BytesOut = foot - r.BytesIn
	r.KernelBytes = foot
	r.DynamicAI = ai
	// CPU cost: 0.5 .. 4 cycles per flop.
	r.HotspotCycles = r.KernelFlops * (0.5 + 3.5*rng.Float64())
	// Geometry: 10..1000 flops per pipelined iteration; outer loops carry
	// up to 100 inner iterations each.
	flopsPerIter := math.Pow(10, 1+2*rng.Float64())
	r.PipelinedTrips = r.KernelFlops / flopsPerIter
	r.OuterTrips = r.PipelinedTrips / math.Pow(10, 2*rng.Float64())
	if r.OuterTrips < 64 {
		r.OuterTrips = 64
	}
	r.Calls = 1
	if rng.Intn(4) == 0 {
		r.Calls = float64(1 + rng.Intn(16))
	}
	if rng.Intn(3) > 0 {
		r.SerialDepth = math.Pow(10, 2.5*rng.Float64())
	}
	r.RegsEstimate = 32 + rng.Intn(224)
	r.SinglePrec = true
	r.HeavyFrac = rng.Float64()
	// Structure flags.
	parallel := rng.Intn(5) > 0 // most kernels have parallel outer loops
	r.OuterDeps = &analysis.LoopDeps{}
	if !parallel {
		r.OuterDeps.Carried = []analysis.Dependence{{Kind: analysis.DepScalar, Name: "acc"}}
	}
	r.Unroll.InnerLoopCount = rng.Intn(3)
	if r.SerialDepth > 0 && r.Unroll.InnerLoopCount == 0 {
		r.Unroll.InnerLoopCount = 1
	}
	r.Unroll.InnerWithDeps = r.Unroll.InnerLoopCount
	r.Unroll.AllDepsFixed = rng.Intn(2) == 0 && r.SerialDepth <= 64
	return r.Features(), r
}

// bestTarget evaluates the three target classes under the device models
// and returns the fastest; ok=false when no target is feasible/sensible.
func bestTarget(cpu platform.CPUSpec, feat perfmodel.KernelFeatures, r *core.KernelReport) (platform.TargetKind, bool) {
	if r.OuterDeps == nil || !r.OuterDeps.ParallelWithReduction() {
		// Serial outer loop: only an FPGA pipeline applies (Fig. 3).
		return platform.TargetFPGA, true
	}
	_, tOMP := perfmodel.BestThreads(cpu, feat)
	best, bestT := platform.TargetCPU, tOMP
	for _, dev := range platform.GPUs() {
		if _, bd := perfmodel.BestBlocksize(dev, feat, true); bd.Total < bestT {
			best, bestT = platform.TargetGPU, bd.Total
		}
	}
	for _, dev := range platform.FPGAs() {
		rep := synthHLSReport(dev, r)
		if bd := perfmodel.FPGATime(dev, rep, feat, dev.USM); bd.Total < bestT {
			best, bestT = platform.TargetFPGA, bd.Total
		}
	}
	return best, bestT > 0 && !math.IsInf(bestT, 1)
}

// synthHLSReport approximates the unroll DSE outcome for a synthetic
// kernel: unroll scales inversely with datapath size (proxied by special
// share), II follows the dependence structure.
func synthHLSReport(dev platform.FPGASpec, r *core.KernelReport) *hls.Report {
	ii := 1
	if r.Unroll.InnerWithDeps > 0 && !r.Unroll.AllDepsFixed {
		ii = 8
	}
	// Datapath footprint scales with flops per pipelined iteration and the
	// transcendental share (special units dominate area).
	flopsPerIter := r.KernelFlops / math.Max(r.PipelinedTrips, 1)
	specialFrac := r.SpecialFlops / math.Max(r.KernelFlops, 1)
	alms := flopsPerIter * 700 * (1 + 3*specialFrac)
	unroll := 1
	for unroll < 64 && alms*float64(unroll*2) < 0.9*float64(dev.ALMs) {
		unroll *= 2
	}
	if alms > 0.9*float64(dev.ALMs) {
		return &hls.Report{Device: dev.Name, Fits: false}
	}
	return &hls.Report{
		Device:         dev.Name,
		Unroll:         unroll,
		II:             ii,
		PipelinedTrips: r.PipelinedTrips,
		FmaxHz:         dev.ClockHz,
		Fits:           true,
	}
}
