// Package bench provides the five evaluation applications of the paper —
// N-Body Simulation, K-Means Classification, AdPredictor, Rush Larsen ODE
// Solver, and Bezier Surface Generation — as unoptimized MiniC sources
// with workload generators, plus the evaluation-scale factors that map the
// (small, fast-to-interpret) profiling inputs to the deployment-size
// scenario the Fig. 5 speedups describe.
package bench

import (
	"fmt"

	"psaflow/internal/hls"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/perfmodel"
)

// EvalScale maps profiling-run measurements to the evaluation scenario.
// Profiling runs use reduced input sizes so the dynamic analyses stay
// fast; the factors below scale the measured kernel features to the
// deployment size (a standard profile-small / model-large methodology).
type EvalScale struct {
	Work      float64 // scales cycles and FLOPs (total computational work)
	Footprint float64 // scales kernel bytes and host transfer volumes
	Threads   float64 // scales the parallel iteration count per invocation
	Pipelined float64 // scales the FPGA pipelined trip count
	Calls     float64 // kernel invocations in deployment (absolute, ≥1)
}

// Apply returns the features scaled to the evaluation scenario.
func (es EvalScale) Apply(f perfmodel.KernelFeatures) perfmodel.KernelFeatures {
	w := es.Work
	if w <= 0 {
		w = 1
	}
	fp := es.Footprint
	if fp <= 0 {
		fp = 1
	}
	th := es.Threads
	if th <= 0 {
		th = 1
	}
	f.HotspotCycles *= w
	f.Flops *= w
	f.SpecialFlops *= w
	f.Bytes *= fp
	f.TransferIn *= fp
	f.TransferOut *= fp
	f.Threads *= th
	if es.Calls >= 1 {
		f.Calls = es.Calls
	}
	return f
}

// ApplyHLS returns a copy of an HLS report with the pipelined trip count
// scaled to the evaluation scenario.
func (es EvalScale) ApplyHLS(rep *hls.Report) *hls.Report {
	out := *rep
	p := es.Pipelined
	if p <= 0 {
		p = 1
	}
	out.PipelinedTrips *= p
	return &out
}

// Benchmark is one evaluation application.
type Benchmark struct {
	Name   string
	Descr  string
	Source string
	// Entry is the application function dynamic analyses execute.
	Entry string
	// MakeArgs allocates fresh argument buffers for one profiling run.
	MakeArgs func() []interp.Value
	// Scale maps profile measurements to the evaluation scenario.
	Scale EvalScale
	// Expected PSA outcome (paper Fig. 5 "Auto-Selected"), used by tests
	// and reported by the harness.
	ExpectTarget string
}

// Workload adapts a Benchmark to core.Workload.
type Workload struct{ B *Benchmark }

// Name returns the benchmark name.
func (w Workload) Name() string { return w.B.Name }

// Entry returns the application entry function.
func (w Workload) Entry() string { return w.B.Entry }

// Args allocates fresh buffers for one run.
func (w Workload) Args() []interp.Value { return w.B.MakeArgs() }

// Parse returns the benchmark's program (panics on malformed embedded
// source; covered by tests).
func (b *Benchmark) Parse() *minic.Program { return minic.MustParse(b.Source) }

// All returns the five benchmarks in the paper's order of presentation.
func All() []*Benchmark {
	return []*Benchmark{NBody(), KMeans(), AdPredictor(), RushLarsen(), Bezier()}
}

// ByName fetches one benchmark, building only that one.
func ByName(name string) (*Benchmark, error) {
	switch name {
	case "nbody":
		return NBody(), nil
	case "kmeans":
		return KMeans(), nil
	case "adpredictor":
		return AdPredictor(), nil
	case "rushlarsen":
		return RushLarsen(), nil
	case "bezier":
		return Bezier(), nil
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}
