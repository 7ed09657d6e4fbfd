package tasks

import (
	"fmt"

	"psaflow/internal/core"
	"psaflow/internal/platform"
)

// Mode selects how branch point A resolves (paper §IV-B).
type Mode int

// Flow execution modes.
const (
	// Informed applies the Fig. 3 PSA strategy at branch point A,
	// producing the designs of one target class.
	Informed Mode = iota
	// Uninformed selects every path at branch point A, producing all five
	// design versions.
	Uninformed
)

// String is the mode as the CLIs and the job API spell it.
func (m Mode) String() string {
	if m == Uninformed {
		return "uninformed"
	}
	return "informed"
}

// ParseMode reads a mode as the CLIs and the job API spell it; an empty
// string is Informed.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "informed":
		return Informed, nil
	case "uninformed":
		return Uninformed, nil
	}
	return Informed, fmt.Errorf("unknown mode %q", s)
}

// FlowOptions configures BuildPSAFlowWithOptions and, under the name
// flowlang.Options, the compilation of a .psa document.
type FlowOptions struct {
	Mode     Mode
	Strategy StrategyConfig // zero value = DefaultStrategy
	// ResourceSharing swaps the FPGA unroll DSE for the sharing-enabled
	// variant that can recover overmapped designs by time-multiplexing
	// fixed inner loops (paper §IV-B-iii's suggested remedy).
	ResourceSharing bool
}

// StrategyOrDefault is the one place a zero Strategy becomes
// DefaultStrategy, for the built-in graph and for flowlang alike.
func (o FlowOptions) StrategyOrDefault() StrategyConfig {
	if o.Strategy == (StrategyConfig{}) {
		return DefaultStrategy
	}
	return o.Strategy
}

// BuildPSAFlow assembles the implemented PSA-flow of paper Fig. 4:
// target-independent tasks, branch point A (target class), then the
// target-specific sub-flows with device-specific branch points B (GPUs)
// and C (FPGAs), which always select both device paths.
func BuildPSAFlow(mode Mode, cfg StrategyConfig) *core.Flow {
	return BuildPSAFlowWithOptions(FlowOptions{Mode: mode, Strategy: cfg})
}

// BuildPSAFlowWithOptions is BuildPSAFlow with extension knobs.
func BuildPSAFlowWithOptions(opts FlowOptions) *core.Flow {
	mode, cfg := opts.Mode, opts.StrategyOrDefault()
	flow := &core.Flow{Name: "psa-flow"}
	for _, t := range TargetIndependent() {
		flow.AddTask(t)
	}

	// GPU sub-flow: target-specific tasks, then branch point B.
	gpuFlow := &core.Flow{Name: "gpu-path"}
	gpuFlow.AddTask(GenerateHIP)
	gpuFlow.AddTask(PinnedMemory)
	gpuFlow.AddTask(SinglePrecisionFns)
	gpuFlow.AddTask(SinglePrecisionLiterals)
	gpuFlow.AddTask(SharedMemBuffer)
	gpuFlow.AddTask(SpecialisedMathFns)
	gpuFlow.AddTask(VerifyKernelRuns)
	var gpuPaths []core.Path
	for _, dev := range platform.GPUs() {
		devFlow := &core.Flow{Name: "gpu/" + dev.Name}
		devFlow.AddTask(BlocksizeDSE(dev))
		devFlow.AddTask(RenderDesign)
		gpuPaths = append(gpuPaths, core.Path{Name: dev.Name, Flow: devFlow})
	}
	gpuFlow.AddBranch(core.Branch{PointName: "B", Paths: gpuPaths, Select: core.SelectAll{}})

	// FPGA sub-flow: target-specific tasks, then branch point C. With
	// resource sharing, fixed inner loops stay rolled in source so the
	// sharing DSE can time-multiplex them (the HLS estimator prices
	// unshared fixed loops spatially either way).
	fpgaFlow := &core.Flow{Name: "fpga-path"}
	fpgaFlow.AddTask(GenerateOneAPI)
	if !opts.ResourceSharing {
		fpgaFlow.AddTask(UnrollFixedLoopsTask)
	}
	fpgaFlow.AddTask(SinglePrecisionFns)
	fpgaFlow.AddTask(SinglePrecisionLiterals)
	fpgaFlow.AddTask(VerifyKernelRuns)
	var fpgaPaths []core.Path
	for _, dev := range platform.FPGAs() {
		devFlow := &core.Flow{Name: "fpga/" + dev.Name}
		if dev.USM {
			devFlow.AddTask(ZeroCopy(dev))
		}
		if opts.ResourceSharing {
			devFlow.AddTask(UnrollUntilOvermapWithSharing(dev))
		} else {
			devFlow.AddTask(UnrollUntilOvermap(dev))
		}
		devFlow.AddTask(RenderDesign)
		fpgaPaths = append(fpgaPaths, core.Path{Name: dev.Name, Flow: devFlow})
	}
	fpgaFlow.AddBranch(core.Branch{PointName: "C", Paths: fpgaPaths, Select: core.SelectAll{}})

	// CPU sub-flow.
	cpuFlow := &core.Flow{Name: "cpu-path"}
	cpuFlow.AddTask(OMPParallelLoops)
	cpuFlow.AddTask(NumThreadsDSE)
	cpuFlow.AddTask(RenderDesign)

	var selector core.Selector
	if mode == Informed {
		selector = InformedSelector(cfg)
	} else {
		selector = core.SelectAll{}
	}
	flow.AddBranch(core.Branch{
		PointName: "A",
		Paths: []core.Path{
			{Name: "gpu", Flow: gpuFlow},
			{Name: "fpga", Flow: fpgaFlow},
			{Name: "cpu", Flow: cpuFlow},
		},
		Select: selector,
		// The Fig. 3 cost-evaluation feedback loop sits at branch point A.
		Gated: true,
	})
	return flow
}
