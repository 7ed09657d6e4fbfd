package flowlang

import (
	"sort"

	"psaflow/internal/core"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// DeviceClass partitions device-parameterized tasks and catalog device
// sets: a task constructed from a GPUSpec can only bind a variable ranging
// over "gpus", and vice versa.
type DeviceClass int

// Device classes.
const (
	DevGPU DeviceClass = iota
	DevFPGA
)

func (c DeviceClass) String() string {
	if c == DevGPU {
		return "gpu"
	}
	return "fpga"
}

// taskEntry describes one DSL-visible engine task. Exactly one of Plain
// (parameterless) or the device constructors (GPU/FPGA, discriminated by
// Class) is set.
type taskEntry struct {
	Plain core.Task
	Class DeviceClass
	GPU   func(platform.GPUSpec) core.TaskFunc
	FPGA  func(platform.FPGASpec) core.TaskFunc
}

func (e taskEntry) needsDevice() bool { return e.GPU != nil || e.FPGA != nil }

// taskRegistry maps DSL task names (kebab-case, matching the engine task
// names reported in telemetry spans) to their engine constructors. This is
// the complete surface the validator checks "task" statements against.
var taskRegistry = map[string]taskEntry{
	// Target-independent analysis (paper Fig. 4, left column).
	"identify-hotspots":    {Plain: tasks.IdentifyHotspots},
	"extract-hotspot":      {Plain: tasks.ExtractHotspot},
	"pointer-analysis":     {Plain: tasks.PointerAnalysis},
	"arithmetic-intensity": {Plain: tasks.ArithmeticIntensity},
	"data-in-out":          {Plain: tasks.DataInOut},
	"loop-dependence":      {Plain: tasks.LoopDependence},
	"trip-count":           {Plain: tasks.TripCount},
	"remove-plus-eq-dep":   {Plain: tasks.RemovePlusEqDep},

	// GPU path.
	"generate-hip":              {Plain: tasks.GenerateHIP},
	"pinned-memory":             {Plain: tasks.PinnedMemory},
	"single-precision-fns":      {Plain: tasks.SinglePrecisionFns},
	"single-precision-literals": {Plain: tasks.SinglePrecisionLiterals},
	"shared-mem-buffer":         {Plain: tasks.SharedMemBuffer},
	"specialised-math-fns":      {Plain: tasks.SpecialisedMathFns},
	"verify-kernel-runs":        {Plain: tasks.VerifyKernelRuns},
	"blocksize-dse":             {Class: DevGPU, GPU: tasks.BlocksizeDSE},

	// FPGA path.
	"generate-oneapi":              {Plain: tasks.GenerateOneAPI},
	"unroll-fixed-loops":           {Plain: tasks.UnrollFixedLoopsTask},
	"zero-copy":                    {Class: DevFPGA, FPGA: tasks.ZeroCopy},
	"unroll-until-overmap":         {Class: DevFPGA, FPGA: tasks.UnrollUntilOvermap},
	"unroll-until-overmap-sharing": {Class: DevFPGA, FPGA: tasks.UnrollUntilOvermapWithSharing},

	// CPU path.
	"omp-parallel-loops": {Plain: tasks.OMPParallelLoops},
	"num-threads-dse":    {Plain: tasks.NumThreadsDSE},

	// Shared tail.
	"render-design": {Plain: tasks.RenderDesign},
}

// deviceSets maps foreach set names to the platform catalog, preserving
// catalog order (which the engine's branch points B and C depend on).
var deviceSets = map[string]DeviceClass{
	"gpus":  DevGPU,
	"fpgas": DevFPGA,
}

// deviceProps lists the device properties usable in when-conditions, per
// class. Only FPGAs expose a property today (USM support gates zero-copy).
var deviceProps = map[DeviceClass]map[string]bool{
	DevGPU:  {},
	DevFPGA: {"usm": true},
}

// flowConds lists the compile-time flow-option conditions.
var flowConds = map[string]bool{
	"sharing":    true,
	"informed":   true,
	"uninformed": true,
}

// strategyNames lists valid branch strategies: "auto" follows the flow
// options (informed selector in informed mode, select-all otherwise),
// "informed" always applies the Fig. 3 strategy, "all" always selects
// every path.
var strategyNames = map[string]bool{
	"auto":     true,
	"informed": true,
	"all":      true,
}

// strategyArgKeys lists valid strategy tuning arguments.
var strategyArgKeys = map[string]bool{
	"ai-threshold": true,
	"transfer-bw":  true,
}

// TaskNames returns every DSL task name, sorted — used by the docs
// coverage gate and error messages.
func TaskNames() []string {
	names := make([]string, 0, len(taskRegistry))
	for n := range taskRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
