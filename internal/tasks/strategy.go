package tasks

import (
	"fmt"

	"psaflow/internal/core"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
)

// StrategyConfig tunes the Fig. 3 PSA strategy.
type StrategyConfig struct {
	// AIThreshold is the paper's tunable X: kernels with FLOPs/B below it
	// are memory bound and stay on the CPU.
	AIThreshold float64
	// TransferBW is the host-accelerator bandwidth used for the
	// Tdata_trnsfr estimate at branch point A (before a device is chosen).
	TransferBW float64
}

// DefaultStrategy is the configuration used throughout the evaluation.
var DefaultStrategy = StrategyConfig{
	AIThreshold: 6.0,
	TransferBW:  12.0e9,
}

// pathIndex finds a branch path by name.
func pathIndex(paths []core.Path, name string) (int, error) {
	for i, p := range paths {
		if p.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("strategy: no branch path named %q", name)
}

// fig3Decide is the decision tree of paper Fig. 3 for branch point A, as a
// pure function of its inputs:
//
//	Tdata_trnsfr < Tcpu AND FLOPs/B > X ?
//	  no  → outer loop parallel? yes → CPU path, no → terminate
//	  yes → outer loop parallel?
//	          no  → FPGA
//	          yes → inner loops with dependences?
//	                  no  → GPU
//	                  yes → fully unrollable? yes → FPGA, no → GPU
//
// ok=false is "terminate": not worth offloading and not parallel.
func fig3Decide(tCPU, tData, ai, x float64, parallel bool, innerWithDeps int, allDepsFixed bool) (target platform.TargetKind, ok bool) {
	offload := tData < tCPU && ai > x
	switch {
	case !offload && parallel:
		return platform.TargetCPU, true
	case !offload:
		return 0, false
	case !parallel:
		return platform.TargetFPGA, true
	case innerWithDeps == 0:
		return platform.TargetGPU, true
	case allDepsFixed:
		return platform.TargetFPGA, true
	default:
		return platform.TargetGPU, true
	}
}

// fig3Inputs reads the tree's measured inputs off a design's kernel report:
// single-thread CPU time, the transfer-time estimate, arithmetic intensity
// (dynamic when profiled, static otherwise) and outer-loop parallelism.
func fig3Inputs(ctx *core.Context, r *core.KernelReport, cfg StrategyConfig) (tCPU, tData, ai float64, parallel bool) {
	ai = r.DynamicAI
	if ai == 0 {
		ai = r.StaticAI
	}
	return perfmodel.CPUTime1(ctx.CPU, r.Features()), (r.BytesIn + r.BytesOut) / cfg.TransferBW, ai,
		r.OuterDeps.ParallelWithReduction()
}

// InformedSelector implements the example PSA strategy of paper Fig. 3
// (fig3Decide) for branch point A, choosing among the "gpu", "fpga", and
// "cpu" paths: the tree's target first, then the CPU path, then termination.
func InformedSelector(cfg StrategyConfig) core.Selector {
	return core.SelectorFunc{
		SelName: "informed-fig3",
		Fn: func(ctx *core.Context, d *core.Design, paths []core.Path) ([]core.Alternative, error) {
			r := d.Report
			if r.OuterDeps == nil {
				return nil, fmt.Errorf("strategy requires dependence analysis results")
			}
			tCPU, tData, ai, parallel := fig3Inputs(ctx, r, cfg)
			d.Tracef("branch", "A", "Tcpu=%.4gs Tdata=%.4gs AI=%.2f (X=%.2f) parallel=%t innerDeps=%d fullyUnrollable=%t",
				tCPU, tData, ai, cfg.AIThreshold, parallel, r.Unroll.InnerWithDeps, r.Unroll.AllDepsFixed)
			target, ok := fig3Decide(tCPU, tData, ai, cfg.AIThreshold, parallel, r.Unroll.InnerWithDeps, r.Unroll.AllDepsFixed)
			if !ok {
				d.Tracef("branch", "A", "not worth offloading and not parallel: flow terminates")
				return nil, nil
			}
			i, err := pathIndex(paths, target.String())
			if err != nil {
				return nil, err
			}
			if cpu, err := pathIndex(paths, "cpu"); err == nil && cpu != i {
				return core.Prefer(i, cpu), nil
			}
			return core.Prefer(i), nil
		},
	}
}
