package tasks

import (
	"fmt"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/faults"
	"psaflow/internal/hls"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/telemetry"
	"psaflow/internal/transform"
)

// GenerateOneAPI is the "Generate oneAPI Design" code-generation task: it
// marks the design as a CPU+FPGA target; RenderDesign emits the SYCL
// source once the unroll DSE has fixed the pipeline configuration.
var GenerateOneAPI = core.TaskFunc{
	TaskName: "Generate oneAPI Design", TaskKind: core.CodeGen, Need: core.FactKernel, Give: core.FactTarget,
	Fn: func(ctx *core.Context, d *core.Design) error {
		d.Target = platform.TargetFPGA
		return nil
	},
}

// UnrollFixedLoopsTask is the "Unroll Fixed Loops" FPGA transform: fixed-
// bound inner loops are fully materialized so they map to spatial
// pipelines.
var UnrollFixedLoopsTask = core.TaskFunc{
	TaskName: "Unroll Fixed Loops", TaskKind: core.Transform, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		// Only inner loops: leave the outer pipeline loop rolled. The
		// transform's fixed-trip test naturally skips the (runtime-bounded)
		// outer loop; a fixed OUTER loop is protected by unrolling only
		// when another loop remains, so check first.
		outer := query.OutermostLoops(d.KernelFunc())
		if len(outer) == 1 {
			if _, fixed := query.FixedTripCount(outer[0]); fixed {
				// Temporarily make the outer loop non-eligible by limit 0
				// if it is the only loop; unrolling it away would remove
				// the pipeline.
				inner := query.InnerLoops(outer[0])
				if len(inner) == 0 {
					return nil
				}
			}
		}
		// Unrolling renumbers the kernel, the last function: from here on
		// the kernel is this design's, and every other function stays shared.
		n, err := transform.UnrollFixedLoops(d.Prog, d.EditKernel(), MaterializeUnrollLimit)
		if err != nil {
			return err
		}
		d.Record(events.NoteUnrollFixed, "unrollfixed", nil, float64(n))
		return nil
	},
}

// ZeroCopy is the "Zero-Copy Data Transfer" transform, valid only on
// devices with unified shared memory (Stratix 10): kernel buffers become
// USM host allocations streamed by the pipeline.
func ZeroCopy(dev platform.FPGASpec) core.TaskFunc {
	return core.TaskFunc{
		TaskName: "Zero-Copy Data Transfer", TaskKind: core.Transform,
		Fn: func(ctx *core.Context, d *core.Design) error {
			if !dev.USM {
				return fmt.Errorf("device %s does not support USM zero-copy", dev.Name)
			}
			d.ZeroCopy = true
			return nil
		},
	}
}

// UnrollUntilOvermap returns the per-device "Unroll Until Overmap DSE"
// task — the paper's Fig. 2 meta-program: the outer kernel loop's unroll
// pragma doubles until the estimated LUT utilisation crosses 90%, keeping
// the last fitting design. If no factor fits (including 1), the design is
// marked infeasible — exactly what happens to Rush Larsen's CPU+FPGA
// designs in the paper.
func UnrollUntilOvermap(dev platform.FPGASpec) core.TaskFunc {
	return core.TaskFunc{
		TaskName: dev.Name + " Unroll Until Overmap DSE",
		TaskKind: core.Optimisation, IsDyn: true, Need: core.FactKernel, Give: core.FactDevice,
		Fn: func(ctx *core.Context, d *core.Design) error {
			// Claiming the board is the DSE's first act; an unavailable
			// device fails the path non-transiently so the branch degrades.
			if err := ctx.FailPoint(faults.Device, dev.Name); err != nil {
				return err
			}
			outer := query.FirstOutermostLoop(d.KernelFunc())
			if outer == nil {
				return fmt.Errorf("kernel has no pipeline loop")
			}
			// The walk writes only the pipeline loop's pragmas, so the design
			// copies the path down to it, not the kernel. The costing below
			// reads the kernel that holds the copy.
			loop := d.EditLoop(outer)
			kfn := d.KernelFunc()
			// One datapath costing serves the whole walk, with one exception:
			// "unroll 1" marks a fixed-trip loop rolled, so a fixed pipeline
			// loop is costed rolled at n=1 and spatial from n=2 on.
			_, fixedOuter := query.FixedTripCount(loop)
			var dp *hls.Datapath

			var best *hls.Report
			bestUnroll := 0
			for n := 1; n <= 1<<16; n *= 2 {
				if err := ctx.Interrupted(); err != nil {
					return err
				}
				ctx.Count(telemetry.CounterDSEUnroll, 1)
				transform.RemoveLoopPragmas(loop, "unroll")
				if err := transform.InsertLoopPragma(loop, fmt.Sprintf("unroll %d", n)); err != nil {
					return err
				}
				// Each partial compile can fail like a real HLS farm
				// submission (transient: the task is retried as a whole,
				// which is safe — the loop re-installs pragmas from scratch).
				if err := ctx.FailPoint(faults.HLS, dev.Name); err != nil {
					transform.RemoveLoopPragmas(loop, "unroll")
					return err
				}
				if n == 1 || (n == 2 && fixedOuter) {
					dp = hls.CostDatapath(kfn)
				}
				ctx.Count(telemetry.CounterHLSPartialCompiles, 1)
				rep := dp.Replicate(dev, n, d.Report.PipelinedTrips)
				d.Record(events.DSEUnrollStep, "unroll", nil,
					float64(n), rep.LUTUtil*100, rep.DSPUtil*100, events.Bool(rep.Fits))
				ctx.Emit(events.UnrollStep, "unroll", []string{dev.Name},
					float64(n), rep.LUTUtil*100, rep.DSPUtil*100, events.Bool(rep.Fits))
				if !rep.Fits {
					break
				}
				best = rep
				bestUnroll = n
			}
			transform.RemoveLoopPragmas(loop, "unroll")
			if best == nil {
				d.Infeasible = fmt.Sprintf("kernel overmaps %s even without unrolling", dev.Name)
				d.Device = dev.Name
				d.Record(events.DSEUnrollOvermap, "unroll", nil)
				return nil
			}
			if err := transform.InsertLoopPragma(loop, fmt.Sprintf("unroll %d", bestUnroll)); err != nil {
				return err
			}
			d.Report.SpecialDP = analysis.HasDPSpecialCalls(kfn)
			d.UnrollFactor = bestUnroll
			d.HLSReport = best
			d.Device = dev.Name
			d.Est = perfmodel.FPGATime(dev, best, d.Report.Features(), d.ZeroCopy)
			d.Record(events.DSEUnrollFinal, "unroll", []string{d.Est.Note},
				float64(bestUnroll), float64(best.II), d.Est.Total)
			return nil
		},
	}
}
