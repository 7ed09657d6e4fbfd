package tasks

import (
	"fmt"
	"strings"

	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/telemetry"
	"psaflow/internal/transform"
)

// OMPParallelLoops is the "Multi-Thread Parallel Loops" transform: the
// kernel's parallel outer loop receives an OpenMP parallel-for annotation
// (with a reduction clause when the dependence analysis found only
// reductions).
var OMPParallelLoops = core.TaskFunc{
	TaskName: "Multi-Thread Parallel Loops", TaskKind: core.Transform,
	Need: core.FactKernel | core.FactDeps, Give: core.FactTarget,
	Fn: func(ctx *core.Context, d *core.Design) error {
		outer := query.OutermostLoops(d.KernelFunc())
		if len(outer) == 0 {
			return fmt.Errorf("kernel has no loops")
		}
		deps := d.Report.OuterDeps
		if !deps.ParallelWithReduction() {
			var sb strings.Builder
			for i, c := range deps.Carried {
				if i > 0 {
					sb.WriteString("; ")
				}
				sb.WriteString(c.String())
			}
			return fmt.Errorf("outer loop is not parallelizable: %s", sb.String())
		}
		pragma := "omp parallel for"
		for _, r := range deps.Reductions {
			if !r.Array {
				pragma += fmt.Sprintf(" reduction(+:%s)", r.Name)
			}
		}
		// Only the loop's pragmas are written: the path down to it is copied.
		if err := transform.InsertLoopPragma(d.EditLoop(outer[0]), pragma); err != nil {
			return err
		}
		d.Target = platform.TargetCPU
		return nil
	},
}

// NumThreadsDSE is the "OMP Num. Threads DSE" optimisation: thread counts
// are swept on the CPU model and the fastest is selected (the paper
// reports the DSE always lands on the full core count for the five
// embarrassingly parallel benchmarks).
var NumThreadsDSE = core.TaskFunc{
	TaskName: "OMP Num. Threads DSE", TaskKind: core.Optimisation, IsDyn: true, Give: core.FactDevice,
	Fn: func(ctx *core.Context, d *core.Design) error {
		feat := d.Report.Features()
		ctx.Count(telemetry.CounterDSENumThreads, int64(ctx.CPU.Cores))
		threads, t := perfmodel.BestThreads(ctx.CPU, feat)
		ctx.Emit(events.ThreadsSwept, "numthreads", []string{ctx.CPU.Name}, float64(ctx.CPU.Cores), float64(threads), t)
		d.NumThreads = threads
		d.Device = ctx.CPU.Name
		d.Est = perfmodel.Breakdown{KernelTime: t, Total: t, Note: fmt.Sprintf("%d threads", threads)}
		d.Record(events.DSENumThreads, "numthreads", nil, float64(threads), t)
		return nil
	},
}
