// Custom strategy: PSA-flows are programmatic and customizable — this
// example replaces the paper's Fig. 3 strategy at branch point A with a
// *latency-budget* strategy (pick the cheapest target whose estimated
// design time meets a deadline) and composes a reduced flow that only
// knows about the OpenMP and Stratix 10 paths. It demonstrates the
// extensibility claim of §III: new strategies and path sets plug into the
// same engine.
//
//	go run ./examples/customstrategy
package main

import (
	"fmt"
	"log"
	"slices"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// deadlineSelector prefers the CPU (cheapest to deploy) when its rough
// pre-estimate meets the deadline and escalates to the FPGA path otherwise.
// A strategy states its preference once; the engine walks it when the
// budget gate or a fault rules an alternative out. It inspects the same
// KernelReport the built-in strategy uses.
func deadlineSelector(deadline float64) core.Selector {
	return core.SelectorFunc{
		SelName: "deadline",
		Fn: func(ctx *core.Context, d *core.Design, paths []core.Path) ([]core.Alternative, error) {
			feat := d.Report.Features()
			ompT := perfmodel.OMPTime(ctx.CPU, feat, ctx.CPU.Cores)
			// A selector of its own has no entry in the events table: it
			// records the line it writes.
			d.Record(events.BranchText, "deadline", []string{fmt.Sprintf("OMP estimate %.4gs vs deadline %.4gs", ompT, deadline)})
			index := func(name string) int {
				return slices.IndexFunc(paths, func(p core.Path) bool { return p.Name == name })
			}
			if ompT <= deadline {
				return core.Prefer(index("cpu"), index("fpga")), nil
			}
			// CPU too slow: escalate to the FPGA path.
			return core.Prefer(index("fpga")), nil
		},
	}
}

// buildCustomFlow composes a two-target flow from the public task
// repository: the shared target-independent front, then a branch point
// with the custom strategy.
func buildCustomFlow(deadline float64) *core.Flow {
	flow := &core.Flow{Name: "deadline-flow"}
	for _, t := range tasks.TargetIndependent() {
		flow.AddTask(t)
	}

	cpuPath := &core.Flow{Name: "cpu"}
	cpuPath.AddTask(tasks.OMPParallelLoops)
	cpuPath.AddTask(tasks.NumThreadsDSE)
	cpuPath.AddTask(tasks.RenderDesign)

	fpgaPath := &core.Flow{Name: "fpga"}
	fpgaPath.AddTask(tasks.GenerateOneAPI)
	fpgaPath.AddTask(tasks.UnrollFixedLoopsTask)
	fpgaPath.AddTask(tasks.SinglePrecisionFns)
	fpgaPath.AddTask(tasks.SinglePrecisionLiterals)
	fpgaPath.AddTask(tasks.ZeroCopy(platform.Stratix10))
	fpgaPath.AddTask(tasks.UnrollUntilOvermap(platform.Stratix10))
	fpgaPath.AddTask(tasks.RenderDesign)

	flow.AddBranch(core.Branch{
		PointName: "A",
		Paths: []core.Path{
			{Name: "cpu", Flow: cpuPath},
			{Name: "fpga", Flow: fpgaPath},
		},
		Select: deadlineSelector(deadline),
	})
	return flow
}

func run(deadline float64) {
	b, err := bench.ByName("adpredictor")
	if err != nil {
		log.Fatal(err)
	}
	design := core.NewDesign(b.Name, b.Parse())
	ctx := &core.Context{Workload: bench.Workload{B: b}, CPU: platform.EPYC7543}
	designs, err := buildCustomFlow(deadline).Run(ctx, design)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deadline %.2gs:\n", deadline)
	for _, d := range designs {
		if d.Infeasible != "" {
			fmt.Printf("  %-40s infeasible (%s)\n", d.Label(), d.Infeasible)
			continue
		}
		fmt.Printf("  %-40s est %.4gs (%s)\n", d.Label(), d.Est.Total, d.Est.Note)
	}
	fmt.Println()
}

func main() {
	// A loose deadline keeps the design on the CPU; a tight one escalates
	// to the Stratix 10 pipeline.
	run(1.0)
	run(1e-5)
}
