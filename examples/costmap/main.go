// Cost mapping: with a set of diverse designs generated by the uninformed
// PSA-flow, the most performant design is not always the most cost
// effective (paper §IV-D). This example reproduces the Fig. 6 analysis
// programmatically — per-application cost curves over a range of FPGA/GPU
// price ratios — and also demonstrates the Fig. 3 budget feedback loop:
// the same flow re-selects a cheaper path when the preferred one exceeds a
// monetary budget.
//
//	go run ./examples/costmap
package main

import (
	"fmt"
	"log"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/flowlang"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

func main() {
	// Part 1: Fig. 6 — cost curves from the measured Fig. 5 speedups.
	fmt.Println("running the uninformed + informed PSA-flows on all benchmarks...")
	rows, err := experiments.RunFig5(nil)
	if err != nil {
		log.Fatal(err)
	}
	series := experiments.RunFig6(rows)
	fmt.Println()
	fmt.Println(experiments.FormatFig6(series))

	for _, s := range series {
		fmt.Printf("%s: FPGA wins below price ratio %.2f, GPU above\n", s.Benchmark, s.Crossover)
	}
	fmt.Println()

	// Part 2: budget feedback at a branch point. Price the designs per
	// provisioned second (GPU-seconds as the unit, FPGA at 3x) and give the
	// flow a budget that the GPU design busts.
	const fpgaPricePerGPUSecond = 3.0
	cost := func(d *core.Design) float64 {
		switch d.Target {
		case platform.TargetGPU:
			return d.Est.Total * 1.0
		case platform.TargetFPGA:
			return d.Est.Total * fpgaPricePerGPUSecond
		default:
			return d.Est.Total * 0.25 // CPU time is cheap
		}
	}

	b, err := bench.ByName("nbody")
	if err != nil {
		log.Fatal(err)
	}
	// nbody prefers the GPU; with a budget below the GPU design's cost the
	// branch must revise toward the CPU path.
	for _, budget := range []float64{1.0, 1e-5} {
		design := core.NewDesign(b.Name, b.Parse())
		ctx := &core.Context{
			Workload: bench.Workload{B: b},
			CPU:      platform.EPYC7543,
			Budget:   budget,
			Cost:     cost,
		}
		flow := flowlang.PSAFlow(flowlang.Options{Mode: tasks.Informed})
		designs, err := flow.Run(ctx, design)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("budget %.3g: generated %d design(s):", budget, len(designs))
		for _, d := range designs {
			fmt.Printf(" %s(cost %.3g)", d.Label(), cost(d))
		}
		fmt.Println()
	}
}
