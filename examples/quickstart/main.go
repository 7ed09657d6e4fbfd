// Quickstart: take an unoptimized high-level source, run the implemented
// PSA-flow in informed mode, and print the design it auto-generates —
// target selection, tuned parameters, and the generated source.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// The technology-agnostic input: a plain C-style application with an
// obvious hot loop. No pragmas, no target-specific code.
const src = `
void saxpy_app(int n, double a, const double *x, double *y) {
    for (int i = 0; i < n; i++) {
        y[i] = a * x[i] + sqrt(y[i] * y[i] + 1.0);
    }
    y[0] = y[0] + 1.0;
}
`

// workload supplies the input the dynamic analyses execute.
type workload struct{ n int }

func (w workload) Name() string  { return "saxpy" }
func (w workload) Entry() string { return "saxpy_app" }
func (w workload) Args() []interp.Value {
	x := make([]float64, w.n)
	y := make([]float64, w.n)
	for i := range x {
		x[i] = float64(i) * 0.25
		y[i] = float64(i) * 0.5
	}
	return []interp.Value{
		interp.IntVal(int64(w.n)),
		interp.DoubleVal(2.0),
		interp.BufVal(interp.NewFloatBuffer("x", minic.Double, x)),
		interp.BufVal(interp.NewFloatBuffer("y", minic.Double, y)),
	}
}

func main() {
	prog, err := minic.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	design := core.NewDesign("saxpy", prog)
	ctx := &core.Context{
		Workload: workload{n: 65536},
		CPU:      platform.EPYC7543,
	}

	// The full Fig. 4 PSA-flow: target-independent analyses, branch point
	// A with the Fig. 3 strategy, then device-specific tasks and DSE.
	flow := flowlang.PSAFlow(flowlang.Options{Mode: tasks.Informed})
	designs, err := flow.Run(ctx, design)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("input: %d-line technology-agnostic source\n", design.RefLOC)
	fmt.Printf("generated %d design(s):\n\n", len(designs))
	for _, d := range designs {
		fmt.Printf("== %s ==\n", d.Label())
		if d.Infeasible != "" {
			fmt.Printf("infeasible: %s\n\n", d.Infeasible)
			continue
		}
		feat := d.Report.Features()
		speedup := perfmodel.Speedup(ctx.CPU, feat, d.Est)
		fmt.Printf("estimated speedup vs 1-thread CPU: %.1fX (%s)\n", speedup, d.Est.Note)
		fmt.Println("decision trail:")
		for _, ev := range d.Trace {
			if ev.Kind == "branch" || ev.Kind == "dse" {
				fmt.Printf("  %s\n", ev)
			}
		}
		if d.Artifact != nil {
			fmt.Printf("\ngenerated %s source (%d lines, +%d over reference):\n",
				d.Artifact.Target, d.Artifact.LOC, d.Artifact.AddedLOC)
			fmt.Println(d.Artifact.Source)
		}
	}

	// The same API also powers the five paper benchmarks:
	fmt.Println("bundled paper benchmarks:")
	for _, b := range bench.All() {
		fmt.Printf("  %-12s %s\n", b.Name, b.Descr)
	}
}
