// Fig. 2, literally: the paper's worked example is a meta-program
// `unroll_until_overmap(src=app.cpp, kernel_name=knl, mod_src=app_out.cpp)`
// that (1) builds the AST, (2) queries the outermost for-loops enclosed by
// knl — matching one loop, not the nested one, and none in main —
// (3) iteratively instruments `#pragma unroll $n`, runs the FPGA compiler
// for a resource report, and doubles n until LUTs exceed 90%, then
// (4) exports the last fitting design.
//
// This example runs that exact sequence with this repository's query,
// transform, and HLS layers, printing each DSE iteration and the final
// exported source.
//
//	go run ./examples/fig2
package main

import (
	"fmt"
	"log"

	"psaflow/internal/hls"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/transform"
)

// app.cpp from the figure: a kernel function with an outermost loop (and a
// nested one that must NOT match), plus a main-like function whose loops
// must also not match.
const appCpp = `
void knl(int n, const float *in, float *out) {
    for (int i = 0; i < n; i++) {
        float acc = 0.0f;
        for (int j = 0; j < 8; j++) {
            acc += in[i] * (float)(j + 1);
        }
        out[i] = sqrtf(acc);
    }
}

void main_like(int n, float *in, float *out) {
    int iter = 0;
    while (iter < 3) {
        for (int i = 0; i < n; i++) {
            in[i] = (float)i * 0.5f;
        }
        knl(n, in, out);
        iter++;
    }
}
`

func main() {
	// ast ⇐ Ast(src)
	ast, err := minic.Parse(appCpp)
	if err != nil {
		log.Fatal(err)
	}
	kernelName := "knl"
	dev := platform.Arria10

	// loops ⇐ query(∀loop,fn ∈ ast: loop.isForStmt ∧ fn.name = kernel_name
	//               ∧ fn.encloses(loop) ∧ loop.is_outermost)
	loops := query.Select(ast, func(n minic.Node) bool {
		if !query.IsForStmt(n) {
			return false
		}
		fn := query.EnclosingFunc(ast, n)
		return fn != nil && fn.Name == kernelName &&
			query.Encloses(fn, n) && query.IsOutermostLoop(fn, n)
	})
	fmt.Printf("query matched %d loop(s) (the figure matches exactly one:\n", len(loops))
	fmt.Println("the nested loop and main's loops are excluded)")
	if len(loops) != 1 {
		log.Fatalf("expected 1 match, got %d", len(loops))
	}
	loop := loops[0].(minic.Stmt)
	kernel := ast.MustFunc(kernelName)

	// do { instrument; evaluate; } while not overmap
	n := 2
	var design *minic.Program
	finalN := 0
	for {
		transform.RemoveLoopPragmas(loop, "unroll")
		if err := transform.InsertLoopPragma(loop, fmt.Sprintf("unroll %d", n)); err != nil {
			log.Fatal(err)
		}
		report := hls.Estimate(ast, kernel, dev, 0) // exec(ast) → report
		overmap := report.LUTUtil >= hls.OvermapThreshold
		fmt.Printf("  n=%-5d LUT=%5.1f%%  overmap=%v\n", n, report.LUTUtil*100, overmap)
		if overmap {
			break
		}
		design = ast.Clone() // design ⇐ ast
		finalN = n
		n *= 2
	}

	// if design: design.export(mod_src)
	if design == nil {
		fmt.Println("no fitting design (even n=2 overmaps)")
		return
	}
	fmt.Printf("\nexported app_out.cpp with the final unroll factor %d:\n\n", finalN)
	fmt.Println(minic.Print(design))
}
