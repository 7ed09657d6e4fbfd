// Package codegen renders MiniC programs whose hotspot kernel has been
// extracted into complete target-specific designs: OpenMP multi-thread
// CPU, HIP CPU+GPU, and oneAPI (SYCL) CPU+FPGA source text. The emitted
// designs are what the paper's "Generate {HIP,oneAPI} Design" and
// "Multi-Thread Parallel Loops" code-generation tasks produce, and their
// line counts drive the Table I developer-productivity analysis. Output is
// human-readable (the paper stresses generated designs can be hand-tuned).
package codegen

import (
	"fmt"
	"strings"

	"psaflow/internal/minic"
	"psaflow/internal/query"
)

// Options configures a code generation pass.
type Options struct {
	Kernel       string   // extracted kernel function name
	Device       string   // device label for comments/ids
	NumThreads   int      // OpenMP: omp_set_num_threads
	Blocksize    int      // HIP: launch block size
	Pinned       bool     // HIP: use pinned host memory
	SharedMem    []string // HIP: read-only arrays staged through shared memory
	Specialised  bool     // HIP: note specialised math fns in header comment
	ZeroCopy     bool     // oneAPI: USM zero-copy host allocations
	UnrollFactor int      // oneAPI: outer loop unroll pragma factor
}

// Design is a rendered target design.
type Design struct {
	Target   string // "openmp" | "hip" | "oneapi"
	Device   string
	Source   string
	LOC      int
	AddedLOC int // LOC - reference LOC (clamped at 0)
}

func finish(target, device, src string, refLOC int) *Design {
	loc := minic.CountLOC(src)
	added := loc - refLOC
	if added < 0 {
		added = 0
	}
	return &Design{Target: target, Device: device, Source: src, LOC: loc, AddedLOC: added}
}

// kernelLoop fetches the kernel function and its canonical outer loop.
func kernelLoop(prog *minic.Program, kernel string) (*minic.FuncDecl, *minic.ForStmt, query.LoopBound, error) {
	fn := prog.Func(kernel)
	if fn == nil {
		return nil, nil, query.LoopBound{}, fmt.Errorf("codegen: no kernel %q", kernel)
	}
	outer := query.OutermostLoops(fn)
	if len(outer) == 0 {
		return nil, nil, query.LoopBound{}, fmt.Errorf("codegen: kernel %q has no loop", kernel)
	}
	fs, ok := outer[0].(*minic.ForStmt)
	if !ok {
		return nil, nil, query.LoopBound{}, fmt.Errorf("codegen: kernel %q outer loop is not a for", kernel)
	}
	b, ok := query.Bounds(fs)
	if !ok {
		return nil, nil, query.LoopBound{}, fmt.Errorf("codegen: kernel %q outer loop is not canonical", kernel)
	}
	return fn, fs, b, nil
}

// paramList renders a C parameter list.
func paramList(params []*minic.Param) string {
	parts := make([]string, len(params))
	for i, p := range params {
		t := p.Type.String()
		if p.Type.Ptr {
			parts[i] = t + p.Name
		} else {
			parts[i] = t + " " + p.Name
		}
	}
	return strings.Join(parts, ", ")
}

// indent prefixes every non-empty line of s with pad.
func indent(s, pad string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.TrimSpace(l) != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n")
}

// renderStmts prints statements at the given indentation.
func renderStmts(stmts []minic.Stmt, pad string) string {
	var sb strings.Builder
	for _, s := range stmts {
		sb.WriteString(indent(minic.FormatStmt(s), pad))
		sb.WriteString("\n")
	}
	return sb.String()
}

// renderOtherFuncs prints every function except the kernel (the untouched
// application code that surrounds the generated design).
func renderOtherFuncs(prog *minic.Program, kernel string) string {
	var sb strings.Builder
	for _, f := range prog.Funcs {
		if f.Name == kernel {
			continue
		}
		single := &minic.Program{Funcs: []*minic.FuncDecl{f}}
		sb.WriteString(minic.Print(single))
		sb.WriteString("\n")
	}
	return sb.String()
}

// pointerParams returns the kernel's pointer parameters.
func pointerParams(fn *minic.FuncDecl) []*minic.Param {
	var out []*minic.Param
	for _, p := range fn.Params {
		if p.Type.Ptr {
			out = append(out, p)
		}
	}
	return out
}

// sizeExprFor guesses the element count expression for a pointer parameter
// from the kernel's outer-loop bound — the generated management code
// allocates hi elements per buffer. This mirrors what the paper's
// generators derive from the data in/out analysis.
func sizeExprFor(b query.LoopBound) string {
	return minic.FormatExpr(b.Hi)
}
