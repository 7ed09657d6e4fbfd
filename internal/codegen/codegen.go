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
	"sync"

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

// source is the scratch a generator writes a design's text into. It comes
// from renders and goes back in finish, which copies the text out: no
// design's Source aliases the pool.
type source struct{ buf []byte }

var renders = sync.Pool{New: func() any { return new(source) }}

// maxScratch is the largest buffer renders takes back, the limit fmt keeps
// for its own, so one outsized design does not stay in the pool.
const maxScratch = 64 << 10

// params appends a C parameter list.
func (w *source) params(params []*minic.Param) { w.buf = minic.AppendParams(w.buf, params) }

// otherFuncs writes every function except the kernel (the untouched
// application code that surrounds the generated design), each followed by
// a blank line.
func (w *source) otherFuncs(prog *minic.Program, kernel string) {
	for _, f := range prog.Funcs {
		if f.Name != kernel {
			w.buf = minic.AppendFunc(w.buf, f)
			w.buf = append(w.buf, '\n')
		}
	}
}

// finish makes the design from the text w holds and puts w back, unless
// its buffer has grown past maxScratch.
func finish(target, device string, w *source, refLOC int) *Design {
	src := string(w.buf)
	if cap(w.buf) <= maxScratch {
		w.buf = w.buf[:0]
		renders.Put(w)
	}
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
	outer := query.FirstOutermostLoop(fn)
	if outer == nil {
		return nil, nil, query.LoopBound{}, fmt.Errorf("codegen: kernel %q has no loop", kernel)
	}
	fs, ok := outer.(*minic.ForStmt)
	if !ok {
		return nil, nil, query.LoopBound{}, fmt.Errorf("codegen: kernel %q outer loop is not a for", kernel)
	}
	b, ok := query.Bounds(fs)
	if !ok {
		return nil, nil, query.LoopBound{}, fmt.Errorf("codegen: kernel %q outer loop is not canonical", kernel)
	}
	return fn, fs, b, nil
}

// pointerParams appends the kernel's pointer parameters to dst, which a
// caller backs with an array on its stack.
func pointerParams(dst []*minic.Param, fn *minic.FuncDecl) []*minic.Param {
	for _, p := range fn.Params {
		if p.Type.Ptr {
			dst = append(dst, p)
		}
	}
	return dst
}

// sizeExprFor guesses the element count expression for a pointer parameter
// from the kernel's outer-loop bound — the generated management code
// allocates hi elements per buffer. This mirrors what the paper's
// generators derive from the data in/out analysis.
func sizeExprFor(b query.LoopBound) string {
	return minic.FormatExpr(b.Hi)
}
