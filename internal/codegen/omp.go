package codegen

import (
	"strconv"
	"strings"

	"psaflow/internal/minic"
)

// OpenMP renders the multi-thread CPU design: the original program with an
// `omp parallel for` pragma (and thread-count clause from the num-threads
// DSE) on the kernel's outer loop. The added-LOC footprint is tiny — the
// paper measures ≈ +2%.
func OpenMP(prog *minic.Program, refLOC int, opts Options) (*Design, error) {
	fn, loop, _, err := kernelLoop(prog, opts.Kernel)
	if err != nil {
		return nil, err
	}
	// The pragma is rewritten on a copy of the kernel's path down to its
	// loop: prog is the design's, and its other functions are printed as
	// they are.
	wfn, cl := minic.CopyPath(fn, loop)
	wloop := cl.(*minic.ForStmt)
	threads := opts.NumThreads
	if threads <= 0 {
		threads = 1
	}
	// Replace any bare parallel-for annotation left by the transform task
	// with the final clause carrying the DSE-selected thread count,
	// preserving clauses such as reduction(...).
	pragma := "omp parallel for num_threads(" + strconv.Itoa(threads) + ")"
	kept := wloop.Pragmas[:0]
	for _, p := range wloop.Pragmas {
		if strings.HasPrefix(p, "omp parallel for") {
			if rest := strings.TrimPrefix(p, "omp parallel for"); strings.TrimSpace(rest) != "" {
				pragma += rest
			}
			continue
		}
		kept = append(kept, p)
	}
	wloop.Pragmas = append(kept, pragma)

	src := renders.Get().(*source)
	src.buf = append(src.buf, "#include <omp.h>\n\n"...)
	src.otherFuncs(prog, wfn.Name)
	src.buf = minic.AppendFunc(src.buf, wfn)
	return finish("openmp", opts.Device, src, refLOC), nil
}
