package codegen

import (
	"slices"
	"strconv"

	"psaflow/internal/minic"
)

// HIP renders the CPU+GPU design: a `__global__` kernel whose grid
// parallelizes the extracted hotspot's outer loop, plus host management
// code (device allocation, transfers, launch, teardown). Options select
// pinned host memory, shared-memory staging, and the blocksize found by
// the per-device DSE. The paper measures ≈ +36% added LOC for this
// generator.
func HIP(prog *minic.Program, refLOC int, opts Options) (*Design, error) {
	fn, loop, bound, err := kernelLoop(prog, opts.Kernel)
	if err != nil {
		return nil, err
	}
	blocksize := opts.Blocksize
	if blocksize <= 0 {
		blocksize = 256
	}

	src := renders.Get().(*source)
	w := func(parts ...string) {
		for _, p := range parts {
			src.buf = append(src.buf, p...)
		}
	}
	bs := strconv.Itoa(blocksize)
	idx, hi := bound.Var, sizeExprFor(bound)

	w("// Auto-generated HIP CPU+GPU design\n")
	w("// target: ", opts.Device, ", blocksize: ", bs, "\n")
	if opts.Specialised {
		w("// fast-math: specialised device intrinsics enabled\n")
	}
	w("#include <hip/hip_runtime.h>\n")
	w("#include <cstdio>\n\n")
	w("#define HIP_CHECK(cmd) do { hipError_t e = (cmd); if (e != hipSuccess) { \\\n")
	w("    fprintf(stderr, \"HIP error %s at %s:%d\\n\", hipGetErrorString(e), __FILE__, __LINE__); \\\n")
	w("    } } while (0)\n\n")

	// Device kernel: grid-stride mapping of the outer loop.
	w("__global__ void ", fn.Name, "_kernel(")
	src.params(fn.Params)
	w(") {\n")
	w("    int ", idx, " = blockIdx.x * blockDim.x + threadIdx.x;\n")
	var ptrArr [8]*minic.Param
	ptrs := pointerParams(ptrArr[:0], fn)
	if len(opts.SharedMem) > 0 {
		for _, p := range ptrs {
			if !slices.Contains(opts.SharedMem, p.Name) {
				continue
			}
			w("    __shared__ ", p.Type.Kind.String(), " ", p.Name, "_tile[", bs, "];\n")
			w("    if (threadIdx.x < ", bs, " && ", idx, " < ", hi, ") {\n")
			w("        ", p.Name, "_tile[threadIdx.x] = ", p.Name, "[", idx, "];\n")
			w("    }\n")
		}
		w("    __syncthreads();\n")
	}
	w("    if (", idx, " < ", hi, ") {\n")
	src.buf = minic.AppendStmts(src.buf, loop.Body.Stmts, 2)
	w("    }\n")
	w("}\n\n")

	// Host wrapper replacing the original kernel function.
	w("void ", fn.Name, "(")
	src.params(fn.Params)
	w(") {\n")
	for _, p := range ptrs {
		elem := p.Type.Kind.String()
		w("    ", elem, " *d_", p.Name, " = nullptr;\n")
		w("    HIP_CHECK(hipMalloc(&d_", p.Name, ", sizeof(", elem, ") * (", hi, ")));\n")
	}
	if opts.Pinned {
		w("    // Pinned host staging buffers for faster PCIe transfers.\n")
		for _, p := range ptrs {
			elem := p.Type.Kind.String()
			w("    ", elem, " *h_", p.Name, " = nullptr;\n")
			w("    HIP_CHECK(hipHostMalloc(&h_", p.Name, ", sizeof(", elem, ") * (", hi, ")));\n")
			w("    memcpy(h_", p.Name, ", ", p.Name, ", sizeof(", elem, ") * (", hi, "));\n")
		}
	}
	// The device copies from and to the pinned staging buffer when there is one.
	host := ""
	if opts.Pinned {
		host = "h_"
	}
	for _, p := range ptrs {
		w("    HIP_CHECK(hipMemcpy(d_", p.Name, ", ", host, p.Name, ", sizeof(", p.Type.Kind.String(), ") * (", hi, "), hipMemcpyHostToDevice));\n")
	}
	w("    int blocksize = ", bs, ";\n")
	w("    int grid = ((", hi, ") + blocksize - 1) / blocksize;\n")
	w("    hipLaunchKernelGGL(", fn.Name, "_kernel, dim3(grid), dim3(blocksize), 0, 0, ")
	for k, p := range fn.Params {
		if k > 0 {
			w(", ")
		}
		if p.Type.Ptr {
			w("d_")
		}
		w(p.Name)
	}
	w(");\n")
	w("    HIP_CHECK(hipDeviceSynchronize());\n")
	for _, p := range ptrs {
		if p.Type.Const {
			continue // input-only buffers need no copy back
		}
		elem := p.Type.Kind.String()
		w("    HIP_CHECK(hipMemcpy(", host, p.Name, ", d_", p.Name, ", sizeof(", elem, ") * (", hi, "), hipMemcpyDeviceToHost));\n")
		if opts.Pinned {
			w("    memcpy(", p.Name, ", h_", p.Name, ", sizeof(", elem, ") * (", hi, "));\n")
		}
	}
	for _, p := range ptrs {
		w("    HIP_CHECK(hipFree(d_", p.Name, "));\n")
		if opts.Pinned {
			w("    HIP_CHECK(hipHostFree(h_", p.Name, "));\n")
		}
	}
	w("}\n\n")

	src.otherFuncs(prog, fn.Name)
	return finish("hip", opts.Device, src, refLOC), nil
}
