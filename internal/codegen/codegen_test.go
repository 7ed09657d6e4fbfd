package codegen

import (
	"strconv"
	"strings"
	"testing"

	"psaflow/internal/minic"
)

// extractedSrc models a program after hotspot extraction: host calls the
// kernel, kernel holds the hot loop.
const extractedSrc = `
void app(int n, const double *in, double *out) {
    app_hotspot(n, in, out);
    out[0] = out[0] + 1.0;
}

void app_hotspot(int n, const double *in, double *out) {
    for (int i = 0; i < n; i++) {
        out[i] = sqrt(in[i] * in[i] + 1.0);
    }
}
`

func refProgram(t *testing.T) (*minic.Program, int) {
	t.Helper()
	prog := minic.MustParse(extractedSrc)
	return prog, minic.CountLOC(minic.Print(prog))
}

func balancedBraces(t *testing.T, src string) {
	t.Helper()
	depth := 0
	for _, r := range src {
		switch r {
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				t.Fatalf("unbalanced braces:\n%s", src)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced braces (depth %d):\n%s", depth, src)
	}
}

func TestOpenMPDesign(t *testing.T) {
	prog, ref := refProgram(t)
	d, err := OpenMP(prog, ref, Options{Kernel: "app_hotspot", Device: "EPYC 7543", NumThreads: 32})
	if err != nil {
		t.Fatalf("OpenMP: %v", err)
	}
	for _, want := range []string{
		"#include <omp.h>",
		"#pragma omp parallel for num_threads(32)",
		"for (int i = 0; i < n; i++)",
	} {
		if !strings.Contains(d.Source, want) {
			t.Errorf("missing %q in:\n%s", want, d.Source)
		}
	}
	balancedBraces(t, d.Source)
	if d.Target != "openmp" {
		t.Errorf("target = %q", d.Target)
	}
	// OMP adds very few lines (paper: ~+2%).
	if d.AddedLOC < 1 || d.AddedLOC > 8 {
		t.Errorf("OMP AddedLOC = %d, want small (1..8)", d.AddedLOC)
	}
	// The original program must not be mutated.
	if strings.Contains(minic.Print(prog), "omp parallel") {
		t.Error("OpenMP mutated the input program")
	}
}

func TestHIPDesign(t *testing.T) {
	prog, ref := refProgram(t)
	d, err := HIP(prog, ref, Options{Kernel: "app_hotspot", Device: "GTX 1080 Ti", Blocksize: 128})
	if err != nil {
		t.Fatalf("HIP: %v", err)
	}
	for _, want := range []string{
		"#include <hip/hip_runtime.h>",
		"__global__ void app_hotspot_kernel(",
		"int i = blockIdx.x * blockDim.x + threadIdx.x;",
		"if (i < n) {",
		"hipMalloc(&d_in",
		"hipMemcpy(d_in, in",
		"hipLaunchKernelGGL(app_hotspot_kernel, dim3(grid), dim3(blocksize), 0, 0, n, d_in, d_out);",
		"hipDeviceSynchronize()",
		"hipMemcpy(out, d_out",
		"hipFree(d_in)",
		"int blocksize = 128;",
	} {
		if !strings.Contains(d.Source, want) {
			t.Errorf("missing %q in:\n%s", want, d.Source)
		}
	}
	// Input-only (const) buffers are not copied back.
	if strings.Contains(d.Source, "hipMemcpy(in, d_in") {
		t.Error("const input buffer copied back to host")
	}
	balancedBraces(t, d.Source)
	if d.AddedLOC <= 8 {
		t.Errorf("HIP AddedLOC = %d, want substantial", d.AddedLOC)
	}
}

func TestHIPPinnedAndShared(t *testing.T) {
	prog, ref := refProgram(t)
	d, err := HIP(prog, ref, Options{
		Kernel: "app_hotspot", Device: "RTX 2080 Ti", Blocksize: 256,
		Pinned: true, SharedMem: []string{"in"}, Specialised: true,
	})
	if err != nil {
		t.Fatalf("HIP: %v", err)
	}
	for _, want := range []string{
		"hipHostMalloc(&h_in",
		"__shared__ double in_tile[256];",
		"__syncthreads();",
		"fast-math",
	} {
		if !strings.Contains(d.Source, want) {
			t.Errorf("missing %q in:\n%s", want, d.Source)
		}
	}
	plain, err := HIP(prog, ref, Options{Kernel: "app_hotspot", Device: "RTX 2080 Ti", Blocksize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if d.AddedLOC <= plain.AddedLOC {
		t.Errorf("pinned+shared design (%d) should add more LOC than plain (%d)", d.AddedLOC, plain.AddedLOC)
	}
}

func TestOneAPIBufferDesign(t *testing.T) {
	prog, ref := refProgram(t)
	d, err := OneAPI(prog, ref, Options{Kernel: "app_hotspot", Device: "Arria 10", UnrollFactor: 4})
	if err != nil {
		t.Fatalf("OneAPI: %v", err)
	}
	for _, want := range []string{
		"#include <sycl/sycl.hpp>",
		"fpga_selector",
		"sycl::buffer<double, 1> in_buf(in, sycl::range<1>(n));",
		"get_access<sycl::access::mode::read>",
		"get_access<sycl::access::mode::read_write>",
		"h.single_task<App_hotspotKernelID>",
		"#pragma unroll 4",
		"for (int i = 0; i < n; i++)",
	} {
		if !strings.Contains(d.Source, want) {
			t.Errorf("missing %q in:\n%s", want, d.Source)
		}
	}
	if strings.Contains(d.Source, "malloc_host") {
		t.Error("buffer-style design must not use USM")
	}
	balancedBraces(t, d.Source)
}

func TestOneAPIZeroCopyDesign(t *testing.T) {
	prog, ref := refProgram(t)
	d, err := OneAPI(prog, ref, Options{Kernel: "app_hotspot", Device: "Stratix 10", UnrollFactor: 8, ZeroCopy: true})
	if err != nil {
		t.Fatalf("OneAPI: %v", err)
	}
	for _, want := range []string{
		"sycl::malloc_host<double>(n, q);",
		"zero-copy",
		"#pragma unroll 8",
		"sycl::free(u_in, q);",
		"memcpy(out, u_out",
	} {
		if !strings.Contains(d.Source, want) {
			t.Errorf("missing %q in:\n%s", want, d.Source)
		}
	}
	if strings.Contains(d.Source, "sycl::buffer") {
		t.Error("zero-copy design must not use buffers")
	}
	balancedBraces(t, d.Source)
}

func TestLOCOrdering(t *testing.T) {
	// Table I shape: OMP < HIP < oneAPI A10 < oneAPI S10 added LOC.
	prog, ref := refProgram(t)
	omp, _ := OpenMP(prog, ref, Options{Kernel: "app_hotspot", NumThreads: 32})
	hip, _ := HIP(prog, ref, Options{Kernel: "app_hotspot", Blocksize: 256, Pinned: true})
	a10, _ := OneAPI(prog, ref, Options{Kernel: "app_hotspot", UnrollFactor: 4})
	s10, _ := OneAPI(prog, ref, Options{Kernel: "app_hotspot", UnrollFactor: 8, ZeroCopy: true})
	if !(omp.AddedLOC < hip.AddedLOC) {
		t.Errorf("OMP (%d) should add fewer lines than HIP (%d)", omp.AddedLOC, hip.AddedLOC)
	}
	if !(hip.AddedLOC < s10.AddedLOC) {
		t.Errorf("HIP (%d) should add fewer lines than oneAPI S10 (%d)", hip.AddedLOC, s10.AddedLOC)
	}
	if a10.AddedLOC == 0 || s10.AddedLOC == 0 {
		t.Error("oneAPI designs must add lines")
	}
}

func TestCodegenErrors(t *testing.T) {
	prog, ref := refProgram(t)
	if _, err := OpenMP(prog, ref, Options{Kernel: "missing"}); err == nil {
		t.Error("expected error for missing kernel")
	}
	noLoop := minic.MustParse(`void k(int n) { n = n + 1; }`)
	if _, err := HIP(noLoop, 1, Options{Kernel: "k"}); err == nil {
		t.Error("expected error for loopless kernel")
	}
	while := minic.MustParse(`void k(int n) { while (n > 0) { n--; } }`)
	if _, err := OneAPI(while, 1, Options{Kernel: "k"}); err == nil {
		t.Error("expected error for non-canonical outer loop")
	}
}

// TestRenderScratchCapped renders a design whose text is larger than
// maxScratch and checks that renders hands out no buffer above it: one
// outsized design must not leave its text in the pool.
func TestRenderScratchCapped(t *testing.T) {
	var b strings.Builder
	b.WriteString(extractedSrc + "\nvoid big(double *a) {\n")
	for i := 0; b.Len() <= 2*maxScratch; i++ {
		b.WriteString("    a[" + strconv.Itoa(i) + "] = a[" + strconv.Itoa(i+1) + "] + 1.0;\n")
	}
	b.WriteString("}\n")
	prog := minic.MustParse(b.String())
	d, err := OpenMP(prog, 0, Options{Kernel: "app_hotspot", NumThreads: 32})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Source); n <= maxScratch {
		t.Fatalf("rendered %d bytes, want more than %d", n, maxScratch)
	}
	var held []*source
	for range 4 {
		w := renders.Get().(*source)
		if cap(w.buf) > maxScratch {
			t.Errorf("renders handed out a buffer of capacity %d, want at most %d", cap(w.buf), maxScratch)
		}
		held = append(held, w)
	}
	for _, w := range held {
		renders.Put(w)
	}
}
