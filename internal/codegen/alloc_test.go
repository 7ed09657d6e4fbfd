//go:build !race

// The race detector instruments allocation, so the pins below hold only
// without it: tier-1 (go test ./...) runs them, go test -race skips them.

package codegen

import "testing"

// TestRenderAllocations pins what rendering a design costs: the generators
// append their templates and the printed program into one pooled buffer,
// so a fmt call or a per-statement string on their path shows here at
// once. The bounds are the counts on extractedSrc when the pin was set
// (13, 22, 24 and 24 while the generators wrote a strings.Builder); a
// generator may allocate less, never more. What is left is the design, its
// source, the size expression's text, a blocksize's digits and OpenMP's
// path copy and pragma.
func TestRenderAllocations(t *testing.T) {
	prog, ref := refProgram(t)
	for _, c := range []struct {
		name  string
		gen   func() (*Design, error)
		bound float64
	}{
		{"openmp", func() (*Design, error) {
			return OpenMP(prog, ref, Options{Kernel: "app_hotspot", NumThreads: 32})
		}, 9},
		{"hip", func() (*Design, error) {
			return HIP(prog, ref, Options{Kernel: "app_hotspot", Blocksize: 256, Pinned: true, SharedMem: []string{"in"}})
		}, 6},
		{"oneapi", func() (*Design, error) {
			return OneAPI(prog, ref, Options{Kernel: "app_hotspot", UnrollFactor: 4})
		}, 4},
		{"oneapi-usm", func() (*Design, error) {
			return OneAPI(prog, ref, Options{Kernel: "app_hotspot", UnrollFactor: 8, ZeroCopy: true})
		}, 4},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := c.gen(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.bound {
			t.Errorf("%s: rendering makes %.0f allocations, want at most %.0f", c.name, allocs, c.bound)
		}
	}
}
