//go:build !race

// The race detector instruments allocation, so the pins below hold only
// without it: tier-1 (go test ./...) runs them, go test -race skips them.

package codegen

import "testing"

// TestRenderAllocations pins what rendering a design costs: the generators
// write their templates and the printed program into one buffer, so a fmt
// call or a per-statement string on their path shows here at once. The
// bounds are the counts on extractedSrc when the pin was set; a generator
// may allocate less, never more.
func TestRenderAllocations(t *testing.T) {
	prog, ref := refProgram(t)
	for _, c := range []struct {
		name  string
		gen   func() (*Design, error)
		bound float64
	}{
		{"openmp", func() (*Design, error) {
			return OpenMP(prog, ref, Options{Kernel: "app_hotspot", NumThreads: 32})
		}, 13},
		{"hip", func() (*Design, error) {
			return HIP(prog, ref, Options{Kernel: "app_hotspot", Blocksize: 256, Pinned: true, SharedMem: []string{"in"}})
		}, 22},
		{"oneapi", func() (*Design, error) {
			return OneAPI(prog, ref, Options{Kernel: "app_hotspot", UnrollFactor: 4})
		}, 24},
		{"oneapi-usm", func() (*Design, error) {
			return OneAPI(prog, ref, Options{Kernel: "app_hotspot", UnrollFactor: 8, ZeroCopy: true})
		}, 24},
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
