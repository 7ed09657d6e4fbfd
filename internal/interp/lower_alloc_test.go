//go:build !race

// The race detector instruments allocation, so the counts below hold only
// without it: tier-1 (go test ./...) runs it, go test -race skips it.

package interp_test

import (
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
)

// lowerAllocs is what lowering each bundled application allocates: the
// image, its function map and one slab of its functions; per function its
// code, one slab of step positions, one of index targets and one of baked
// plans; and per hotspot candidate its watch parameters and their
// registers (most of what is left). Nothing is allocated per statement or
// expression: the lowering's scratch is the one the last lowering left, and a position
// prefix is a node of a tree, not a copy. Before, it was 377 / 376 / 298 /
// 381 / 389.
var lowerAllocs = map[string]float64{
	"nbody":       63,
	"kmeans":      82,
	"adpredictor": 53,
	"rushlarsen":  60,
	"bezier":      63,
}

// TestLowerAllocations pins what lowering each application allocates.
func TestLowerAllocations(t *testing.T) {
	for _, b := range bench.All() {
		prog := b.Parse()
		got := testing.AllocsPerRun(20, func() { interp.Lower(prog) })
		t.Logf("%s: lowering makes %.0f allocations", b.Name, got)
		if got > lowerAllocs[b.Name] {
			t.Errorf("%s: lowering makes %.0f allocations, want at most %.0f", b.Name, got, lowerAllocs[b.Name])
		}
	}
}
