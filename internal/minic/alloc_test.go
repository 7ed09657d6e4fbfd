//go:build !race

// The race detector instruments allocation, so the pins below hold only
// without it: tier-1 (go test ./...) runs them, go test -race skips them.

package minic_test

import (
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
)

// TestWalkAllocatesNothing pins the traversal that every query, analysis
// and transform sits on: walking a program — the five bundled sources and
// every transformed form, which includes nbody after hotspot extraction and
// fixed-loop materialisation, the largest AST a job builds — makes no
// allocation at all.
func TestWalkAllocatesNothing(t *testing.T) {
	progs := transformedPrograms(t)
	for _, b := range bench.All() {
		progs[b.Name] = b.Parse()
	}
	for name, prog := range progs {
		nodes := 0
		allocs := testing.AllocsPerRun(10, func() {
			nodes = 0
			minic.Walk(prog, func(minic.Node) bool { nodes++; return true })
		})
		if allocs != 0 {
			t.Errorf("%s: Walk over %d nodes makes %.0f allocations, want 0", name, nodes, allocs)
		}
	}
}
