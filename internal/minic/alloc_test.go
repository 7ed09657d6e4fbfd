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

// TestParseAllocations pins what parsing costs: every job parses its
// source at submit, so Parse's allocations are part of every job's. The
// bounds are the five programs' counts when the pin was set; Parse may
// allocate less, never more.
func TestParseAllocations(t *testing.T) {
	bound := map[string]float64{"nbody": 1170, "kmeans": 947, "adpredictor": 782, "rushlarsen": 1055, "bezier": 995}
	for _, b := range bench.All() {
		allocs := testing.AllocsPerRun(10, func() { _, _ = minic.Parse(b.Source) })
		if allocs > bound[b.Name] {
			t.Errorf("%s: Parse makes %.0f allocations, want at most %.0f", b.Name, allocs, bound[b.Name])
		}
	}
}

// TestPrintAllocations pins what printing costs: every design the code
// generators render prints its program, so a per-node fmt call or string
// concatenation shows here at once. The bounds are the five programs'
// counts when the pin was set; Print may allocate less, never more.
func TestPrintAllocations(t *testing.T) {
	bound := map[string]float64{"nbody": 13, "kmeans": 12, "adpredictor": 11, "rushlarsen": 13, "bezier": 11}
	for _, b := range bench.All() {
		prog := b.Parse()
		allocs := testing.AllocsPerRun(10, func() { _ = minic.Print(prog) })
		if allocs > bound[b.Name] {
			t.Errorf("%s: Print makes %.0f allocations, want at most %.0f", b.Name, allocs, bound[b.Name])
		}
	}
}
