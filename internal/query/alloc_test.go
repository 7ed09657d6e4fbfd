//go:build !race

// The race detector instruments allocation, so this pin holds only without
// it: tier-1 (go test ./...) runs it, go test -race skips it.

package query_test

import (
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/query"
)

// TestNewIsConstantCost pins that a query context costs its own struct and
// nothing per AST node, whatever the program.
func TestNewIsConstantCost(t *testing.T) {
	for _, b := range bench.All() {
		prog := b.Parse()
		if allocs := testing.AllocsPerRun(10, func() { query.New(prog) }); allocs > 1 {
			t.Errorf("%s: query.New makes %.0f allocations, want at most 1", b.Name, allocs)
		}
	}
}
