//go:build !race

// The race detector instruments allocation, so the pins below hold only
// without it: tier-1 (go test ./...) runs them, go test -race skips them.

package query_test

import (
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/query"
)

// TestLoopQueriesAllocateTheirResult: a loop query allocates its result
// and nothing else — one slice, none when there is no loop — and
// FirstOutermostLoop allocates nothing, on every function of the bundled
// programs.
func TestLoopQueriesAllocateTheirResult(t *testing.T) {
	for _, b := range bench.All() {
		for _, fn := range b.Parse().Funcs {
			want := 0.0
			if len(query.LoopsIn(fn)) > 0 {
				want = 1
			}
			if n := testing.AllocsPerRun(10, func() { query.LoopsIn(fn) }); n != want {
				t.Errorf("%s/%s: LoopsIn allocates %.0f times, want %.0f", b.Name, fn.Name, n, want)
			}
			if n := testing.AllocsPerRun(10, func() { query.OutermostLoops(fn) }); n != want {
				t.Errorf("%s/%s: OutermostLoops allocates %.0f times, want %.0f", b.Name, fn.Name, n, want)
			}
			if n := testing.AllocsPerRun(10, func() { query.FirstOutermostLoop(fn) }); n != 0 {
				t.Errorf("%s/%s: FirstOutermostLoop allocates %.0f times, want 0", b.Name, fn.Name, n)
			}
		}
	}
}
