//go:build !race

package transform

import (
	"strings"
	"testing"

	"psaflow/internal/minic"
)

// TestExtractHotspotAllocationsIndependentOfLoop: outlining moves the loop
// into the kernel instead of copying it, so it allocates the same for a
// loop body of one statement as for one of sixty-four.
func TestExtractHotspotAllocationsIndependentOfLoop(t *testing.T) {
	const runs = 20
	allocs := func(stmts int) float64 {
		src := "void app(int n, double *a) {\n    for (int i = 0; i < n; i++) {\n" +
			strings.Repeat("        a[i] = a[i] * 2.0 + 1.0;\n", stmts) + "    }\n}\n"
		progs := make([]*minic.Program, runs+1) // AllocsPerRun calls once more to warm up
		for i := range progs {
			progs[i] = minic.MustParse(src)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			p := progs[next]
			next++
			host := p.Funcs[0]
			if _, err := ExtractHotspot(p, host, host.Body.Stmts[0], "k"); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(64)
	t.Logf("ExtractHotspot: %.0f allocations on one statement, %.0f on sixty-four", one, many)
	if one != many {
		t.Errorf("ExtractHotspot allocates %.0f times on a loop of one statement and %.0f on one of sixty-four: it copies the loop",
			one, many)
	}
}
