//go:build !race

package transform

import (
	"fmt"
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

// TestUnrollAllocationsIndependentOfTrips: Unroll Fixed Loops makes all
// the iterations of a loop in one copy (minic.CloneUnrolled), so unrolling
// the same body four times allocates exactly as often as unrolling it
// sixty-four times.
func TestUnrollAllocationsIndependentOfTrips(t *testing.T) {
	const runs = 20
	allocs := func(trips int) float64 {
		src := fmt.Sprintf("void k(double *a) {\n    for (int i = 0; i < %d; i++) {\n"+
			"        a[i] = sqrt(a[i] * 2.0) + 1.0;\n    }\n}\n", trips)
		progs := make([]*minic.Program, runs+1) // AllocsPerRun calls once more to warm up
		for i := range progs {
			progs[i] = minic.MustParse(src)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			p := progs[next]
			next++
			if n, err := UnrollFixedLoops(p, p.Funcs[0], 64); err != nil || n != 1 {
				t.Fatalf("unrolled %d loops: %v", n, err)
			}
		})
	}
	four, many := allocs(4), allocs(64)
	t.Logf("UnrollFixedLoops: %.0f allocations at four trips, %.0f at sixty-four", four, many)
	if four != many {
		t.Errorf("UnrollFixedLoops allocates %.0f times at four trips and %.0f at sixty-four: it allocates per iteration",
			four, many)
	}
}
