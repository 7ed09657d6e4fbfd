package interp_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// loweredBytes is what one lowering of prog allocates, in bytes, scratch
// included: the lowering starts with no idle scratch to take.
func loweredBytes(prog *minic.Program) uint64 {
	interp.DropScratch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	interp.Lower(prog)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// nestedBlocks is a function whose body is n blocks, each the only
// statement of the one around it, with one declaration innermost: its one
// instruction charges the steps of all n blocks before its own.
func nestedBlocks(n int) string {
	return "void f() { " + strings.Repeat("{ ", n) + "int x = 1; " + strings.Repeat("} ", n) + "}"
}

// addChain is a function returning the left-associative sum of n ones:
// the innermost addition's left operand charges the steps of all n.
func addChain(n int) string {
	return "int f() { return 1" + strings.Repeat(" + 1", n-1) + "; }"
}

// TestLowerScalesLinearly: what lowering allocates grows in proportion to
// the source, for the two shapes whose position prefixes are as deep as
// the source is long. Four times the nesting or the chain may allocate at
// most six times the bytes; a prefix copied whole at every level allocates
// sixteen times (nested blocks, 1 000 → 4 000: 8.6 → 138.5 MB).
func TestLowerScalesLinearly(t *testing.T) {
	for _, c := range []struct {
		name string
		src  func(int) string
		n    int
	}{
		{"nested-blocks", nestedBlocks, 1000},
		{"add-chain", addChain, 1000},
	} {
		small := loweredBytes(minic.MustParse(c.src(c.n)))
		large := loweredBytes(minic.MustParse(c.src(4 * c.n)))
		t.Logf("%s: %d → %d: %d → %d bytes (%.1fx)", c.name, c.n, 4*c.n, small, large, float64(large)/float64(small))
		if large > 6*small {
			t.Errorf("%s: lowering %d allocates %d bytes, %d allocates %d: %.1fx for 4x the source, want at most 6x",
				c.name, c.n, small, 4*c.n, large, float64(large)/float64(small))
		}
	}
}

// TestLowerConcurrent lowers the five applications from eight goroutines
// at once, each lowering taking its scratch from lowerScratch, and
// requires every image, prefix trees included, to equal the one a
// lowering alone makes.
func TestLowerConcurrent(t *testing.T) {
	apps := bench.All()
	progs := make([]*minic.Program, len(apps))
	want := make([]string, len(apps))
	for i, b := range apps {
		progs[i] = b.Parse()
		want[i] = interp.LoweredImage(progs[i])
	}
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*len(apps))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for k := range apps {
					i := (w + r + k) % len(apps)
					if got := interp.LoweredImage(progs[i]); got != want[i] {
						errs <- fmt.Sprintf("%s: a concurrent lowering differs from the serial one", apps[i].Name)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
