//go:build !race

// The race detector instruments allocation, so the pin below holds only
// without it: tier-1 (go test ./...) runs it, go test -race skips it.

package bench

import "testing"

var sinkBench *Benchmark

// TestByNameAllocations: ByName builds the one benchmark it returns, so it
// allocates no more than that benchmark's constructor.
func TestByNameAllocations(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Benchmark
	}{{"nbody", NBody}, {"kmeans", KMeans}, {"adpredictor", AdPredictor}, {"rushlarsen", RushLarsen}, {"bezier", Bezier}} {
		want := testing.AllocsPerRun(20, func() { sinkBench = c.build() })
		got := testing.AllocsPerRun(20, func() { sinkBench, _ = ByName(c.name) })
		if got > want {
			t.Errorf("ByName(%q) allocates %.0f times, its constructor %.0f", c.name, got, want)
		}
	}
}
