//go:build !race

// The race detector instruments allocation, so the pin below holds only
// without it: tier-1 (go test ./...) runs it, go test -race skips it.

package flowlang_test

import (
	"testing"

	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
)

// TestParseAllocations pins what parsing the built-in flow costs; a
// registered document is parsed on every PUT and registry replay. The
// bound is the count when the pin was set; Parse may allocate less, never
// more.
func TestParseAllocations(t *testing.T) {
	src := readExample(t, "paper.psa")
	if allocs := testing.AllocsPerRun(10, func() { _, _ = flowlang.Parse(src) }); allocs > 84 {
		t.Errorf("Parse(paper.psa) makes %.0f allocations, want at most 84", allocs)
	}
}

// TestCompileAllocations pins what lowering the built-in flow costs; every
// job lowers its checked document once with its own options. The bounds
// are the counts when the pin was set, per mode × sharing combination;
// lowering may allocate less, never more.
func TestCompileAllocations(t *testing.T) {
	for _, c := range []struct {
		opts flowlang.Options
		max  float64
	}{
		{flowlang.Options{Mode: tasks.Informed}, 104},
		{flowlang.Options{Mode: tasks.Uninformed}, 102},
		{flowlang.Options{Mode: tasks.Uninformed, ResourceSharing: true}, 109},
		{flowlang.Options{Mode: tasks.Informed, ResourceSharing: true}, 111},
	} {
		allocs := testing.AllocsPerRun(10, func() { _ = flowlang.PSAFlow(c.opts) })
		t.Logf("%s sharing=%v: %.0f allocations", c.opts.Mode, c.opts.ResourceSharing, allocs)
		if allocs > c.max {
			t.Errorf("lowering paper.psa (%s, sharing=%v) makes %.0f allocations, want at most %.0f",
				c.opts.Mode, c.opts.ResourceSharing, allocs, c.max)
		}
	}
}
