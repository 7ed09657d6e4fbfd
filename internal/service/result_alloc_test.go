//go:build !race

// The race detector instruments allocation, so the pin below holds only
// without it: tier-1 (go test ./...) runs it, go test -race skips it.

package service

import (
	"strconv"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/experiments"
)

// TestBuildResultTraceAllocations: a design's trace lines cost a result at
// most two allocations, however many events the trace holds.
func TestBuildResultTraceAllocations(t *testing.T) {
	const designs = 3
	withTrace := func(events int) *outcome {
		o := &outcome{}
		for i := 0; i < designs; i++ {
			d := &core.Design{Name: "nbody"}
			for j := 0; j < events; j++ {
				d.Trace = append(d.Trace, core.TraceEvent{Kind: "task", Name: "Unroll Fixed Loops", Detail: strconv.Itoa(j)})
			}
			o.results = append(o.results, experiments.DesignResult{Design: d})
		}
		return o
	}
	o := withTrace(0)
	none := testing.AllocsPerRun(20, func() { buildResult(JobStatus{}, o) })
	for _, events := range []int{1, 8, 500} {
		o := withTrace(events)
		extra := testing.AllocsPerRun(20, func() { buildResult(JobStatus{}, o) }) - none
		t.Logf("%d events a design: %.0f allocations for the traces of %d designs", events, extra, designs)
		if extra > 2*designs {
			t.Errorf("%d events a design: the traces cost %.0f allocations, want at most %d", events, extra, 2*designs)
		}
	}
}
