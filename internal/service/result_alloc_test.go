//go:build !race

// The race detector instruments allocation, so the pin below holds only
// without it: tier-1 (go test ./...) runs it, go test -race skips it.

package service

import (
	"strconv"
	"strings"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/experiments"
	"psaflow/internal/telemetry"
)

// TestBuildResultTraceAllocations: a design's trace lines cost a result at
// most two allocations, however many events the trace holds.
func TestBuildResultTraceAllocations(t *testing.T) {
	const designs = 3
	withTrace := func(n int) *outcome {
		o := &outcome{}
		for i := 0; i < designs; i++ {
			d := &core.Design{Name: "nbody"}
			for j := 0; j < n; j++ {
				if j%2 == 0 {
					d.Record(events.TaskKind, "Unroll Fixed Loops", []string{strconv.Itoa(j)})
				} else {
					d.Record(events.DSEUnrollStep, "unroll", nil, float64(j), 51.25, 12.5, events.Bool(j%3 == 0))
				}
			}
			o.results = append(o.results, experiments.DesignResult{Design: d})
		}
		return o
	}
	o := withTrace(0)
	none := testing.AllocsPerRun(20, func() { buildResult(JobStatus{}, o) })
	for _, n := range []int{1, 8, 500} {
		o := withTrace(n)
		extra := testing.AllocsPerRun(20, func() { buildResult(JobStatus{}, o) }) - none
		t.Logf("%d events a design: %.0f allocations for the traces of %d designs", n, extra, designs)
		if extra > 2*designs {
			t.Errorf("%d events a design: the traces cost %.0f allocations, want at most %d", n, extra, 2*designs)
		}
	}
}

// TestEmitFrameAllocations: an event the engine emits through a job's
// sink costs its frame and nothing else once the ring is full and frames
// take the slots of the oldest — and a frame's line is a share of the
// broker's slab chunk, about one chunk per twenty lines, which AllocsPerRun's
// rounding down reads as 0.
func TestEmitFrameAllocations(t *testing.T) {
	s := New(Config{EventRingSize: 16})
	job := &Job{ID: "j", events: events.NewBroker("j", 16, 0)}
	rec := telemetry.New()
	rec.SetEventSink(func(e events.Event) { s.publish(job, e) })
	dev := "Intel Stratix 10 GX 2800"
	emit := func() {
		rec.Emit(events.UnrollStep, "unroll", []string{dev}, 4, 51.25, 12.5, events.Bool(true))
	}
	for range 32 {
		emit()
	}
	if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
		t.Errorf("an emitted event costs %.0f allocations, want 0 (a share of a chunk)", allocs)
	}
	sub, _ := job.events.Subscribe(0)
	frames, _ := sub.Poll(1)
	if want := `"detail":"Intel Stratix 10 GX 2800: n=4 LUT=51.2% DSP=12.5% fits=true"`; !strings.Contains(string(frames[0].Line), want) {
		t.Errorf("frame %s does not carry %s", frames[0].Line, want)
	}
}
