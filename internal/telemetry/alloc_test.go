//go:build !race

// The race detector instruments allocation, so the pins below hold only
// without it: tier-1 (go test ./...) runs them, go test -race skips them.

package telemetry

import (
	"testing"

	"psaflow/internal/events"
)

// recordFlat starts and ends n task spans under one flow span.
func recordFlat(n int) *Recorder {
	r := New()
	flow := r.StartSpan(nil, KindFlow, "f")
	for i := 0; i < n; i++ {
		r.StartSpan(flow, KindTask, "t").End()
	}
	flow.End()
	return r
}

// TestStartSpanAllocations: recording 256 spans under one parent
// allocates the chunks that hold them, not one span at a time.
func TestStartSpanAllocations(t *testing.T) {
	empty := testing.AllocsPerRun(20, func() { recordFlat(0) })
	const n = 256
	full := testing.AllocsPerRun(20, func() { recordFlat(n) })
	chunks := float64((n + 1 + spanChunk - 1) / spanChunk)
	t.Logf("%d spans: %.0f allocations beyond an empty recording, %.0f chunks", n, full-empty, chunks)
	if full-empty > chunks-1 { // the empty recording has the first chunk
		t.Errorf("%d spans cost %.0f allocations beyond an empty recording, want at most %.0f", n, full-empty, chunks-1)
	}
}

// TestSnapshotAllocations: a snapshot of 256 spans allocates exactly what
// a snapshot of one does.
func TestSnapshotAllocations(t *testing.T) {
	small, large := recordFlat(1), recordFlat(256)
	a := testing.AllocsPerRun(20, func() { small.Snapshot() })
	b := testing.AllocsPerRun(20, func() { large.Snapshot() })
	t.Logf("Snapshot: %.0f allocations of 2 spans, %.0f of 257", a, b)
	if b != a {
		t.Errorf("Snapshot allocates %.0f times for 257 spans and %.0f for 2", b, a)
	}
}

// TestEmitAllocations: handing an event with strings and numbers to a sink
// allocates nothing — the operands travel by value, and only the sink's
// frame costs anything (the service pins that).
func TestEmitAllocations(t *testing.T) {
	r := New()
	r.SetEventSink(func(events.Event) {})
	dev, n := "Intel Stratix 10 GX 2800", 4.0
	if allocs := testing.AllocsPerRun(100, func() {
		r.Emit(events.UnrollStep, "unroll", []string{dev}, n, 51.25, 12.5, events.Bool(true))
	}); allocs != 0 {
		t.Errorf("Emit to a sink allocates %.0f times, want 0", allocs)
	}
}
