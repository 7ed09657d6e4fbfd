package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"psaflow/internal/events"
)

// recordingSink captures every sink signal for assertion.
type recordingSink struct {
	mu    sync.Mutex
	calls []string
	durs  []time.Duration
}

func (k *recordingSink) add(call string) {
	k.mu.Lock()
	k.calls = append(k.calls, call)
	k.mu.Unlock()
}

func (k *recordingSink) SpanStart(kind, name string) {
	k.add(fmt.Sprintf("start:%s:%s", kind, name))
}

func (k *recordingSink) SpanEnd(kind, name, detail string, dur time.Duration) {
	k.mu.Lock()
	k.durs = append(k.durs, dur)
	k.mu.Unlock()
	k.add(fmt.Sprintf("end:%s:%s:%s", kind, name, detail))
}

func (k *recordingSink) SpanNote(kind, name, note string) {
	k.add(fmt.Sprintf("note:%s:%s:%s", kind, name, note))
}

func (k *recordingSink) Event(name string, detail events.Detail) {
	k.add(fmt.Sprintf("event:%s:%s:%s", detail.Format.Kind(), name, detail.Append(nil)))
}

func TestEventSinkReceivesSpanSignals(t *testing.T) {
	r := New()
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	tick := 0
	r.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }
	sink := &recordingSink{}
	r.SetEventSink(sink)

	sp := r.StartSpan(nil, KindTask, "unroll")
	sp.SetDetail("n=4")
	sp.Note("fits")
	sp.End()
	r.Emit(events.SharingStep, "sweep", []string{"dev"}, 3, events.Bool(true))

	want := []string{
		"start:task:unroll",
		"note:task:unroll:fits",
		"end:task:unroll:n=4",
		"event:dse_progress:sweep:dev: 3 loop(s) time-multiplexed, fits=true",
	}
	if len(sink.calls) != len(want) {
		t.Fatalf("sink saw %v, want %v", sink.calls, want)
	}
	for i := range want {
		if sink.calls[i] != want[i] {
			t.Errorf("call %d = %q, want %q", i, sink.calls[i], want[i])
		}
	}
	if len(sink.durs) != 1 || sink.durs[0] <= 0 {
		t.Errorf("span end duration = %v, want positive", sink.durs)
	}
}

// Without a sink, spans and emits must work exactly as before (every flow
// outside the daemon runs this path).
func TestNoSinkIsNoop(t *testing.T) {
	r := New()
	sp := r.StartSpan(nil, KindTask, "t")
	sp.Note("n")
	sp.End()
	r.Emit(events.PathDegraded, "y", []string{"z"}) // must not panic
	rep := r.Snapshot()
	if len(rep.Spans) != 1 {
		t.Fatalf("spans not recorded without sink: %+v", rep.Spans)
	}
	var nilRec *Recorder
	nilRec.Emit(events.PathDegraded, "y", []string{"z"})
	nilRec.SetEventSink(nil)
}
