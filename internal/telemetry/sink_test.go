package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"psaflow/internal/events"
)

// recordingSink captures every event a recorder sends, as a line of its
// type, name and detail.
type recordingSink struct {
	mu    sync.Mutex
	calls []string
	durs  []float64
}

func (k *recordingSink) send(e events.Event) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.calls = append(k.calls, fmt.Sprintf("%s:%s:%s", e.Type, e.Name, e.Args.Append(nil)))
	if e.Type == events.TypeTaskEnd {
		k.durs = append(k.durs, e.DurMS)
	}
}

func TestEventSinkReceivesSpanSignals(t *testing.T) {
	r := New()
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	tick := 0
	r.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }
	sink := &recordingSink{}
	r.SetEventSink(sink.send)

	path := r.StartSpan(nil, KindPath, "A/fpga")
	path.SetDetail("nbody/fpga")
	sp := r.StartSpan(path, KindTask, "unroll")
	sp.SetDetail("nbody/fpga")
	sp.Note(events.NoteRetry, []string{"injected fault", "2ms"}, 1)
	sp.End()
	path.Note(events.NotePathDegraded, []string{"fpga", "overmap"})
	path.End()
	r.Emit(events.SharingStep, "sweep", []string{"dev"}, 3, events.Bool(true))

	want := []string{
		"task_start:unroll:",
		"note:unroll:retry 1 after injected fault (backoff 2ms)",
		"task_end:unroll:nbody/fpga",
		`note:A/fpga:path "fpga" degraded: overmap`,
		"dse_progress:sweep:dev: 3 loop(s) time-multiplexed, fits=true",
	}
	if len(sink.calls) != len(want) {
		t.Fatalf("sink saw %v, want %v", sink.calls, want)
	}
	for i := range want {
		if sink.calls[i] != want[i] {
			t.Errorf("call %d = %q, want %q", i, sink.calls[i], want[i])
		}
	}
	if len(sink.durs) != 1 || sink.durs[0] != 1000 {
		t.Errorf("task_end dur_ms = %v, want [1000]", sink.durs)
	}
}

// Without a sink, spans and emits must work exactly as before (every flow
// outside the daemon runs this path).
func TestNoSinkIsNoop(t *testing.T) {
	r := New()
	sp := r.StartSpan(nil, KindTask, "t")
	sp.Note(events.NoteFallback, []string{"gpu"}, 1)
	sp.End()
	r.Emit(events.PathDegraded, "y", []string{"z"}) // must not panic
	rep := r.Snapshot()
	if len(rep.Spans) != 1 {
		t.Fatalf("spans not recorded without sink: %+v", rep.Spans)
	}
	if want := `fallback 1: re-selecting without path "gpu"`; len(rep.Spans[0].Notes) != 1 || rep.Spans[0].Notes[0] != want {
		t.Errorf("notes %q, want [%q]", rep.Spans[0].Notes, want)
	}
	var nilRec *Recorder
	nilRec.Emit(events.PathDegraded, "y", []string{"z"})
	nilRec.SetEventSink(nil)
}
