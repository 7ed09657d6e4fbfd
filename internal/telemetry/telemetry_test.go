package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"psaflow/internal/events"
)

// fakeClock yields strictly increasing instants, one tick per call.
func fakeClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	s := r.StartSpan(nil, KindFlow, "f")
	if s != nil {
		t.Fatalf("nil recorder produced span %v", s)
	}
	s.SetDetail("x") // must not panic
	s.End()
	if d := s.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	r.Add(CounterInterpOps, 10)
	if v := r.Counter(CounterInterpOps); v != 0 {
		t.Errorf("nil counter = %d", v)
	}
	child := r.StartSpan(s, KindTask, "t") // nil parent span on nil recorder
	child.End()
	rep := r.Snapshot()
	if len(rep.Spans) != 0 || len(rep.Counters) != 0 {
		t.Errorf("nil snapshot not empty: %+v", rep)
	}
	if _, err := rep.JSON(); err != nil {
		t.Errorf("empty report JSON: %v", err)
	}
	var out bytes.Buffer
	if err := r.WriteReports(&out, true, filepath.Join(t.TempDir(), "m.json")); err != nil || out.Len() != 0 {
		t.Errorf("nil recorder WriteReports: err %v, printed %q", err, out.String())
	}
}

func TestSpanHierarchyAndDurations(t *testing.T) {
	r := New()
	r.now = fakeClock()
	flow := r.StartSpan(nil, KindFlow, "psa-flow")
	branch := r.StartSpan(flow, KindBranch, "A")
	path := r.StartSpan(branch, KindPath, "gpu")
	task := r.StartSpan(path, KindTask, "Blocksize DSE")
	task.SetDetail("nbody/gpu")
	task.End()
	path.End()
	branch.End()
	flow.End()

	rep := r.Snapshot()
	if len(rep.Spans) != 1 {
		t.Fatalf("roots = %d, want 1", len(rep.Spans))
	}
	root := rep.Spans[0]
	if root.Kind != KindFlow || root.Name != "psa-flow" {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 1 || len(root.Children[0].Children) != 1 {
		t.Fatalf("hierarchy lost: %+v", root)
	}
	leaf := root.Children[0].Children[0].Children[0]
	if leaf.Kind != KindTask || leaf.Detail != "nbody/gpu" {
		t.Fatalf("leaf = %+v", leaf)
	}
	if leaf.Millis <= 0 {
		t.Errorf("task duration = %v", leaf.Millis)
	}
	// Outer spans strictly contain inner ones under the fake clock.
	if root.Millis <= leaf.Millis {
		t.Errorf("flow %vms not > task %vms", root.Millis, leaf.Millis)
	}
}

func TestDoubleEndKeepsFirstDuration(t *testing.T) {
	r := New()
	r.now = fakeClock()
	s := r.StartSpan(nil, KindTask, "t")
	s.End()
	d := s.Duration()
	s.End()
	if s.Duration() != d {
		t.Errorf("second End changed duration: %v -> %v", d, s.Duration())
	}
}

func TestCountersAccumulate(t *testing.T) {
	r := New()
	r.Add(CounterInterpOps, 5)
	r.Add(CounterInterpOps, 7)
	r.Add(CounterDSEUnroll, 3)
	if v := r.Counter(CounterInterpOps); v != 12 {
		t.Errorf("interp.ops = %d", v)
	}
	if v := r.Counter("dse.unroll.iterations"); v != 3 {
		t.Errorf("dse counter = %d", v)
	}
}

// TestConcurrentRecording hammers one recorder from many goroutines the
// way parallel branch paths do, and takes snapshots while the paths are
// still starting, labelling, noting and ending spans; each snapshot must
// be a well-formed tree. Run under -race this is the telemetry race-safety
// guarantee.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	flow := r.StartSpan(nil, KindFlow, "f")
	branch := r.StartSpan(flow, KindBranch, "A")
	var wg sync.WaitGroup
	const paths, tasksPer = 8, 25
	for p := 0; p < paths; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := r.StartSpan(branch, KindPath, "path")
			path.SetDetail("design")
			for i := 0; i < tasksPer; i++ {
				ts := r.StartSpan(path, KindTask, "task")
				ts.SetDetail("design")
				r.Add(CounterInterpOps, 1)
				if i%5 == 0 {
					ts.Note(events.NoteRetry, []string{"fault", "1ms"}, 1)
					path.Note(events.NoteFallback, []string{"gpu"}, 1)
				}
				ts.End()
			}
			path.End()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	partial := 0 // snapshots taken before every span had started
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if checkTree(t, r.Snapshot()) < 2+paths*(1+tasksPer) {
			partial++
		}
	}
	t.Logf("%d snapshots taken while spans were starting", partial)
	branch.End()
	flow.End()
	rep := r.Snapshot()
	if n := checkTree(t, rep); n != 2+paths*(1+tasksPer) {
		t.Errorf("final snapshot has %d spans, want %d", n, 2+paths*(1+tasksPer))
	}
	if got := rep.Counters[CounterInterpOps]; got != paths*tasksPer {
		t.Errorf("ops = %d, want %d", got, paths*tasksPer)
	}
	var taskStat *Stat
	for i := range rep.Stats {
		if rep.Stats[i].Kind == KindTask {
			taskStat = &rep.Stats[i]
		}
	}
	if taskStat == nil || taskStat.Calls != paths*tasksPer {
		t.Fatalf("task stat = %+v", taskStat)
	}
}

// checkTree requires rep to hold the shape TestConcurrentRecording
// records — one flow, one branch under it, paths under the branch, tasks
// under each path, the notes each kind gets — with every node in storage
// of its own, every Children slice cut at capacity, and the Stats
// counting every node once. It returns the number of spans.
func checkTree(t *testing.T, rep *Report) int {
	t.Helper()
	childKind := map[string]string{KindFlow: KindBranch, KindBranch: KindPath, KindPath: KindTask}
	noteOf := map[string]string{KindPath: `fallback 1: re-selecting without path "gpu"`, KindTask: "retry 1 after fault (backoff 1ms)"}
	seen := map[*SpanSnapshot]bool{}
	var walk func(nodes []SpanSnapshot, kind string)
	walk = func(nodes []SpanSnapshot, kind string) {
		if cap(nodes) != len(nodes) {
			t.Errorf("%d %s spans with capacity %d", len(nodes), kind, cap(nodes))
		}
		for i := range nodes {
			s := &nodes[i]
			if seen[s] {
				t.Errorf("%s span %q stored twice in the tree", s.Kind, s.Name)
			}
			seen[s] = true
			if s.Kind != kind || s.Millis < 0 {
				t.Errorf("span %+v where a %s span belongs", *s, kind)
			}
			for _, n := range s.Notes {
				if n != noteOf[kind] {
					t.Errorf("%s span has note %q", kind, n)
				}
			}
			if len(s.Children) > 0 && childKind[kind] == "" {
				t.Errorf("%s span has %d children", kind, len(s.Children))
			}
			walk(s.Children, childKind[kind])
		}
	}
	if len(rep.Spans) != 1 {
		t.Fatalf("%d roots, want 1", len(rep.Spans))
	}
	walk(rep.Spans, KindFlow)
	var calls int64
	for _, st := range rep.Stats {
		calls += st.Calls
	}
	if calls != int64(len(seen)) {
		t.Errorf("stats count %d calls for %d spans", calls, len(seen))
	}
	return len(seen)
}

func TestReportTextAndJSON(t *testing.T) {
	r := New()
	r.now = fakeClock()
	flow := r.StartSpan(nil, KindFlow, "psa-flow")
	task := r.StartSpan(flow, KindTask, "Identify Hotspot Loops")
	task.End()
	flow.End()
	r.Add(CounterInterpCycles, 1234)
	rep := r.Snapshot()

	text := rep.Text()
	for _, want := range []string{"flow telemetry", "Identify Hotspot Loops", "interp.cycles", "1234", "per-task wall clock"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}

	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Spans) != 1 || back.Counters[CounterInterpCycles] != 1234 {
		t.Errorf("round-trip lost data: %+v", back)
	}
	if back.Spans[0].Children[0].Name != "Identify Hotspot Loops" {
		t.Errorf("span tree lost: %+v", back.Spans)
	}

	// WriteReports is what -metrics / -metrics-json print and write: the
	// text report and a line naming the file on w, the JSON in the file.
	path := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	if err := r.WriteReports(&out, true, path); err != nil {
		t.Fatalf("WriteReports: %v", err)
	}
	if want := text + "\nwrote " + path + "\n"; out.String() != want {
		t.Errorf("WriteReports printed:\n%q\nwant:\n%q", out.String(), want)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Errorf("WriteReports file differs from Report.JSON (read error %v)", err)
	}
	out.Reset()
	if err := r.WriteReports(&out, false, ""); err != nil || out.Len() != 0 {
		t.Errorf("WriteReports with neither output: err %v, printed %q", err, out.String())
	}
	if err := r.WriteReports(&out, false, filepath.Join(path, "under-a-file.json")); err == nil || out.Len() != 0 {
		t.Errorf("WriteReports to an unwritable path: err %v, printed %q", err, out.String())
	}
}

// TestStatsOrdering: aggregates sort by descending total time.
func TestStatsOrdering(t *testing.T) {
	r := New()
	r.now = fakeClock()
	fast := r.StartSpan(nil, KindTask, "fast")
	fast.End() // 1 tick
	slow := r.StartSpan(nil, KindTask, "slow")
	r.now() // burn ticks so slow outlasts fast
	r.now()
	slow.End()
	rep := r.Snapshot()
	if len(rep.Stats) != 2 || rep.Stats[0].Name != "slow" {
		t.Errorf("stats order = %+v", rep.Stats)
	}
}

// TestStatsTotalOrder: a flow, a path and a task that share a name and a
// total time sort by kind, the same way every time.
func TestStatsTotalOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := New()
		r.now = fakeClock()
		r.StartSpan(nil, KindTask, "x").End()
		r.StartSpan(nil, KindPath, "x").End()
		r.StartSpan(nil, KindFlow, "x").End()
		rep := r.Snapshot()
		var got []string
		for _, st := range rep.Stats {
			got = append(got, st.Kind)
		}
		if want := []string{KindFlow, KindPath, KindTask}; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("snapshot %d: stats in kind order %v, want %v", i, got, want)
		}
	}
}
