package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/experiments"
	"psaflow/internal/flowlang"
)

// framesFixture holds the type, name and detail of every event frame the
// engine publishes for one job of each application in each mode, and for
// one job of each application under injected faults, as the frames read
// when each detail was formatted at the moment it was emitted. A job's
// parallel branch paths publish in no fixed order, so each job's lines are
// sorted. It is frozen: a change to it is a change to what the event
// stream says, made by hand.
const framesFixture = "testdata/frames.golden"

// serveJob submits one job through the server's handler in-process and
// reads its result, which the handler holds until the job is done. It
// returns the job's ID.
func serveJob(t *testing.T, h http.Handler, body []byte) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	for {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil))
		if w.Code == http.StatusOK {
			return st.ID
		}
		if w.Code != http.StatusConflict {
			t.Fatalf("result %s: %d %s", st.ID, w.Code, w.Body)
		}
	}
}

// engineFrames lists the frames of a finished job that the engine
// published — not the lifecycle's queued, started and terminal events —
// one "type name detail" line each, sorted.
func engineFrames(t *testing.T, s *Server, id string) []string {
	t.Helper()
	job := s.lookup(id)
	if job == nil {
		t.Fatalf("job %s is not in the registry", id)
	}
	sub, ok := job.events.Subscribe(0)
	if !ok {
		t.Fatal("subscribe refused")
	}
	defer sub.Close()
	// The result is readable a moment before the terminal event closes the
	// stream (Server.complete), so wait for the close.
	var frames []events.Frame
	for {
		batch, done := sub.Poll(1 << 20)
		frames = append(frames, batch...)
		if done {
			break
		}
		select {
		case <-sub.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s: stream not closed", id)
		}
	}
	var lines []string
	for _, f := range frames {
		var e struct{ Type, Name, Detail string }
		if err := json.Unmarshal(f.Line, &e); err != nil {
			t.Fatalf("frame %q: %v", f.Line, err)
		}
		switch e.Type {
		case events.TypeQueued, events.TypeStarted, events.TypeDone, events.TypeFailed, events.TypeCancelled:
			continue
		}
		lines = append(lines, fmt.Sprintf("%s %q %q", e.Type, e.Name, e.Detail))
	}
	slices.Sort(lines)
	return lines
}

// framesTable runs the fixture's jobs on one server and lists their frames.
func framesTable(t *testing.T) string {
	s := New(Config{Workers: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain() })
	var sb strings.Builder
	run := func(title string, spec JobSpec) {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "== %s\n", title)
		for _, line := range engineFrames(t, s, serveJob(t, s.Handler(), body)) {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	for _, b := range bench.All() {
		for _, mode := range []string{"informed", "uninformed"} {
			run(b.Name+" "+mode, JobSpec{Bench: b.Name, Mode: mode})
		}
		run(b.Name+" faults", faultsJob(b))
	}
	return sb.String()
}

// faultsJob is the fixture's job of b under injected faults.
func faultsJob(b *bench.Benchmark) JobSpec {
	return JobSpec{Bench: b.Name, Mode: "uninformed",
		Faults: "seed=7,rate=0.2,kinds=hls,run", RetryMaxAttempts: 4, RetryBudget: 16}
}

// TestFramesFixture: every frame the engine publishes carries the
// fixture's type, name and detail.
func TestFramesFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fifteen flows (use without -short)")
	}
	got := framesTable(t)
	want, err := os.ReadFile(framesFixture)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %s\nwant %s", framesFixture, i+1, g, w)
			if shown++; shown == 10 {
				t.Fatal("more differences not shown")
			}
		}
	}
}

// TestLogfLinesMatchFrames: the lines RunBenchmarkEnv hands its logf for
// each faults job of the fixture, rendered in the fixture's format, are
// that job's engine frames — the same lines, each as many times — so what
// psaflow -v prints is what the job's event stream carries.
func TestLogfLinesMatchFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five flows (use without -short)")
	}
	fixture, err := os.ReadFile(framesFixture)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string][]string{}
	var title string
	for _, line := range strings.Split(strings.TrimSuffix(string(fixture), "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			title = name
			continue
		}
		sections[title] = append(sections[title], line)
	}
	s := New(Config{})
	for _, b := range bench.All() {
		spec := faultsJob(b)
		opts, err := spec.flowOptions()
		if err != nil {
			t.Fatal(err)
		}
		env, err := spec.flowEnv(flowlang.Bundled().Compile(opts), experiments.Settings{Retry: s.retry})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		var mu sync.Mutex
		logf := func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, fmt.Sprintf("%s %q %q", args...))
		}
		if _, err := experiments.RunBenchmarkEnv(context.Background(), b, nil, opts, env, logf, nil, core.NewRunCache()); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		slices.Sort(got)
		want := sections[b.Name+" faults"]
		if len(want) == 0 {
			t.Fatalf("%s has no %q section", framesFixture, b.Name+" faults")
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: logf got %d lines, the fixture has %d", b.Name, len(got), len(want))
			for _, line := range got {
				if !slices.Contains(want, line) {
					t.Errorf("  logf only: %s", line)
				}
			}
			for _, line := range want {
				if !slices.Contains(got, line) {
					t.Errorf("  fixture only: %s", line)
				}
			}
		}
	}
}
