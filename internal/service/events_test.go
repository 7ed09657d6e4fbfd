package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"psaflow/internal/events"
	"psaflow/internal/experiments"
	"psaflow/internal/telemetry"
)

// streamURL builds the events endpoint for a job.
func streamURL(base, id string) string { return base + "/v1/jobs/" + id + "/events" }

// readStream reads an NDJSON event stream to EOF (the handler terminates
// it at the job's terminal event), skipping blank heartbeat lines.
func readStream(t *testing.T, url string) []events.Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: got %d, body %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	return decodeNDJSON(t, resp.Body)
}

func decodeNDJSON(t *testing.T, r io.Reader) []events.Event {
	t.Helper()
	var evs []events.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue // heartbeat
		}
		var e events.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func eventTypes(evs []events.Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func countType(evs []events.Event, typ string) int {
	n := 0
	for _, e := range evs {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// TestEventStreamLifecycle watches a hooked job end to end: the stream
// carries queued → started → done with dense seqs and terminates itself
// at the terminal event.
func TestEventStreamLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)

	got := make(chan []events.Event, 1)
	go func() { got <- readStream(t, streamURL(ts.URL, st.ID)) }()
	time.Sleep(20 * time.Millisecond) // let the watcher attach mid-run
	close(h.release)
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)

	select {
	case evs := <-got:
		want := []string{events.TypeQueued, events.TypeStarted, events.TypeDone}
		if len(evs) != len(want) {
			t.Fatalf("stream carried %v, want types %v", eventTypes(evs), want)
		}
		for i, e := range evs {
			if e.Type != want[i] || e.Seq != uint64(i) || e.Job != st.ID {
				t.Errorf("event %d = %+v, want type %s seq %d job %s", i, e, want[i], i, st.ID)
			}
		}
		if evs[2].DurMS <= 0 {
			t.Errorf("terminal event has dur_ms=%v", evs[2].DurMS)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate after job completion")
	}
}

// TestEventStreamRealFlow runs a real PSA flow and checks the engine's
// execution events — task spans, branch decisions, DSE progress — reach
// the stream, then that a post-completion replay still serves them.
func TestEventStreamRealFlow(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	waitState(t, ts.URL, st.ID, 60*time.Second, StateDone)

	evs := readStream(t, streamURL(ts.URL, st.ID)) // replay of a finished job
	if len(evs) == 0 {
		t.Fatal("no events replayed")
	}
	if evs[0].Type != events.TypeQueued || evs[len(evs)-1].Type != events.TypeDone {
		t.Fatalf("stream bounds = %s..%s, want queued..done", evs[0].Type, evs[len(evs)-1].Type)
	}
	for typ, min := range map[string]int{
		events.TypeStarted:     1,
		events.TypeTaskStart:   2,
		events.TypeTaskEnd:     2,
		events.TypeDSEProgress: 1,
	} {
		if n := countType(evs, typ); n < min {
			t.Errorf("%d %s events, want >= %d (types: %v)", n, typ, min, eventTypes(evs))
		}
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("seq gap at %d: %+v", i, e)
		}
	}
}

// TestEventReplayMatchesLiveStream is the endpoint-level replay guarantee:
// the bytes a live watcher saw and the bytes a from=0 replay serves after
// completion are identical.
func TestEventReplayMatchesLiveStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, EventHeartbeat: time.Hour})
	emitted := make(chan struct{})
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		for i := 0; i < 5; i++ {
			rec.Emit(events.SharingStep, "sweep", []string{fmt.Sprintf("step %d", i)}, float64(i), events.Bool(i%2 == 0))
		}
		close(emitted)
		time.Sleep(50 * time.Millisecond) // keep the job live while the watcher drains
		return nil, nil
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})

	live := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(streamURL(ts.URL, st.ID))
		if err != nil {
			live <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		live <- data
	}()
	<-emitted
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)

	liveBytes := <-live
	if liveBytes == nil {
		t.Fatal("live watcher failed")
	}
	resp, err := http.Get(streamURL(ts.URL, st.ID) + "?from=0")
	if err != nil {
		t.Fatal(err)
	}
	replayBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(liveBytes, replayBytes) {
		t.Fatalf("replay diverged from live stream:\nlive:\n%s\nreplay:\n%s", liveBytes, replayBytes)
	}
	if n := countType(decodeNDJSON(t, bytes.NewReader(replayBytes)), events.TypeDSEProgress); n != 5 {
		t.Fatalf("replay carried %d dse_progress events, want 5", n)
	}
}

// TestEventStreamResume checks ?from=<seq> picks up exactly where a prior
// read stopped.
func TestEventStreamResume(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	h := installBlockingHook(s)
	close(h.release)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)

	all := readStream(t, streamURL(ts.URL, st.ID))
	if len(all) < 3 {
		t.Fatalf("only %d events", len(all))
	}
	tail := readStream(t, streamURL(ts.URL, st.ID)+"?from=2")
	if len(tail) != len(all)-2 || tail[0].Seq != 2 {
		t.Fatalf("resume from 2: got %+v", tail)
	}

	code, body := getJSON(t, streamURL(ts.URL, st.ID)+"?from=banana")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "banana") {
		t.Errorf("malformed from: got %d %s, want 400 naming the value", code, body)
	}
}

// TestEventStreamSSE checks the Accept-negotiated SSE framing and
// Last-Event-ID resume.
func TestEventStreamSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	h := installBlockingHook(s)
	close(h.release)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)

	sse := func(lastEventID string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, streamURL(ts.URL, st.ID), nil)
		req.Header.Set("Accept", "text/event-stream")
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.Header.Get("Content-Type"), string(data)
	}

	ct, body := sse("")
	if ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	for _, want := range []string{"id: 0\n", "event: queued\n", "event: done\n", "data: {\"seq\":0"} {
		if !strings.Contains(body, want) {
			t.Errorf("SSE body missing %q:\n%s", want, body)
		}
	}

	// Resume after seq 0: the queued event must not repeat.
	_, tail := sse("0")
	if strings.Contains(tail, "event: queued\n") || !strings.Contains(tail, "event: done\n") {
		t.Errorf("Last-Event-ID resume wrong:\n%s", tail)
	}
}

// TestEventStreamDropAccounting overflows a tiny ring and checks the
// HTTP layer reports the exact loss in service metrics rather than
// serving a silently truncated stream as complete.
func TestEventStreamDropAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, EventRingSize: 4})
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		for i := 0; i < 20; i++ {
			rec.Emit(events.SharingStep, "sweep", []string{fmt.Sprintf("step %d", i)}, float64(i), events.Bool(i%2 == 0))
		}
		return nil, nil
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)

	// 23 events published (queued, started, 20 sweeps, done); ring holds 4.
	evs := readStream(t, streamURL(ts.URL, st.ID))
	if len(evs) != 4 {
		t.Fatalf("ring served %d events, want 4", len(evs))
	}
	if evs[0].Seq != 19 || evs[3].Type != events.TypeDone {
		t.Fatalf("wrong retained window: %+v", evs)
	}
	c := fetchMetrics(t, ts.URL).Telemetry.Counters
	if n := c[telemetry.CounterEventsPublished]; n != 23 {
		t.Errorf("%s = %d, want 23", telemetry.CounterEventsPublished, n)
	}
	if n := c[telemetry.CounterEventsDropped]; n != 19 {
		t.Errorf("%s = %d, want 19 (seqs 0..18 evicted)", telemetry.CounterEventsDropped, n)
	}
}

// TestEventStreamLateSubscriberDrainsRing subscribes to a finished job whose
// ring retains several poll batches: nothing will ever wake the subscriber
// again, so the handler must keep polling until the ring is drained — every
// frame delivered and the stream closed at once, not a batch per heartbeat.
func TestEventStreamLateSubscriberDrainsRing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, EventHeartbeat: time.Hour})
	const sweeps = 200
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		for i := 0; i < sweeps; i++ {
			rec.Emit(events.SharingStep, "sweep", []string{fmt.Sprintf("step %d", i)}, float64(i), events.Bool(i%2 == 0))
		}
		return nil, nil
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL(ts.URL, st.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream still open after 1s (%d bytes read): %v", len(data), err)
	}
	// queued, started, the sweeps, done.
	evs := decodeNDJSON(t, bytes.NewReader(data))
	if len(evs) != sweeps+3 {
		t.Fatalf("late subscriber got %d events, want %d", len(evs), sweeps+3)
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d; the replay must be dense", i, e.Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Type != events.TypeDone {
		t.Errorf("stream ended on %q, want %q", last.Type, events.TypeDone)
	}
}

// TestEventStreamDisconnectFreesSubscription cancels a watcher mid-stream
// and checks the broker slot is released and /metrics counts it out.
func TestEventStreamDisconnectFreesSubscription(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, streamURL(ts.URL, st.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil { // first byte proves the stream is live
		t.Fatal(err)
	}
	job := s.lookup(st.ID)
	waitCond(t, "subscriber attached", func() bool {
		_, _, subs := job.events.Stats()
		return subs == 1
	})
	if n := fetchMetrics(t, ts.URL).Service.EventWatchers; n != 1 {
		t.Errorf("event_watchers = %d with one stream attached", n)
	}
	cancel()
	resp.Body.Close()
	waitCond(t, "subscriber detached", func() bool {
		_, _, subs := job.events.Stats()
		return subs == 0
	})
	if n := fetchMetrics(t, ts.URL).Service.EventWatchers; n != 0 {
		t.Errorf("event_watchers = %d after the only stream detached", n)
	}
	close(h.release)
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventStreamMaxWatchers caps a job at one watcher and checks the
// second gets 429 and a freed slot readmits.
func TestEventStreamMaxWatchers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, MaxWatchersPerJob: 1})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, streamURL(ts.URL, st.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}

	code, body := getJSON(t, streamURL(ts.URL, st.ID))
	if code != http.StatusTooManyRequests {
		t.Fatalf("second watcher: got %d %s, want 429", code, body)
	}
	cancel()
	resp.Body.Close()
	job := s.lookup(st.ID)
	waitCond(t, "slot freed", func() bool {
		_, _, subs := job.events.Stats()
		return subs == 0
	})
	close(h.release)
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)
	if evs := readStream(t, streamURL(ts.URL, st.ID)); len(evs) == 0 {
		t.Fatal("readmitted watcher got no events")
	}
}

func TestEventStreamUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	code, _ := getJSON(t, streamURL(ts.URL, "jobs-999999"))
	if code != http.StatusNotFound {
		t.Fatalf("unknown job stream: got %d, want 404", code)
	}
}

// TestConcurrentWatchersRace fans many watchers over jobs that emit
// while being watched — meant for -race, and checks every complete
// stream is identical.
func TestConcurrentWatchersRace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8, EventHeartbeat: time.Hour})
	s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		for i := 0; i < 50; i++ {
			rec.Emit(events.SharingStep, "sweep", []string{fmt.Sprintf("step %d", i)}, float64(i), events.Bool(i%2 == 0))
			time.Sleep(time.Millisecond)
		}
		return nil, nil
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})

	const watchers = 16
	streams := make(chan []byte, watchers)
	for i := 0; i < watchers; i++ {
		go func() {
			resp, err := http.Get(streamURL(ts.URL, st.ID))
			if err != nil || resp.StatusCode != http.StatusOK {
				streams <- nil
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			streams <- data
		}()
	}
	waitState(t, ts.URL, st.ID, 30*time.Second, StateDone)
	var first []byte
	for i := 0; i < watchers; i++ {
		data := <-streams
		if data == nil {
			t.Fatal("watcher failed")
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatal("watchers saw different streams")
		}
	}
	if n := countType(decodeNDJSON(t, bytes.NewReader(first)), events.TypeDSEProgress); n != 50 {
		t.Fatalf("stream carried %d dse_progress events, want 50", n)
	}
}

// --- satellite regressions ---

// TestQueueWaitAvgCountsStartedJobs is the satellite-1 regression: the
// average must divide by jobs that started (and so contributed a wait
// sample), not by completed+failed — a cancel-heavy load used to inflate
// the average.
func TestQueueWaitAvgCountsStartedJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	j1 := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)
	j2 := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})

	// Cancel J1 while it runs: it contributed a wait sample at start but
	// lands in neither completed nor failed.
	if code, _ := httpDelete(t, ts.URL+"/v1/jobs/"+j1.ID); code != http.StatusAccepted {
		t.Fatal("cancel running failed")
	}
	waitState(t, ts.URL, j1.ID, 10*time.Second, StateCancelled)
	h.waitStarted(t)
	close(h.release)
	waitState(t, ts.URL, j2.ID, 10*time.Second, StateDone)

	m := fetchMetrics(t, ts.URL)
	if n := m.Telemetry.Counters[telemetry.CounterJobsStarted]; n != 2 {
		t.Fatalf("%s = %d, want 2", telemetry.CounterJobsStarted, n)
	}
	wantAvg := float64(m.Telemetry.Counters[telemetry.CounterQueueWaitMillis]) / 2
	if m.Service.QueueWaitMSav != wantAvg {
		t.Errorf("queue_wait_ms_avg = %v, want total/started = %v", m.Service.QueueWaitMSav, wantAvg)
	}
}

// TestSubmitUnknownFieldRejected is the satellite-4 regression: a typoed
// spec field must 400 with the field named, not silently run defaults.
func TestSubmitUnknownFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	for _, tc := range []struct{ body, want string }{
		{`{"bench": "nbody", "time_out_ms": 100}`, "time_out_ms"},
		{`{"bench": "nbody", "dse_workers": 4}`, `dse_workers\" at byte 32`}, // option removed with the DSE pool
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s: got %d %s, want 400", tc.body, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), tc.want) {
			t.Errorf("error does not name the offending field (%s): %s", tc.want, data)
		}
	}
}

// TestTerminalJobEviction is the satellite-2 regression: the registry
// stays bounded, evicted jobs' status/result fall back to disk, and their
// event history answers 410 (pointing at the result) rather than 404.
func TestTerminalJobEviction(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, RetainJobs: 2, DataDir: dir})
	h := installBlockingHook(s)
	close(h.release)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
		waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)
		ids = append(ids, st.ID)
	}

	// The job state turns terminal before complete persists and retires
	// it, so eviction trails the visible "done" by a beat.
	waitCond(t, "registry drained to the retain cap", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs) == 2
	})
	waitCond(t, "eviction counter", func() bool {
		return fetchMetrics(t, ts.URL).Telemetry.Counters[telemetry.CounterJobsEvicted] == 3
	})

	evicted, retained := ids[0], ids[4]
	// Status and result for an evicted job come from the persisted file.
	code, body := getJSON(t, ts.URL+"/v1/jobs/"+evicted)
	if code != http.StatusOK {
		t.Fatalf("evicted status: got %d %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.State != StateDone {
		t.Fatalf("evicted status wrong: %s (err %v)", body, err)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+evicted+"/result"); code != http.StatusOK {
		t.Fatalf("evicted result: got %d", code)
	}
	// The event ring went with the registry entry: 410, not 404.
	code, body = getJSON(t, streamURL(ts.URL, evicted))
	if code != http.StatusGone || !strings.Contains(string(body), "/result") {
		t.Fatalf("evicted events: got %d %s, want 410 pointing at the result", code, body)
	}
	// A retained job still replays.
	if evs := readStream(t, streamURL(ts.URL, retained)); countType(evs, events.TypeDone) != 1 {
		t.Fatalf("retained job replay wrong: %+v", evs)
	}
}

// TestRetainJobsDisabled checks RetainJobs<0 keeps everything (the old
// unbounded behaviour, now opt-in).
func TestRetainJobsDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, RetainJobs: -1})
	h := installBlockingHook(s)
	close(h.release)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
		waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 4 {
		t.Fatalf("registry holds %d jobs with eviction disabled, want 4", n)
	}
}
