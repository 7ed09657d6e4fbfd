package service

// What a finished job keeps: its encoded result — one []byte shared by the
// registry and the WAL record, and gone from memory once the registry lets
// the job go — and its event ring.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/minic"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

func fetchResultBody(t *testing.T, base, id string) []byte {
	t.Helper()
	code, body := getJSON(t, base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result of %s: %d %s", id, code, body)
	}
	return body
}

// TestResultBytesIdenticalLiveAndEvicted: one job's GET /result body is the
// same bytes while the job sits in the registry, once it has been pushed
// out and the store serves it, and after a restart — and those bytes are
// what encoding the result struct with two-space indentation gives, which
// is how results were served when the registry still held the struct.
func TestResultBytesIdenticalLiveAndEvicted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real flow; skipped in -short mode")
	}
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, QueueSize: 4, RetainJobs: 1, DataDir: dir})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	job := submitOK(t, ts1.URL, JobSpec{Bench: "adpredictor"})
	waitState(t, ts1.URL, job.ID, 60*time.Second, StateDone)
	if s1.lookup(job.ID) == nil {
		t.Fatal("finished job left the registry before anything could evict it")
	}
	live := fetchResultBody(t, ts1.URL, job.ID)

	var res JobResult
	if err := json.Unmarshal(live, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Designs) == 0 || res.Telemetry == nil {
		t.Fatalf("result carries no designs or telemetry; the comparison below would say little: %s", live)
	}
	var fromStruct bytes.Buffer
	enc := json.NewEncoder(&fromStruct)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, fromStruct.Bytes()) {
		t.Errorf("live body is not the indented encoding of the result struct:\n got %s\nwant %s", live, fromStruct.Bytes())
	}

	pusher := submitOK(t, ts1.URL, JobSpec{Bench: "adpredictor"})
	waitState(t, ts1.URL, pusher.ID, 60*time.Second, StateDone)
	waitCond(t, "first job evicted from the registry", func() bool { return s1.lookup(job.ID) == nil })
	evicted := fetchResultBody(t, ts1.URL, job.ID)
	if !bytes.Equal(live, evicted) {
		t.Errorf("evicted body differs from the live one:\nlive    %s\nevicted %s", live, evicted)
	}
	code, body := getJSON(t, ts1.URL+"/v1/jobs/"+job.ID)
	var st JobStatus
	if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st != res.JobStatus {
		t.Errorf("evicted status: %d %s (err %v), want the status the result embeds: %+v", code, body, err, res.JobStatus)
	}

	if _, err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 4, DataDir: dir})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if restarted := fetchResultBody(t, ts2.URL, job.ID); !bytes.Equal(live, restarted) {
		t.Errorf("body after a restart differs from the live one:\nlive      %s\nrestarted %s", live, restarted)
	}

	// A stored document whose frame no longer checks out reads as absent and
	// is counted. The index holds the frame's position, not the document,
	// so the corruption is a byte flipped in the segment file.
	doc := []byte(`{"id":"bad-000001","state":"done"}`)
	if err := s2.store.Append(store.Record{Op: store.OpResult, ID: "bad-000001", State: "done", Data: doc}); err != nil {
		t.Fatal(err)
	}
	if code, _ := getJSON(t, ts2.URL+"/v1/jobs/bad-000001/result"); code != http.StatusOK {
		t.Fatalf("intact hand-written result: got %d, want 200", code)
	}
	flipStoredByte(t, filepath.Join(dir, "store"), doc)
	before := s2.rec.Counter(telemetry.CounterStoreSkippedCorrupt)
	for _, path := range []string{"/v1/jobs/bad-000001/result", "/v1/jobs/bad-000001"} {
		if code, body := getJSON(t, ts2.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s on a corrupt stored result: got %d %s, want 404", path, code, body)
		}
	}
	s2.syncStoreCounters() // what GET /metrics does before it reports
	if got := s2.rec.Counter(telemetry.CounterStoreSkippedCorrupt) - before; got != 2 {
		t.Errorf("store.skipped_corrupt rose by %d over two reads of a corrupt result, want 2", got)
	}
	if restarted := fetchResultBody(t, ts2.URL, job.ID); !bytes.Equal(live, restarted) {
		t.Errorf("a corrupt neighbour changed what an intact job reads:\nlive  %s\nafter %s", live, restarted)
	}
}

// flipStoredByte flips one byte of the last occurrence of doc in the newest
// WAL segment under storeDir: on-disk corruption of a frame the index
// already points at.
func flipStoredByte(t *testing.T, storeDir string, doc []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment under %s (err %v)", storeDir, err)
	}
	sort.Strings(segs)
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(data, doc)
	if at < 0 {
		t.Fatalf("%s does not hold %s", seg, doc)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{data[at] ^ 0xff}, int64(at)); err != nil {
		t.Fatal(err)
	}
}

// TestUnencodableResultFailsTheJob: the result is encoded inside the
// terminal transition, so a result JSON cannot carry (a NaN speedup) must
// still leave a terminal job with a readable document — failed, with the
// reason — rather than a finished job whose result never appears.
func TestUnencodableResultFailsTheJob(t *testing.T) {
	job := &Job{ID: "j-nan", Spec: JobSpec{Bench: "nbody"}, submitted: time.Now(), state: StateQueued}
	job.markRunning(func() {})
	job.terminate(&outcome{state: StateDone, results: []experiments.DesignResult{
		{Design: &core.Design{Name: "d"}, Speedup: math.NaN()},
	}}, false)
	var res JobResult
	if err := json.Unmarshal(job.Result(), &res); err != nil {
		t.Fatalf("terminal document %q: %v", job.Result(), err)
	}
	if st := job.Status(); st.State != StateFailed || res.JobStatus != st || res.FailureClass != FailureError ||
		!strings.Contains(st.Error, "encode result") {
		t.Errorf("job ended %+v with document %+v, want failed with the encoding error in both", st, res)
	}
}

// TestWaitResult: a reader of a live job's result is held until the
// terminal transition or the hold, whichever is first, and the transition
// leaves no channel behind on the finished job.
func TestWaitResult(t *testing.T) {
	job := &Job{ID: "j-wait", Spec: JobSpec{Bench: "nbody"}, submitted: time.Now(), state: StateQueued}
	if doc := job.waitResult(10 * time.Millisecond); doc != nil {
		t.Fatalf("a live job's result after the hold: %q, want nil", doc)
	}

	got := make(chan []byte, 2)
	for i := 0; i < cap(got); i++ {
		go func() { got <- job.waitResult(time.Minute) }()
	}
	// Long enough for the readers to park; one that arrives after the
	// transition instead must read the same bytes.
	time.Sleep(20 * time.Millisecond)
	job.markRunning(func() {})
	job.terminate(&outcome{state: StateDone}, false)
	for i := 0; i < cap(got); i++ {
		select {
		case doc := <-got:
			if !bytes.Equal(doc, job.Result()) || len(doc) == 0 {
				t.Errorf("held reader got %q, want the job's result %q", doc, job.Result())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a held reader was not woken by the terminal transition")
		}
	}
	if job.done != nil {
		t.Error("finished job still holds its wait channel")
	}
	if doc := job.waitResult(time.Minute); !bytes.Equal(doc, job.Result()) {
		t.Errorf("a finished job's result: %q, want %q at once", doc, job.Result())
	}
}

// TestResultHeldUntilJobFinishes: GET /result on a running job does not
// answer "not yet"; it answers with the result as soon as there is one.
func TestResultHeldUntilJobFinishes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	h.waitStarted(t)

	type reply struct {
		code int
		body []byte
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			got <- reply{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		got <- reply{resp.StatusCode, buf.Bytes()}
	}()
	select {
	case r := <-got:
		t.Fatalf("GET result of a running job answered at once: %d %s", r.code, r.body)
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	select {
	case r := <-got:
		if r.code != http.StatusOK || !bytes.Equal(r.body, fetchResultBody(t, ts.URL, st.ID)) {
			t.Errorf("held GET result: %d %s, want 200 and the body a later GET reads", r.code, r.body)
		}
	case <-time.After(10 * time.Second): // a hold that merely ran out reads 409 above
		t.Fatal("held GET result was never answered")
	}
}

// runToDone submits spec and waits for the job, which must end done.
func runToDone(t *testing.T, s *Server, base string, spec JobSpec) *Job {
	t.Helper()
	job := s.lookup(submitOK(t, base, spec).ID)
	deadline := time.Now().Add(60 * time.Second)
	for !job.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", job.ID, job.State())
		}
		time.Sleep(time.Millisecond)
	}
	if st := job.Status(); st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", job.ID, st.State, st.Error)
	}
	return job
}

// liveHeap is the heap in use after everything collectable has gone.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle's finalizers and pooled buffers go in the second
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetainedJobFootprint is the retention gate: a finished job costs the
// daemon its result bytes plus its events, not the structures they were
// made from. 300 hot jobs on the bundled adpredictor program, all within
// the registry's retention window, may grow the live heap by at most 32 KB
// each (measured ≈ 150 KB when a job kept its result struct, telemetry
// report and a pre-sized 1024-slot event ring; ≈ 28 KB when the store index
// held a second reference to the document and every ring frame its event
// beside the event's encoding; ≈ 22 KB now: ≈ 12 KB of result document,
// ≈ 9 KB of event lines — 60 frames of 48 bytes and a ≈ 90-byte line, cut
// from 2 KB slab chunks whose last one's unused tail the job keeps — and
// under 1 KB of Job, broker and index entry).
func TestRetainedJobFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 340 real flows; skipped in -short mode")
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, DataDir: t.TempDir()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	run := func(spec JobSpec) *Job {
		t.Helper()
		return runToDone(t, s, ts.URL, spec)
	}

	const warmup, measured = 40, 300
	for i := 0; i < warmup; i++ {
		run(JobSpec{Bench: "adpredictor"})
	}
	before := liveHeap()
	for i := 0; i < measured; i++ {
		run(JobSpec{Bench: "adpredictor"})
	}
	after := liveHeap()
	perJob := (float64(after) - float64(before)) / measured / 1024
	t.Logf("live heap %.1f -> %.1f MB over %d retained jobs: %.1f KB per job",
		float64(before)/(1<<20), float64(after)/(1<<20), measured, perJob)
	if perJob > 32 {
		t.Errorf("a retained job costs %.1f KB of live heap, want <= 32 KB", perJob)
	}

	// The structural facts behind the number, on a job that arrived with
	// its own source (so there was a parsed program to release).
	b, err := bench.ByName("adpredictor")
	if err != nil {
		t.Fatal(err)
	}
	job := run(JobSpec{Bench: "adpredictor", Source: b.Source})
	job.mu.Lock()
	defer job.mu.Unlock()
	if len(job.result) == 0 || !json.Valid(job.result) {
		t.Errorf("finished job holds no encoded result: %q", job.result)
	}
	heavy := map[reflect.Type]bool{
		reflect.TypeOf((*minic.Program)(nil)):    true,
		reflect.TypeOf((*JobResult)(nil)):        true,
		reflect.TypeOf((*telemetry.Report)(nil)): true,
	}
	v := reflect.ValueOf(job).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); heavy[f.Type()] && !f.IsNil() {
			t.Errorf("finished job still holds its %s (%s)", v.Type().Field(i).Name, f.Type())
		}
	}
	ring := reflect.ValueOf(job.events).Elem().FieldByName("buf")
	if ring.Len() == 0 || ring.Cap() > 2*ring.Len() {
		t.Errorf("event ring of a finished job: len %d cap %d, want 0 < cap <= 2*len", ring.Len(), ring.Cap())
	}
}

// TestEvictedJobFootprint is the retention gate's other half: a job the
// registry has let go costs the daemon a position in the store index — its
// ID, its submit time, where its terminal frame lies — and none of its
// document, which is on disk and still reads byte for byte. 2 000 hot jobs
// through a registry that retains 8 may grow the live heap by at most 512
// bytes each (≈ 12 KB when the index held every document ever stored).
func TestEvictedJobFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 040 real flows; skipped in -short mode")
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, RetainJobs: 8, DataDir: t.TempDir()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	const warmup, measured = 40, 2000
	for i := 0; i < warmup; i++ {
		runToDone(t, s, ts.URL, JobSpec{Bench: "adpredictor"})
	}
	first := runToDone(t, s, ts.URL, JobSpec{Bench: "adpredictor"})
	live := fetchResultBody(t, ts.URL, first.ID)
	before := liveHeap()
	for i := 0; i < measured; i++ {
		runToDone(t, s, ts.URL, JobSpec{Bench: "adpredictor"})
	}
	after := liveHeap()
	perJob := (float64(after) - float64(before)) / measured
	t.Logf("live heap %.2f -> %.2f MB over %d evicted jobs: %.0f bytes per job",
		float64(before)/(1<<20), float64(after)/(1<<20), measured, perJob)
	if perJob > 512 {
		t.Errorf("an evicted job costs %.0f bytes of live heap, want <= 512", perJob)
	}
	if s.lookup(first.ID) != nil {
		t.Fatalf("job %s is still in a registry that retains 8 jobs, %d jobs later", first.ID, measured)
	}
	if evicted := fetchResultBody(t, ts.URL, first.ID); !bytes.Equal(live, evicted) {
		t.Errorf("evicted body differs from the one read while the job was live:\nlive    %s\nevicted %s", live, evicted)
	}
}
