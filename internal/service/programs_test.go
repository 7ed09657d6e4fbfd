package service

import (
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/experiments"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// variant is b's source plus one function no run calls: a distinct text
// with b's entry, hotspot and designs.
func variant(b *bench.Benchmark, k int) string {
	return fmt.Sprintf("%s\nint table_variant_%d(int x) { return x + %d; }\n", b.Source, k, k)
}

func nbody(t *testing.T) *bench.Benchmark {
	t.Helper()
	b, err := bench.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// keptCount is how many programs tab keeps.
func keptCount(tab *programTable) int {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return len(tab.kept)
}

// TestProgramTableKeepsOnSecondSighting: a source is parsed for the job
// alone the first time, kept the second, and handed out kept from then
// on, the same AST each time.
func TestProgramTableKeepsOnSecondSighting(t *testing.T) {
	tab := newProgramTable()
	src := nbody(t).Source
	first, err := tab.lookup(src)
	if err != nil {
		t.Fatal(err)
	}
	if first.kept || first.fp != 0 || keptCount(tab) != 0 {
		t.Fatalf("first sighting kept: %+v, table keeps %d", first, keptCount(tab))
	}
	second, _ := tab.lookup(src)
	third, _ := tab.lookup(src)
	if !second.kept || !third.kept || third.ast != second.ast || second.ast == first.ast {
		t.Fatalf("second sighting kept=%v, third kept=%v, third shares the second's AST: %v",
			second.kept, third.kept, third.ast == second.ast)
	}
	if third.fp != minic.Fingerprint(first.ast) || third.refLOC != minic.CountLOC(minic.Print(first.ast)) {
		t.Errorf("kept fingerprint %x / RefLOC %d, want the parse's %x / %d",
			third.fp, third.refLOC, minic.Fingerprint(first.ast), minic.CountLOC(minic.Print(first.ast)))
	}
}

// TestProgramTableUnrepeatedSourcesNotKept: sources submitted once each are
// never kept; what the table holds of them is their hashes alone.
func TestProgramTableUnrepeatedSourcesNotKept(t *testing.T) {
	tab := newProgramTable()
	b := nbody(t)
	slots := map[uint64]bool{}
	for k := range 3 * keptPrograms {
		src := variant(b, k)
		if p, err := tab.lookup(src); err != nil || p.kept {
			t.Fatalf("variant %d: kept=%v err=%v", k, p.kept, err)
		}
		slots[(maphash.String(tab.seed, src)|1)%sightingSlots] = true
	}
	if n := keptCount(tab); n != 0 {
		t.Errorf("the table keeps %d programs after sources it saw once each", n)
	}
	used := 0
	for _, h := range tab.seen {
		if h != 0 {
			used++
		}
	}
	if used != len(slots) {
		t.Errorf("%d sighting slots hold a hash, want the %d the sources hash to", used, len(slots))
	}
}

// TestProgramTableHitAllocations: the third submission of nbody's source
// is a table hit, which allocates at least 500 times less than the
// first, a parse.
func TestProgramTableHitAllocations(t *testing.T) {
	src := nbody(t).Source
	tabs := make([]*programTable, 11)
	for i := range tabs {
		tabs[i] = newProgramTable()
	}
	i := 0
	first := testing.AllocsPerRun(10, func() {
		if _, err := tabs[i].lookup(src); err != nil {
			t.Fatal(err)
		}
		i++
	})
	tab := newProgramTable()
	tab.lookup(src)
	tab.lookup(src)
	third := testing.AllocsPerRun(100, func() {
		if p, _ := tab.lookup(src); !p.kept {
			t.Fatal("the third sighting was not a hit")
		}
	})
	t.Logf("first submission %.0f allocations, third %.0f", first, third)
	if first < 500 || third*500 > first {
		t.Errorf("first submission %.0f allocations, third %.0f: want the third 500 times fewer", first, third)
	}
}

// TestProgramTableCap: with more distinct sources than the cap each seen
// twice, the table keeps the cap's worth, the most recently used.
func TestProgramTableCap(t *testing.T) {
	tab := newProgramTable()
	b := nbody(t)
	n := keptPrograms + 10
	for k := range n {
		for range 2 {
			if _, err := tab.lookup(variant(b, k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := keptCount(tab); got != keptPrograms {
		t.Fatalf("the table keeps %d programs, want its cap %d", got, keptPrograms)
	}
	for k := range n {
		_, kept := tab.kept[variant(b, k)]
		if want := k >= n-keptPrograms; kept != want {
			t.Errorf("variant %d kept=%v, want %v (least recently used goes first)", k, kept, want)
		}
	}
}

// TestProgramTableSkipsErrorsAndLongSources: a source that fails to parse
// is never kept however often it comes, and neither is one over
// keptSourceMax.
func TestProgramTableSkipsErrorsAndLongSources(t *testing.T) {
	tab := newProgramTable()
	for range 3 {
		if _, err := tab.lookup("int f( {"); err == nil {
			t.Fatal("a malformed source parsed")
		}
	}
	long := variant(nbody(t), 0) + "// " + strings.Repeat("x", keptSourceMax) + "\n"
	for range 3 {
		if p, err := tab.lookup(long); err != nil || p.kept {
			t.Fatalf("a source over keptSourceMax: kept=%v err=%v", p.kept, err)
		}
	}
	if n := keptCount(tab); n != 0 {
		t.Errorf("the table keeps %d programs", n)
	}
}

// TestKeptSourceMissingEntryRejected: a kept program is still checked for
// the entry function of the bench each submission names.
func TestKeptSourceMissingEntryRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8})
	s.runFlow = func(context.Context, *Job, *telemetry.Recorder) ([]experiments.DesignResult, error) { return nil, nil }
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain() })
	src := nbody(t).Source
	for range 2 {
		submitOK(t, ts.URL, JobSpec{Bench: "nbody", Source: src})
	}
	if _, ok := s.programs.kept[src]; !ok {
		t.Fatal("nbody's source is not kept after two submissions")
	}
	code, body := submit(t, ts.URL, JobSpec{Bench: "kmeans", Source: src})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "does not define") {
		t.Errorf("kept nbody source under bench kmeans: got %d %s, want 400 naming the entry", code, body)
	}
}

// progRecorder is a runFlow stand-in that records the program each job
// ran on.
type progRecorder struct {
	mu    sync.Mutex
	progs map[string]program // job ID → program
}

func (r *progRecorder) run(_ context.Context, job *Job, _ *telemetry.Recorder) ([]experiments.DesignResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progs[job.ID] = job.prog
	return nil, nil
}

// TestReplayedJobsHitProgramTable: jobs replayed from the WAL look their
// source up like submissions: the second replayed copy keeps it and the
// third gets the kept program.
func TestReplayedJobsHitProgramTable(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{DataDir: dir})
	if err := s1.openStore(); err != nil {
		t.Fatal(err)
	}
	src := variant(nbody(t), 1)
	var ids []string
	for p := range 3 {
		ids = append(ids, submitDirect(t, s1, JobSpec{Bench: "nbody", Source: src, Priority: p}).ID)
	}
	if err := s1.store.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{DataDir: dir})
	if err := s2.openStore(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.store.Close() })
	if n := s2.replayStore(); n != 3 {
		t.Fatalf("replayed %d jobs, want 3", n)
	}
	j1, j2, j3 := s2.lookup(ids[0]), s2.lookup(ids[1]), s2.lookup(ids[2])
	if j1.prog.kept || !j2.prog.kept || !j3.prog.kept || j3.prog.ast != j2.prog.ast {
		t.Errorf("replayed jobs kept %v %v %v, the third on the second's program: %v",
			j1.prog.kept, j2.prog.kept, j3.prog.kept, j3.prog.ast == j2.prog.ast)
	}
	if j3.fingerprint() != minic.Fingerprint(j1.prog.ast) {
		t.Error("the kept program's fingerprint is not the parse's")
	}
}

// TestForwardedSubmitsHitProgramTable: a cluster submit forwarded to its
// owner is looked up in the owner's table: the owner runs the third
// forwarded copy on the program it kept at the second.
func TestForwardedSubmitsHitProgramTable(t *testing.T) {
	tc := newTestCluster(t, 2)
	owner := tc.servers[1]
	rec := &progRecorder{progs: map[string]program{}}
	owner.runFlow = rec.run
	src := variant(nbody(t), 2)
	spec := JobSpec{Bench: "nbody", Source: src}
	spec.Tenant = tenantForOwner(t, tc.nodes, spec, "cb")
	var ids []string
	for p := range 3 {
		spec.Priority = p
		st := submitOK(t, tc.bases[0], spec)
		if !strings.HasPrefix(st.ID, "cb-") {
			t.Fatalf("job %s was not forwarded to cb", st.ID)
		}
		waitState(t, tc.bases[1], st.ID, 10*time.Second, StateDone)
		ids = append(ids, st.ID)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	p1, p2, p3 := rec.progs[ids[0]], rec.progs[ids[1]], rec.progs[ids[2]]
	if p1.kept || !p2.kept || !p3.kept || p3.ast != p2.ast {
		t.Errorf("forwarded jobs ran kept=%v %v %v, the third on the second's program: %v",
			p1.kept, p2.kept, p3.kept, p3.ast == p2.ast)
	}
}

// TestKeptProgramSharedByConcurrentJobs runs jobs on one kept program on
// two workers at once (meant for -race): every job's designs equal those
// of a flow on a parse of its own, and the kept program is as parsed.
func TestKeptProgramSharedByConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("flow runs")
	}
	b := nbody(t)
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 16})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain() })
	kept := func() program {
		p, err := s.programs.lookup(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	kept()
	prog := kept()
	before := minic.Print(prog.ast)

	specs := []JobSpec{
		{Bench: b.Name, Source: b.Source},
		{Bench: b.Name, Source: b.Source, Sharing: true},
		{Bench: b.Name, Source: b.Source, Priority: 1},
		{Bench: b.Name, Source: b.Source, Sharing: true, Priority: 1},
	}
	var ids []string
	for _, spec := range specs {
		ids = append(ids, submitOK(t, ts.URL, spec).ID)
	}
	for i, id := range ids {
		waitState(t, ts.URL, id, 2*time.Minute, StateDone)
		res := jobResult(t, ts.URL, id)
		if len(res.Designs) == 0 {
			t.Fatalf("job %d has no designs", i)
		}
		want, err := experiments.RunBenchmarkEnv(context.Background(), b, nil,
			tasks.FlowOptions{Mode: tasks.Informed, Strategy: tasks.DefaultStrategy, ResourceSharing: specs[i].Sharing},
			experiments.JobEnv{}, nil, nil, s.runs)
		if err != nil {
			t.Fatal(err)
		}
		if wantDesigns := buildResult(JobStatus{}, &outcome{results: want}).Designs; !reflect.DeepEqual(res.Designs, wantDesigns) {
			t.Errorf("job %d on the kept program:\n got %+v\nwant %+v", i, res.Designs, wantDesigns)
		}
	}
	if minic.Print(prog.ast) != before || minic.Fingerprint(prog.ast) != prog.fp {
		t.Error("running jobs on the kept program wrote it")
	}
}
