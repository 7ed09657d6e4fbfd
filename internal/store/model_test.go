package store

// The positional index against a reference that keeps documents: whatever
// sequence of appends, compactions, restarts and torn tails a store goes
// through, Get returns byte for byte what was appended or reports absent,
// and the directory it leaves decodes, with nothing but the frame format,
// to the same state.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// refJob is the reference's view of one job: the record that last decided
// it, and where in the log that record was (submission order).
type refJob struct {
	terminal bool
	state    string
	time     string
	data     []byte // the record's Data: a spec while pending, the document once terminal
	at       int
}

// refReplay folds records the way the store documents it: a submit never
// resurrects a terminal job, a terminal record always wins, an evict
// forgets, anything else decides nothing.
func refReplay(log []Record) map[string]refJob {
	m := map[string]refJob{}
	for i, rec := range log {
		switch rec.Op {
		case OpSubmit:
			if m[rec.ID].terminal {
				continue
			}
			m[rec.ID] = refJob{time: rec.Time, data: rec.Data, at: i}
		case OpResult, OpCancel:
			j := refJob{terminal: true, state: rec.State, time: rec.Time, data: rec.Data, at: i}
			if old, ok := m[rec.ID]; ok {
				j.time = old.time // the submit's timestamp stays
			}
			if rec.Op == OpCancel && j.state == "" {
				j.state = "cancelled"
			}
			m[rec.ID] = j
		case OpEvict:
			delete(m, rec.ID)
		}
	}
	return m
}

// decodeDir reads a store directory with nothing but the documented layout
// and frame format — the newest snapshot, then every segment above it,
// each frame [len][crc][payload] until the first one that does not check
// out — which is all an older build's replay relies on.
func decodeDir(t *testing.T, dir string) []Record {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	type file struct {
		seq  uint64
		snap bool
		name string
	}
	var files []file
	var base uint64
	for _, de := range ents {
		seq, snap, ok := parseSegmentName(de.Name())
		if !ok {
			continue
		}
		files = append(files, file{seq, snap, de.Name()})
		if snap && seq > base {
			base = seq
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].seq != files[j].seq {
			return files[i].seq < files[j].seq
		}
		return files[i].snap
	})
	var out []Record
	for _, f := range files {
		if f.seq < base || (f.seq == base && !f.snap) {
			continue // covered by the snapshot
		}
		data, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= frameHeader {
			n := int(binary.LittleEndian.Uint32(data[0:4]))
			if n == 0 || n > len(data)-frameHeader {
				break
			}
			payload := data[frameHeader : frameHeader+n]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
				break
			}
			var rec Record
			if err := json.Unmarshal(payload, &rec); err == nil {
				out = append(out, rec)
			}
			data = data[frameHeader+n:]
		}
	}
	return out
}

// checkAgainst compares what the store answers — Get on each of ids,
// Pending, Stats — with the reference.
func checkAgainst(t *testing.T, s *Store, ref map[string]refJob, ids []string, where string) {
	t.Helper()
	var wantPending []string
	for id, j := range ref {
		if !j.terminal {
			wantPending = append(wantPending, id)
		}
	}
	for _, id := range ids {
		want, known := ref[id]
		got, ok := s.Get(id)
		if ok != known {
			t.Fatalf("%s: Get(%s) present=%v, reference says %v", where, id, ok, known)
		}
		if !known {
			continue
		}
		if !want.terminal {
			if got.Phase != PhaseQueued || !bytes.Equal(got.Spec, want.data) || got.Submitted != want.time || got.Result != nil {
				t.Fatalf("%s: Get(%s) = %+v, want pending with spec %s submitted %q", where, id, got, want.data, want.time)
			}
			continue
		}
		if got.Phase != PhaseTerminal || got.State != want.state || got.Spec != nil {
			t.Fatalf("%s: Get(%s) = phase %v state %q, want terminal %q", where, id, got.Phase, got.State, want.state)
		}
		if !bytes.Equal(got.Result, want.data) {
			t.Fatalf("%s: Get(%s) returned %d bytes %.60q, want the %d appended %.60q", where, id, len(got.Result), got.Result, len(want.data), want.data)
		}
	}
	sort.Slice(wantPending, func(i, j int) bool { return ref[wantPending[i]].at < ref[wantPending[j]].at })
	var gotPending []string
	for _, e := range s.Pending() {
		gotPending = append(gotPending, e.ID)
		if !bytes.Equal(e.Spec, ref[e.ID].data) {
			t.Fatalf("%s: Pending carries spec %s for %s, want %s", where, e.Spec, e.ID, ref[e.ID].data)
		}
	}
	if strings.Join(gotPending, " ") != strings.Join(wantPending, " ") {
		t.Fatalf("%s: Pending = %v, want %v (submission order)", where, gotPending, wantPending)
	}
	st := s.Stats()
	if st.IndexedJobs != len(ref) || st.PendingJobs != len(wantPending) || st.LiveFrames != int64(len(ref)) || st.DeadFrames < 0 {
		t.Fatalf("%s: stats %+v, want %d indexed, %d pending, as many live frames as jobs", where, st, len(ref), len(wantPending))
	}
	checkPendingCount(t, s, where)
	if st.SkippedCorrupt != 0 {
		t.Fatalf("%s: %d reads or records skipped as corrupt in a store nobody damaged", where, st.SkippedCorrupt)
	}
}

// checkPendingCount: the maintained count equals a recount of the index.
func checkPendingCount(t *testing.T, s *Store, where string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.index {
		if e.Phase != PhaseTerminal {
			n++
		}
	}
	if n != s.pending {
		t.Fatalf("%s: pending count %d, the index holds %d pending entries", where, s.pending, n)
	}
}

func TestStoreModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := Options{NoSync: true, CompactMinDead: -1}
			s := mustOpen(t, dir, opts)
			ids := make([]string, 16)
			for i := range ids {
				ids[i] = fmt.Sprintf("job-%02d", i)
			}
			var log []Record
			// Compact JSON, as every caller stores: it comes back byte for
			// byte. One document in forty-eight outgrows the segment's write
			// buffer.
			doc := func(id string, step int) json.RawMessage {
				pad := rng.Intn(2000)
				if rng.Intn(48) == 0 {
					pad = 70<<10 + rng.Intn(4096)
				}
				return json.RawMessage(fmt.Sprintf(`{"id":%q,"step":%d,"pad":%q}`, id, step, strings.Repeat("x", pad)))
			}
			counts := map[string]int{}
			const steps = 300
			for step := 0; step < steps; step++ {
				id := ids[rng.Intn(len(ids))]
				var rec Record
				what := ""
				switch r := rng.Intn(100); {
				case r < 30:
					what = "submit"
					rec = Record{Op: OpSubmit, ID: id, Time: fmt.Sprintf("t%d", step), Data: doc(id, step)}
				case r < 60:
					what = "result"
					rec = Record{Op: OpResult, ID: id, State: "done", Time: fmt.Sprintf("t%d", step), Data: doc(id, step)}
				case r < 68:
					what = "cancel"
					rec = Record{Op: OpCancel, ID: id, Data: doc(id, step)}
				case r < 80:
					what = "evict"
					rec = Record{Op: OpEvict, ID: id}
				case r < 90:
					what = "compact"
					if err := s.CompactNow(); err != nil {
						t.Fatalf("step %d: compact: %v", step, err)
					}
				default:
					what = "reopen"
					if err := s.Close(); err != nil {
						t.Fatalf("step %d: close: %v", step, err)
					}
					wantTorn := int64(0)
					seg := activeSegment(t, dir)
					fi, err := os.Stat(seg)
					if err != nil {
						t.Fatal(err)
					}
					switch tear := rng.Intn(3); {
					case tear == 1 && fi.Size() > 0:
						// The last acknowledged record loses its last
						// bytes: it is the last frame of the newest
						// segment, and it un-happens.
						what = "reopen-torn-record"
						if err := os.Truncate(seg, fi.Size()-1-int64(rng.Intn(4))); err != nil {
							t.Fatal(err)
						}
						log = log[:len(log)-1]
						wantTorn = 1
					case tear == 2:
						// A record that was never acknowledged: half a frame.
						what = "reopen-torn-garbage"
						half := frameBytes([]byte(`{"op":"result","id":"job-00","state":"done","data":{}}`))
						f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
						if err != nil {
							t.Fatal(err)
						}
						f.Write(half[:len(half)-7])
						f.Close()
						wantTorn = 1
					}
					// What this build left on disk is what any build reads.
					if got, want := refReplay(decodeDir(t, dir)), refReplay(log); !sameRef(got, want) {
						t.Fatalf("step %d: the directory decodes to %v, the appended log to %v", step, got, want)
					}
					s = mustOpen(t, dir, opts)
					if st := s.Stats(); st.TornTails != wantTorn {
						t.Fatalf("step %d (%s): torn_tails %d, want %d", step, what, st.TornTails, wantTorn)
					}
				}
				if rec.Op != "" {
					if err := s.Append(rec); err != nil {
						t.Fatalf("step %d: append %s/%s: %v", step, rec.Op, rec.ID, err)
					}
					log = append(log, rec)
				}
				counts[what]++
				// Every job after anything that moves positions, and every
				// eighth step; the job the step touched otherwise.
				look := ids
				if rec.Op != "" && step%8 != 0 {
					look = []string{id}
				}
				checkAgainst(t, s, refReplay(log), look, fmt.Sprintf("seed %d step %d (%s %s)", seed, step, what, id))
			}
			// Entries is the same view, documents included, in append order.
			ref := refReplay(log)
			ents := s.Entries()
			if len(ents) != len(ref) {
				t.Fatalf("Entries returned %d records, want %d", len(ents), len(ref))
			}
			for i, e := range ents {
				want := ref[e.ID]
				if got := append(e.Result, e.Spec...); !bytes.Equal(got, want.data) {
					t.Errorf("Entries[%d] %s carries %.60q, want %.60q", i, e.ID, got, want.data)
				}
				if i > 0 && ents[i-1].Seq >= e.Seq {
					t.Errorf("Entries out of append order at %d", i)
				}
			}
			t.Logf("seed %d: %v, %d jobs left", seed, counts, len(ref))
		})
	}
}

func sameRef(a, b map[string]refJob) bool {
	if len(a) != len(b) {
		return false
	}
	for id, x := range a {
		y, ok := b[id]
		if !ok || x.terminal != y.terminal || x.state != y.state || !bytes.Equal(x.data, y.data) {
			return false
		}
	}
	return true
}

// TestGetAndAppendRaceCompaction: readers, a writer and a compaction loop
// on one store. A reader never sees a short read or another job's
// document — a Get that loses the race with a position swap reads the old
// file through the handle it opened before the unlink — and every job that
// was ever terminal stays readable.
func TestGetAndAppendRaceCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{NoSync: true, CompactMinDead: -1})
	const jobs = 24
	id := func(i int) string { return fmt.Sprintf("job-%02d", i) }
	doc := func(i, v int) []byte {
		return []byte(fmt.Sprintf(`{"id":%q,"v":%d,"pad":%q}`, id(i), v, strings.Repeat(string(rune('a'+i)), 500+37*i+v%50)))
	}
	for i := 0; i < jobs; i++ {
		if err := s.Append(Record{Op: OpResult, ID: id(i), State: "done", Data: doc(i, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: every job's document keeps being superseded
		defer wg.Done()
		for v := 1; !stop.Load(); v++ {
			i := v % jobs
			if err := s.Append(Record{Op: OpResult, ID: id(i), State: "done", Data: doc(i, v)}); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			// And a pending job comes and goes beside them.
			if err := s.Append(Record{Op: OpSubmit, ID: "pending", Data: raw(`{}`)}); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				i := rng.Intn(jobs)
				e, ok := s.Get(id(i))
				if !ok {
					t.Errorf("Get(%s) reported absent", id(i))
					return
				}
				var got struct {
					ID string
					V  int
				}
				if err := json.Unmarshal(e.Result, &got); err != nil || got.ID != id(i) || !bytes.Equal(e.Result, doc(i, got.V)) {
					t.Errorf("Get(%s) returned %.80q (err %v): not a document of that job", id(i), e.Result, err)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	for c := 0; c < 40; c++ {
		if err := s.CompactNow(); err != nil {
			t.Fatalf("compaction %d: %v", c, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	st := s.Stats()
	if st.SkippedCorrupt != 0 || st.Compactions != 40 {
		t.Errorf("stats after the race: %+v, want 40 compactions and nothing unreadable", st)
	}
	checkPendingCount(t, s, "after the race")
	t.Logf("%d reads against %d appends and %d compactions", reads.Load(), st.Appends, st.Compactions)
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Errorf("%d files left after the last compaction, want the snapshot and the active segment", len(ents))
	}
}

// TestCorruptFrameOnDiskReadsAbsent: the index points at bytes it does not
// hold, so a byte flipped in the file under it must cost that one job its
// document — absent, counted once per read, no panic — and nobody else
// theirs; the next compaction leaves the frame out as a replay would.
func TestCorruptFrameOnDiskReadsAbsent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactMinDead: -1})
	for _, id := range []string{"job-a", "job-b", "job-c"} {
		lifecycle(t, s, id)
	}
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(data, []byte(`"id":"job-b"`)) // inside job-b's result document
	if at < 0 {
		t.Fatalf("segment does not hold job-b's result: %q", data)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{data[at+3] ^ 0xff}, int64(at+3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for read := int64(1); read <= 3; read++ {
		if e, ok := s.Get("job-b"); ok {
			t.Fatalf("Get of a job whose frame is corrupt on disk: %+v, want absent", e)
		}
		if st := s.Stats(); st.SkippedCorrupt != read {
			t.Errorf("skipped_corrupt = %d after %d reads of the corrupt frame, want one per read", st.SkippedCorrupt, read)
		}
	}
	for _, id := range []string{"job-a", "job-c"} {
		if e, ok := s.Get(id); !ok || string(e.Result) != fmt.Sprintf(`{"id":%q,"state":"done"}`, id) {
			t.Errorf("%s lost to a neighbour's corruption: %+v ok=%v", id, e, ok)
		}
	}
	if got := len(s.Entries()); got != 2 {
		t.Errorf("Entries returned %d records, want the two readable ones", got)
	}
	before := s.Stats()
	if err := s.CompactNow(); err != nil {
		t.Fatalf("compaction over a corrupt frame: %v", err)
	}
	st := s.Stats()
	if st.IndexedJobs != 2 || st.LiveFrames != 2 || st.DeadFrames != 0 || st.SkippedCorrupt != before.SkippedCorrupt+1 {
		t.Errorf("after compaction: %+v, want job-b dropped and counted once more (before: %+v)", st, before)
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	if st := r.Stats(); st.IndexedJobs != 2 || st.SkippedCorrupt != 0 || st.TornTails != 0 {
		t.Errorf("reopen after the compaction: %+v, want two jobs and a clean log", st)
	}
	if e, ok := r.Get("job-c"); !ok || string(e.Result) != `{"id":"job-c","state":"done"}` {
		t.Errorf("job-c after compaction and reopen: %+v ok=%v", e, ok)
	}
}

// TestParentWrittenStoreOpens: testdata/parent-store was written by the
// build before the index became positional (31 records, a compaction, 12
// more: superseded results, a cancel, evictions, pending submits, a
// shutdown marker), and parent-store.want.json is what that build's Get
// and Pending answered for it. The format did not change, so this build
// answers the same — at open, after compacting it, and after reopening
// what it compacted.
func TestParentWrittenStoreOpens(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent-store.want.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		ID, Phase, State, Submitted, Spec, Result string
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // opening a store writes to its directory
	files, err := filepath.Glob("testdata/parent-store/*.log")
	if err != nil || len(files) < 2 {
		t.Fatalf("fixture files: %v (err %v), want a snapshot and a segment", files, err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, where string) {
		t.Helper()
		var pending []string
		for _, w := range want {
			e, ok := s.Get(w.ID)
			phase := "terminal"
			if e.Phase == PhaseQueued {
				phase = "queued"
			}
			if w.Phase == "queued" {
				pending = append(pending, w.ID)
			}
			if !ok || phase != w.Phase || e.State != w.State || e.Submitted != w.Submitted || string(e.Spec) != w.Spec || string(e.Result) != w.Result {
				t.Errorf("%s: Get(%s) = %+v ok=%v, the parent build answered %+v", where, w.ID, e, ok, w)
			}
		}
		var got []string
		for _, e := range s.Pending() {
			got = append(got, e.ID)
		}
		if strings.Join(got, " ") != strings.Join(pending, " ") || len(pending) == 0 {
			t.Errorf("%s: Pending = %v, want %v", where, got, pending)
		}
		if st := s.Stats(); st.IndexedJobs != len(want) || st.SkippedCorrupt != 0 || st.TornTails != 0 {
			t.Errorf("%s: stats %+v, want %d jobs and no damage", where, st, len(want))
		}
		for _, gone := range []string{"job-05", "job-07"} {
			if _, ok := s.Get(gone); ok {
				t.Errorf("%s: evicted %s is back", where, gone)
			}
		}
	}
	s := mustOpen(t, dir, Options{CompactMinDead: -1})
	if !s.CleanShutdown() {
		t.Error("the fixture ends in a shutdown record and does not read as a clean shutdown")
	}
	check(s, "at open")
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	check(s, "after compaction")
	s.Close()
	check(mustOpen(t, dir, Options{CompactMinDead: -1}), "after compaction and reopen")
}
