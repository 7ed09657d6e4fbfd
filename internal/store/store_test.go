package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() {
		// Close does not wait for a background compaction, and one still
		// publishing its snapshot would race the TempDir removal.
		for s.compacting.Load() {
			time.Sleep(time.Millisecond)
		}
		s.Close()
	})
	return s
}

func raw(s string) json.RawMessage { return json.RawMessage(s) }

// lifecycle appends the submit and result records of one finished job.
func lifecycle(t *testing.T, s *Store, id string) {
	t.Helper()
	for _, rec := range []Record{
		{Op: OpSubmit, ID: id, Time: "2026-08-08T00:00:00Z", Data: raw(`{"bench":"nbody"}`)},
		{Op: OpResult, ID: id, State: "done", Data: raw(fmt.Sprintf(`{"id":%q,"state":"done"}`, id))},
	} {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %s/%s: %v", rec.Op, id, err)
		}
	}
}

// activeSegment returns the newest wal-*.log in dir (the append target).
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), "wal-") && strings.HasSuffix(de.Name(), ".log") {
			names = append(names, de.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no wal segments on disk")
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1])
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	lifecycle(t, s, "job-done")
	if err := s.Append(Record{Op: OpSubmit, ID: "job-queued", Time: "2026-08-08T00:01:00Z", Data: raw(`{"bench":"kmeans"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpSubmit, ID: "job-running", Data: raw(`{"bench":"bezier"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpCancel, ID: "job-cancelled", State: "cancelled", Data: raw(`{"id":"job-cancelled"}`)}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Appends != 5 || st.Replayed != 0 {
		t.Errorf("stats before restart: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Appends after close must refuse, not corrupt.
	if err := s.Append(Record{Op: OpSubmit, ID: "late"}); err == nil {
		t.Error("append after close succeeded")
	}

	r := mustOpen(t, dir, Options{})
	rst := r.Stats()
	if rst.Replayed != 5 {
		t.Errorf("replayed = %d, want 5", rst.Replayed)
	}
	if rst.TornTails != 0 || rst.SkippedCorrupt != 0 {
		t.Errorf("clean log replay reported damage: %+v", rst)
	}
	e, ok := r.Get("job-done")
	if !ok || e.Phase != PhaseTerminal || e.State != "done" || string(e.Result) != `{"id":"job-done","state":"done"}` {
		t.Errorf("job-done entry wrong: %+v ok=%v", e, ok)
	}
	if e, ok := r.Get("job-cancelled"); !ok || e.Phase != PhaseTerminal || e.State != "cancelled" {
		t.Errorf("job-cancelled entry wrong: %+v ok=%v", e, ok)
	}
	pend := r.Pending()
	if len(pend) != 2 || pend[0].ID != "job-queued" || pend[1].ID != "job-running" {
		t.Fatalf("pending = %+v, want both unfinished jobs in submit order", pend)
	}
	if pend[0].Phase != PhaseQueued || pend[1].Phase != PhaseQueued {
		t.Errorf("pending phases wrong: %v %v", pend[0].Phase, pend[1].Phase)
	}
	if pend[0].Submitted != "2026-08-08T00:01:00Z" || string(pend[0].Spec) != `{"bench":"kmeans"}` {
		t.Errorf("queued entry lost its spec/time: %+v", pend[0])
	}
}

func TestTornTailDropped(t *testing.T) {
	for name, mangle := range map[string]func(path string) error{
		"garbage-appended": func(path string) error {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte{0xde, 0xad, 0xbe})
			return err
		},
		"truncated-mid-frame": func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()-3)
		},
		"crc-flipped-last": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0xff
			return os.WriteFile(path, data, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			lifecycle(t, s, "job-a")
			if err := s.Append(Record{Op: OpSubmit, ID: "job-b", Data: raw(`{}`)}); err != nil {
				t.Fatal(err)
			}
			s.Close()
			seg := activeSegment(t, dir)
			if err := mangle(seg); err != nil {
				t.Fatal(err)
			}

			r := mustOpen(t, dir, Options{})
			st := r.Stats()
			if st.TornTails != 1 {
				t.Errorf("torn_tails = %d, want 1 (stats %+v)", st.TornTails, st)
			}
			// job-a's full lifecycle precedes the damage and must survive.
			if e, ok := r.Get("job-a"); !ok || e.Phase != PhaseTerminal {
				t.Errorf("job-a lost to a torn tail: %+v ok=%v", e, ok)
			}
			switch name {
			case "garbage-appended":
				if _, ok := r.Get("job-b"); !ok {
					t.Error("job-b dropped although its record was intact")
				}
			case "truncated-mid-frame", "crc-flipped-last":
				if _, ok := r.Get("job-b"); ok {
					t.Error("job-b survived although its record was torn")
				}
			}
			r.Close()
			// The torn tail was truncated away: the next open is clean.
			r2 := mustOpen(t, dir, Options{})
			if st := r2.Stats(); st.TornTails != 0 || st.SkippedCorrupt != 0 {
				t.Errorf("damage repeated on second open: %+v", st)
			}
		})
	}
}

func TestCorruptMidSegmentSkipsRemainderNotStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	lifecycle(t, s, "job-early")
	if err := s.Append(Record{Op: OpSubmit, ID: "job-lost", Data: raw(`{}`)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg1 := activeSegment(t, dir)
	// Flip a byte inside job-lost's frame (the last one), then grow a
	// NEWER segment so the damage sits mid-log, not at the tail.
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{}) // truncates the tail, opens wal-2
	if st := s2.Stats(); st.TornTails != 1 {
		t.Fatalf("setup: torn tail not seen: %+v", st)
	}
	lifecycle(t, s2, "job-late")
	s2.Close()
	// Re-corrupt the OLD segment (job-early's result frame) so the next
	// replay hits damage with newer segments behind it.
	data, err = os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	st := r.Stats()
	if st.SkippedCorrupt == 0 {
		t.Errorf("mid-log corruption not counted: %+v", st)
	}
	if st.TornTails != 0 {
		t.Errorf("mid-log corruption misclassified as torn tail: %+v", st)
	}
	// The later segment still replayed.
	if e, ok := r.Get("job-late"); !ok || e.Phase != PhaseTerminal {
		t.Errorf("job-late lost to earlier corruption: %+v ok=%v", e, ok)
	}
}

func TestCorruptRecordSkippedFrameIntact(t *testing.T) {
	// A frame whose CRC passes but whose payload is not a Record must be
	// skipped record-by-record, without losing its neighbours.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Append(Record{Op: OpSubmit, ID: "job-a", Data: raw(`{}`)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`this is not json`)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(bad)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(bad))
	if _, err := f.Write(append(hdr[:], bad...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Append one more valid record after the junk.
	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.SkippedCorrupt != 1 {
		t.Errorf("skipped_corrupt = %d, want 1", st.SkippedCorrupt)
	}
	if _, ok := s2.Get("job-a"); !ok {
		t.Error("job-a lost to a neighbouring corrupt record")
	}
}

func TestRetentionEvictsOldestTerminal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{RetainTerminal: 2})
	for i := 0; i < 5; i++ {
		lifecycle(t, s, fmt.Sprintf("job-%d", i))
	}
	st := s.Stats()
	if st.Evicted != 3 {
		t.Errorf("evicted = %d, want 3", st.Evicted)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(fmt.Sprintf("job-%d", i)); ok {
			t.Errorf("job-%d still indexed beyond the retention cap", i)
		}
	}
	for i := 3; i < 5; i++ {
		if e, ok := s.Get(fmt.Sprintf("job-%d", i)); !ok || e.Phase != PhaseTerminal {
			t.Errorf("job-%d evicted although inside the cap", i)
		}
	}
	s.Close()
	// Tombstones are durable: the evicted jobs stay gone after replay.
	r := mustOpen(t, dir, Options{RetainTerminal: 2})
	if _, ok := r.Get("job-0"); ok {
		t.Error("tombstoned job resurrected by replay")
	}
	if st := r.Stats(); st.IndexedJobs != 2 {
		t.Errorf("indexed after replay = %d, want 2", st.IndexedJobs)
	}
}

func TestCompactionShrinksAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactMinDead: -1}) // manual trigger only
	for i := 0; i < 20; i++ {
		lifecycle(t, s, fmt.Sprintf("dead-%d", i))
		// Overwrite each with a second result: the first result frame and
		// the submit frame both go dead.
		if err := s.Append(Record{Op: OpResult, ID: fmt.Sprintf("dead-%d", i), State: "done", Data: raw(`{"v":2}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(Record{Op: OpSubmit, ID: "queued", Time: "t0", Data: raw(`{"bench":"nbody"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpSubmit, ID: "running", Data: raw(`{"bench":"kmeans"}`)}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.DeadFrames == 0 {
		t.Fatalf("setup produced no dead frames: %+v", before)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after := s.Stats()
	if after.Compactions != 1 || after.DeadFrames != 0 {
		t.Errorf("post-compaction stats: %+v", after)
	}
	if after.LiveFrames != before.LiveFrames {
		t.Errorf("compaction changed live frames: %d -> %d", before.LiveFrames, after.LiveFrames)
	}
	// Appends continue after compaction and everything replays.
	lifecycle(t, s, "post-compact")
	s.Close()
	r := mustOpen(t, dir, Options{})
	if e, ok := r.Get("dead-7"); !ok || string(e.Result) != `{"v":2}` {
		t.Errorf("compaction lost the latest result: %+v ok=%v", e, ok)
	}
	pend := r.Pending()
	if len(pend) != 2 || pend[0].ID != "queued" || pend[1].ID != "running" {
		t.Errorf("compaction mangled pending jobs: %+v", pend)
	}
	if pend[0].Submitted != "t0" || string(pend[0].Spec) != `{"bench":"nbody"}` {
		t.Errorf("compaction lost the queued spec: %+v", pend[0])
	}
	if e, ok := r.Get("post-compact"); !ok || e.Phase != PhaseTerminal {
		t.Errorf("post-compaction append lost: %+v ok=%v", e, ok)
	}
}

func TestBackgroundCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactMinDead: 8})
	// Burn dead frames until the trigger fires: one live terminal entry,
	// overwritten repeatedly.
	for i := 0; i < 64; i++ {
		if err := s.Append(Record{Op: OpResult, ID: "hot", State: "done", Data: raw(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCompacted := func() bool {
		return s.Stats().Compactions >= 1
	}
	for i := 0; i < 500 && !waitCompacted(); i++ {
		// The compaction runs on a background goroutine; appends keep
		// nudging the trigger while we wait.
		if err := s.Append(Record{Op: OpResult, ID: "hot", State: "done", Data: raw(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitCompacted() {
		t.Fatal("background compaction never triggered")
	}
	if e, ok := s.Get("hot"); !ok || e.Phase != PhaseTerminal {
		t.Errorf("entry lost across background compaction: %+v ok=%v", e, ok)
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const writers, each = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("w%d-j%d", w, i)
				if err := s.Append(Record{Op: OpSubmit, ID: id, Data: raw(`{}`)}); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Fsyncs > st.Appends {
		t.Errorf("fsyncs (%d) exceed appends (%d): group commit broken", st.Fsyncs, st.Appends)
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if _, ok := r.Get(fmt.Sprintf("w%d-j%d", w, i)); !ok {
				t.Fatalf("w%d-j%d lost", w, i)
			}
		}
	}
}

func TestSubmitNeverResurrectsTerminal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	lifecycle(t, s, "job-a")
	// A reordered/rolled-back submit after the terminal record must lose.
	if err := s.Append(Record{Op: OpSubmit, ID: "job-a", Data: raw(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if e, _ := s.Get("job-a"); e.Phase != PhaseTerminal {
		t.Errorf("terminal job resurrected in memory: %+v", e)
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	if e, _ := r.Get("job-a"); e.Phase != PhaseTerminal {
		t.Errorf("terminal job resurrected by replay: %+v", e)
	}
	if len(r.Pending()) != 0 {
		t.Errorf("pending = %+v, want none", r.Pending())
	}
}

// TestReplayIgnoresLegacyStartRecord: a WAL left by a build that still
// logged the queued → running transition replays with the job pending, and
// the start frame is dead weight — not corruption, not an unknown op —
// that the next compaction drops.
func TestReplayIgnoresLegacyStartRecord(t *testing.T) {
	dir := t.TempDir()
	submit, err := json.Marshal(Record{Op: OpSubmit, ID: "job-a", Time: "t0", Data: raw(`{"bench":"nbody"}`)})
	if err != nil {
		t.Fatal(err)
	}
	// The older build's bytes, not this build's encoder: it died with the
	// job running, so nothing follows the start frame.
	wal := append(frameBytes(submit), frameBytes([]byte(`{"op":"start","id":"job-a"}`))...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1, false)), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs strings.Builder
	s := mustOpen(t, dir, Options{CompactMinDead: -1, Logf: func(format string, args ...any) {
		fmt.Fprintf(&logs, format+"\n", args...)
	}})
	st := s.Stats()
	if st.Replayed != 2 || st.SkippedCorrupt != 0 || st.TornTails != 0 {
		t.Errorf("legacy WAL replay: %+v, want 2 records replayed and no damage", st)
	}
	if st.PendingJobs != 1 || st.LiveFrames != 1 || st.DeadFrames != 1 {
		t.Errorf("legacy WAL accounting: %+v, want 1 pending job, the submit live, the start dead", st)
	}
	if strings.Contains(logs.String(), "unknown op") {
		t.Errorf("legacy start record logged as an unknown op:\n%s", logs.String())
	}
	pend := s.Pending()
	if len(pend) != 1 || pend[0].ID != "job-a" || pend[0].Phase != PhaseQueued || string(pend[0].Spec) != `{"bench":"nbody"}` {
		t.Fatalf("pending = %+v, want job-a queued with its spec", pend)
	}
	if s.CleanShutdown() {
		t.Error("a log ending in a start record reads as a clean shutdown")
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeadFrames != 0 || st.LiveFrames != 1 {
		t.Errorf("after compaction: %+v, want the start frame gone", st)
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	if st := r.Stats(); st.Replayed != 1 || st.PendingJobs != 1 {
		t.Errorf("after compaction and reopen: %+v, want the submit record alone", st)
	}
}

func TestEvictUnknownAndUnknownOpAreHarmless(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Append(Record{Op: OpEvict, ID: "ghost"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: Op("hologram"), ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SkippedCorrupt != 1 {
		t.Errorf("unknown op not counted: %+v", st)
	}
	lifecycle(t, s, "job-a")
	s.Close()
	if r := mustOpen(t, dir, Options{}); r.Stats().IndexedJobs != 1 {
		t.Errorf("indexed = %d, want 1", r.Stats().IndexedJobs)
	}
}

// TestCleanShutdownIsTheLastFrame: only a shutdown record that is intact
// and last in the newest file reads as a drain; a fresh store, a torn
// record, and a process that opened the store and died all read as
// unclean — and none of them fails the open.
func TestCleanShutdownIsTheLastFrame(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if s.CleanShutdown() {
		t.Error("fresh store reports a clean shutdown")
	}
	drain := func(s *Store) {
		t.Helper()
		if err := s.Append(Record{Op: OpSubmit, ID: "job-a", Data: raw(`{}`)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(Record{Op: OpShutdown}); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	drain(s)

	r := mustOpen(t, dir, Options{})
	if !r.CleanShutdown() {
		t.Error("shutdown record last in the log not reported as clean")
	}
	if st := r.Stats(); st.PendingJobs != 1 || st.SkippedCorrupt != 0 {
		t.Errorf("shutdown record disturbed the index: %+v", st)
	}
	r.Close() // died without appending: its empty segment now ends the log

	r2 := mustOpen(t, dir, Options{})
	if r2.CleanShutdown() {
		t.Error("a process that opened the store and died still reads as a clean shutdown")
	}
	drain(r2)
	seg := activeSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	r3 := mustOpen(t, dir, Options{})
	if r3.CleanShutdown() {
		t.Error("torn shutdown record reads as a clean shutdown")
	}
	if st := r3.Stats(); st.TornTails != 1 {
		t.Errorf("torn_tails = %d, want 1", st.TornTails)
	}
}
