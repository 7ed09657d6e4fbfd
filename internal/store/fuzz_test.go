package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameBytes builds one well-formed frame around payload.
func frameBytes(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	return buf
}

// FuzzReplay feeds arbitrary bytes to the store as a pre-existing WAL
// segment. Whatever the bytes, Open must neither panic nor report an
// error (damage is counted, not fatal), and the open must be idempotent:
// a second open of the same directory replays at least as cleanly — the
// first open is allowed to truncate a torn tail, never to make things
// worse. Every position the replay indexed must read back: Get on each
// indexed job finds its frame where the scan said it was.
func FuzzReplay(f *testing.F) {
	rec := func(r Record) []byte {
		p, _ := json.Marshal(r)
		return frameBytes(p)
	}
	f.Add([]byte{})
	f.Add(frameBytes([]byte(`not json`)))
	f.Add(rec(Record{Op: OpSubmit, ID: "a", Data: json.RawMessage(`{}`)}))
	full := append(rec(Record{Op: OpSubmit, ID: "a", Time: "t", Data: json.RawMessage(`{"bench":"nbody"}`)}),
		append(rec(Record{Op: opLegacyStart, ID: "a"}), // older builds wrote it; replay must still read it
			rec(Record{Op: OpResult, ID: "a", State: "done", Data: json.RawMessage(`{"id":"a"}`)})...)...)
	f.Add(full)
	f.Add(full[:len(full)-5])                                          // torn tail
	f.Add(append(full, 0xff, 0x00, 0x12))                              // trailing garbage
	f.Add(append([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, full...)) // absurd length then data
	f.Add(rec(Record{Op: Op("future-op"), ID: "z"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1, false)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("Open on fuzzed segment errored: %v", err)
		}
		st := s.Stats()
		getEveryIndexed(t, s, "first open")
		// Appends still work on whatever survived.
		if err := s.Append(Record{Op: OpSubmit, ID: "fuzz-probe", Data: json.RawMessage(`{}`)}); err != nil {
			t.Fatalf("append after fuzzed replay: %v", err)
		}
		getEveryIndexed(t, s, "after the probe append")
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		s2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("second Open errored: %v", err)
		}
		defer s2.Close()
		st2 := s2.Stats()
		// The first open truncated any torn tail, so the second sees none,
		// and replays every record the first kept plus the probe.
		if st2.TornTails != 0 {
			t.Errorf("second open still saw a torn tail: first %+v second %+v", st, st2)
		}
		if _, ok := s2.Get("fuzz-probe"); !ok {
			t.Error("probe record lost between opens")
		}
		if st2.IndexedJobs < 1 {
			t.Errorf("index shrank: %+v", st2)
		}
		getEveryIndexed(t, s2, "second open")
	})
}

// getEveryIndexed reads every indexed job back through Get — a terminal
// one from the position the replay recorded — and recounts the pending
// entries against the maintained count.
func getEveryIndexed(t *testing.T, s *Store, where string) {
	t.Helper()
	s.mu.Lock()
	ids := make([]string, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	before := s.Stats().SkippedCorrupt
	for _, id := range ids {
		e, ok := s.Get(id)
		if !ok || e.ID != id || (e.Phase == PhaseTerminal) != (e.Spec == nil) {
			t.Errorf("%s: Get(%q) = %+v ok=%v on an indexed job", where, id, e, ok)
		}
	}
	if after := s.Stats().SkippedCorrupt; after != before {
		t.Errorf("%s: %d indexed frame(s) did not read back", where, after-before)
	}
	checkPendingCount(t, s, where)
}
