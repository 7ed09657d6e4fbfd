package store

import (
	"encoding/json"
	"os"
	"sort"
)

// defaultCompactMinDead is the dead-frame floor before background
// compaction triggers when Options.CompactMinDead is zero.
const defaultCompactMinDead = 1024

// maybeCompact kicks off a background compaction once dead frames both
// clear the floor and outnumber live ones. At most one compaction runs
// at a time; the trigger is re-evaluated on every append, so a skipped
// kick is retried as the log keeps growing.
func (s *Store) maybeCompact() {
	if s.opts.CompactMinDead < 0 {
		return
	}
	min := int64(s.opts.CompactMinDead)
	if min == 0 {
		min = defaultCompactMinDead
	}
	s.mu.Lock()
	dead := s.totalFrames - s.liveFrames
	live := s.liveFrames
	closed := s.closed
	s.mu.Unlock()
	if closed || dead < min || dead <= live {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		if err := s.compact(); err != nil {
			s.logf("store: compaction failed: %v", err)
		}
	}()
}

// CompactNow runs one compaction synchronously, regardless of the
// dead-frame trigger (unless one is already in flight). For tests and
// operational tooling; the normal path is the background trigger.
func (s *Store) CompactNow() error {
	if !s.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer s.compacting.Store(false)
	return s.compact()
}

// compact seals the active segment, snapshots the live index into
// snap-<seq>.log (covering every file up to and including the sealed
// segment), points appends at a fresh segment, and deletes the covered
// files. Appends continue concurrently into the fresh segment the whole
// time; a crash at any point replays correctly — the snapshot becomes
// visible atomically via rename, and until then the old files are still
// on disk.
func (s *Store) compact() error {
	s.syncMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return nil
	}
	// Seal: everything buffered must be durable before the snapshot
	// claims to cover it.
	if err := s.active.w.Flush(); err != nil {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return err
	}
	if !s.opts.NoSync {
		if err := s.active.f.Sync(); err != nil {
			s.mu.Unlock()
			s.syncMu.Unlock()
			return err
		}
	}
	old := s.active
	covered := old.seq
	entries := make([]Entry, 0, len(s.index))
	for _, e := range s.index {
		entries = append(entries, *e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	toDelete := make([]string, 0, len(s.disk)+1)
	for _, f := range s.disk {
		toDelete = append(toDelete, f.path)
	}
	toDelete = append(toDelete, old.path)
	fresh, err := createSegment(s.dir, covered+1, false)
	if err != nil {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return err
	}
	s.active = fresh
	s.syncedSeq = s.writeSeq // everything so far was just flushed+synced
	// From here on the on-disk truth is: snapshot-to-be (one live frame
	// per entry at the rotate point) + whatever lands in the fresh segment.
	s.totalFrames = int64(len(entries)) // the fresh segment starts empty
	s.mu.Unlock()
	s.syncMu.Unlock()
	old.f.Close()

	// Build the snapshot off to the side and publish it atomically.
	tmp := s.path(segmentName(covered, true) + ".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	for i := range entries {
		payload, err := json.Marshal(snapshotRecord(&entries[i]))
		if err != nil {
			return cleanup(err)
		}
		if err := frameTo(f, payload); err != nil {
			return cleanup(err)
		}
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	final := s.path(segmentName(covered, true))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	s.disk = []diskFile{{seq: covered, snap: true, path: final}}
	s.stats.compactions++
	s.mu.Unlock()
	for _, p := range toDelete {
		os.Remove(p)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.logf("store: compacted %d file(s) into %s (%d live job(s))", len(toDelete), final, len(entries))
	return nil
}

// snapshotRecord re-encodes one live entry as the one record that replays
// back to it: its submit while pending, its result once terminal.
func snapshotRecord(e *Entry) Record {
	if e.Phase == PhaseQueued {
		return Record{Op: OpSubmit, ID: e.ID, Time: e.Submitted, Data: e.Spec}
	}
	return Record{Op: OpResult, ID: e.ID, State: e.State, Time: e.Submitted, Data: e.Result}
}
