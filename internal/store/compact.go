package store

import (
	"bufio"
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

// compact seals the active segment, copies every live frame — verbatim,
// CRC-checked, in submission order — into snap-<seq>.log (covering every
// file up to and including the sealed segment), moves the index's
// positions onto the snapshot, and deletes the covered files. A live
// entry's frame is the record that replays to it (a pending job's submit,
// a terminal job's result or cancel), so nothing is re-encoded. Appends
// continue concurrently into a fresh segment the whole time; a crash at
// any point replays correctly — the snapshot becomes visible atomically
// via rename, and until then the old files are still on disk.
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
	fresh, err := createSegment(s.dir, old.seq+1)
	if err != nil {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return err
	}
	s.active = fresh
	s.syncedSeq = s.writeSeq // everything so far was just flushed+synced
	s.disk = append(s.disk, old.diskFile)
	covered := s.disk // sealed: no frame is ever added to these files
	coveredFrames := s.totalFrames
	type moved struct {
		id       string
		seq      uint64
		from, to pos
	}
	live := make([]moved, 0, len(s.index))
	for id, e := range s.index {
		live = append(live, moved{id: id, seq: e.Seq, from: e.at})
	}
	s.mu.Unlock()
	s.syncMu.Unlock()
	old.f.Close()
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })

	// Build the snapshot off to the side and publish it atomically.
	snap := &diskFile{seq: old.seq, snap: true, path: s.path(segmentName(old.seq, true))}
	tmp := snap.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	src := make(map[*diskFile]*os.File, len(covered))
	defer func() {
		for _, r := range src {
			r.Close()
		}
	}()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	var off int64
	var buf []byte
	unreadable := 0
	for i := range live {
		m := &live[i]
		r := src[m.from.file]
		if r == nil {
			if r, err = os.Open(m.from.file.path); err != nil {
				return cleanup(err)
			}
			src[m.from.file] = r
		}
		frame, err := readFrame(r, m.from, buf)
		if err != nil {
			// Damaged since it was indexed. The snapshot leaves it out,
			// as a replay would, and so does the index below.
			s.logf("store: compaction dropped %s: frame unreadable (%s offset %d): %v", m.id, m.from.file.path, m.from.off, err)
			unreadable++
			continue
		}
		buf = frame
		if _, err := w.Write(frame); err != nil {
			return cleanup(err)
		}
		m.to = pos{file: snap, off: off, n: m.from.n}
		off += int64(len(frame))
	}
	if err := w.Flush(); err != nil {
		return cleanup(err)
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
	if err := os.Rename(tmp, snap.path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The snapshot is published: move every position that still names a
	// covered frame onto its copy. This is the only place offsets move,
	// and only now — under mu, with the old files still on disk — so a
	// Get that looked up the old position reads it through a handle it
	// opened before the unlink below. An entry superseded or evicted since
	// the seal names the fresh segment, or is gone, and is left alone.
	s.mu.Lock()
	for i := range live {
		m := &live[i]
		e := s.index[m.id]
		if e == nil || e.at != m.from {
			continue
		}
		if m.to.file == nil {
			s.dropLocked(e)
			continue
		}
		e.at = m.to
	}
	s.disk = []*diskFile{snap}
	s.totalFrames -= coveredFrames - int64(len(live)-unreadable)
	s.stats.skippedCorrupt += int64(unreadable)
	s.stats.compactions++
	s.mu.Unlock()
	for _, d := range covered {
		os.Remove(d.path)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.logf("store: compacted %d file(s) into %s (%d live job(s))", len(covered), snap.path, len(live)-unreadable)
	return nil
}
