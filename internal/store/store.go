// Package store is psaflowd's durability layer: a crash-safe, append-only
// write-ahead log (WAL) of job records with an in-memory index rebuilt by
// replay on open. The index is positional: for a finished job it keeps
// where the job's terminal frame lies, never the document in it, so what a
// job leaves in memory does not depend on the size of its result.
//
// Layout (one directory per store):
//
//	wal-<seq>.log    append-only segments of length+CRC32-framed records
//	snap-<seq>.log   compaction snapshot, same frame format, covering
//	                 every segment with a sequence number <= <seq>
//
// An append returns only after its record is fsynced; concurrent
// appenders share fsyncs (group commit: whoever reaches the sync lock
// first flushes everything buffered so far, and the rest observe their
// record already durable). Replay tolerates a truncated final record —
// a crash mid-append — by dropping it, and skips corrupt records with
// counters instead of aborting the whole restore. Once dead frames
// (superseded states, evicted jobs) outnumber live ones, a background
// compaction copies the live frames into a snapshot, moves the index's
// positions onto it and deletes the old files.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Op is a job-record operation.
type Op string

// The five WAL record operations. Submit carries the job spec, Result
// and Cancel carry the terminal result document; Evict is state-only.
// Shutdown names no job: it is the last frame a graceful drain appends,
// and finding it last at the next open is what tells a drain from a crash
// (see CleanShutdown).
const (
	OpSubmit   Op = "submit"
	OpResult   Op = "result"
	OpCancel   Op = "cancel"
	OpEvict    Op = "evict"
	OpShutdown Op = "shutdown"
)

// opLegacyStart is the queued → running record older builds appended when
// a worker picked a job up. A restart requeues a job that was running
// exactly as one that was queued, so the record decided nothing; it is
// still read, as a dead frame.
const opLegacyStart Op = "start"

// Record is one WAL entry. Data is opaque to the store: the caller's
// job spec for OpSubmit, its result document for OpResult/OpCancel.
type Record struct {
	Op    Op              `json:"op"`
	ID    string          `json:"id"`
	Time  string          `json:"t,omitempty"`     // caller timestamp (submit time)
	State string          `json:"state,omitempty"` // terminal state for OpResult/OpCancel
	Data  json.RawMessage `json:"data,omitempty"`
}

// Phase is a replayed job's coarse position.
type Phase int

// A job is Queued — pending: a restart must requeue it, whether or not a
// worker had picked it up — until its terminal record exists; Terminal
// jobs serve their Result document.
const (
	PhaseQueued Phase = iota
	PhaseTerminal
)

// Entry is the live, replayed view of one job. The index holds a pending
// job's Spec (Pending needs it, and queue + workers bound how many there
// are) but never a terminal job's Result: Get and Entries fill it in on
// the copy they return, read back from the job's frame on disk.
type Entry struct {
	ID        string
	Phase     Phase
	State     string // terminal state string, "" until terminal
	Submitted string // the submit record's timestamp, verbatim
	Seq       uint64 // submission order (monotonic per store lifetime)
	Spec      json.RawMessage
	Result    json.RawMessage

	at pos // the frame that replays to this entry
}

// Options tunes a Store.
type Options struct {
	// NoSync skips fsyncs (fuzzing and hot test loops only — durability
	// is the whole point of the store).
	NoSync bool
	// CompactMinDead is the dead-frame floor before background
	// compaction triggers; dead frames must also outnumber live ones.
	// 0 = default 1024; negative disables compaction.
	CompactMinDead int
	// RetainTerminal caps terminal job records kept in the store; beyond
	// it the oldest-submitted terminal jobs are tombstoned (OpEvict) and
	// reclaimed by the next compaction. 0 = unlimited.
	RetainTerminal int
	// Logf receives replay/compaction diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the store's counters and gauges.
// The JSON names are the daemon's /metrics "store" block.
type Stats struct {
	Appends        int64 `json:"appends"`         // records appended since open (replay excluded)
	Fsyncs         int64 `json:"fsyncs"`          // file syncs performed (group commit batches appends)
	Replayed       int64 `json:"replayed"`        // records applied from disk by the open replay
	Compactions    int64 `json:"compactions"`     // completed snapshot compactions
	TornTails      int64 `json:"torn_tails"`      // truncated final records dropped at replay
	SkippedCorrupt int64 `json:"skipped_corrupt"` // corrupt records/regions skipped instead of aborting
	Evicted        int64 `json:"evicted"`         // retention tombstones appended
	Segments       int   `json:"segments"`        // on-disk files, the active segment included
	IndexedJobs    int   `json:"indexed_jobs"`    // jobs in the in-memory index
	PendingJobs    int   `json:"pending_jobs"`    // indexed jobs without a terminal record
	LiveFrames     int64 `json:"live_frames"`     // frames a compaction would keep
	DeadFrames     int64 `json:"dead_frames"`     // superseded frames a compaction would drop
}

type counters struct {
	appends, fsyncs, replayed, compactions, tornTails, skippedCorrupt, evicted int64
}

// Store is the WAL-backed job store. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	// mu guards the index, accounting, stats, and the active segment's
	// buffered writer; it is never held across an fsync.
	mu          sync.Mutex
	closed      bool
	index       map[string]*Entry
	pending     int      // index entries without a terminal record
	terminal    []string // terminal job IDs in retention-eviction order; kept only when RetainTerminal > 0
	nextSeq     uint64
	active      *segment
	disk        []*diskFile // sealed read-only files behind the active segment
	writeSeq    uint64      // frames buffered/written to the active segment
	liveFrames  int64
	totalFrames int64
	stats       counters
	// lastOp is the op of the last intact frame of the file the open
	// replay scanned last ("" for an empty or undecodable tail).
	lastOp Op

	// syncMu serializes fsyncs and segment rotation; syncedSeq is the
	// highest writeSeq known durable (guarded by syncMu).
	syncMu    sync.Mutex
	syncedSeq uint64

	compacting atomic.Bool
}

var errClosed = errors.New("store: closed")

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Open replays the WAL in dir (created if missing) and returns a store
// appending to a fresh segment. Torn final records are dropped and
// corrupt records skipped, both counted in Stats; only real I/O errors
// fail the open.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, index: make(map[string]*Entry)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*diskFile
	for _, de := range ents {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(s.path(name)) // left by an interrupted compaction
			continue
		}
		seq, snap, ok := parseSegmentName(name)
		if !ok {
			continue
		}
		files = append(files, &diskFile{seq: seq, snap: snap, path: s.path(name)})
	}
	// The highest snapshot supersedes every file with a lower-or-equal
	// sequence number; anything it covers was left by a crash between a
	// compaction's rename and its deletes.
	var base uint64
	hasSnap := false
	for _, f := range files {
		if f.snap && (!hasSnap || f.seq > base) {
			base, hasSnap = f.seq, true
		}
	}
	var replay []*diskFile
	var stale []string
	var maxSeq uint64
	for _, f := range files {
		if f.seq > maxSeq {
			maxSeq = f.seq
		}
		covered := hasSnap && (f.seq < base || (f.seq <= base && !f.snap))
		if covered || (f.snap && f.seq != base) {
			stale = append(stale, f.path)
			continue
		}
		replay = append(replay, f)
	}
	sort.Slice(replay, func(i, j int) bool {
		if replay[i].seq != replay[j].seq {
			return replay[i].seq < replay[j].seq
		}
		return replay[i].snap // a snapshot precedes the segments above it
	})
	for i, f := range replay {
		applied, skipped, goodOff, damaged, err := s.scanSegment(f)
		if err != nil {
			return nil, fmt.Errorf("store: replay %s: %w", f.path, err)
		}
		s.stats.replayed += applied
		s.stats.skippedCorrupt += skipped
		if damaged {
			if i == len(replay)-1 {
				// The newest file's tail tore mid-append; drop the
				// partial record so the next open scans clean.
				s.stats.tornTails++
				s.logf("store: dropped torn tail of %s at offset %d", f.path, goodOff)
				if err := os.Truncate(f.path, goodOff); err != nil {
					s.logf("store: truncate %s: %v", f.path, err)
				}
			} else {
				// Damage with newer files behind it is corruption, not a
				// crash artifact; skip the remainder, keep the evidence.
				s.stats.skippedCorrupt++
				s.logf("store: %s corrupt beyond offset %d; skipping its remainder", f.path, goodOff)
			}
		}
	}
	for _, p := range stale {
		os.Remove(p)
	}
	s.disk = replay
	active, err := createSegment(dir, maxSeq+1)
	if err != nil {
		return nil, err
	}
	s.active = active
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	s.enforceRetentionLocked()
	if s.writeSeq > 0 { // retention tombstones were appended
		if err := s.syncTo(s.writeSeq); err != nil {
			return nil, err
		}
	}
	s.maybeCompact()
	return s, nil
}

// CleanShutdown reports whether the newest file the open replay read ends
// in a shutdown record: the previous process drained. A record that is
// torn, missing, or followed by anything else — even the empty segment of
// a process that opened the store and died — reads as unclean.
func (s *Store) CleanShutdown() bool {
	return s.lastOp == OpShutdown
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name)
}

// Append logs one record durably: it returns only after the record is
// framed, written, and fsynced (shared with concurrent appenders).
func (s *Store) Append(rec Record) error {
	p, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(p) > maxFrame {
		return fmt.Errorf("store: record %s/%s exceeds %d bytes", rec.Op, rec.ID, maxFrame)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	at, err := s.writeFrameLocked(p)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.writeSeq++
	s.totalFrames++
	s.stats.appends++
	s.applyLocked(rec, at)
	s.enforceRetentionLocked()
	seq := s.writeSeq
	s.mu.Unlock()
	if err := s.syncTo(seq); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// syncTo makes every frame up to seq durable. Group commit: the caller
// that wins syncMu flushes and fsyncs everything written so far; callers
// queued behind it find their seq already covered and return without
// touching the disk.
func (s *Store) syncTo(seq uint64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.syncedSeq >= seq {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	seg := s.active
	err := seg.w.Flush()
	flushed := s.writeSeq
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if !s.opts.NoSync {
		if err := seg.f.Sync(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.stats.fsyncs++
	s.mu.Unlock()
	s.syncedSeq = flushed
	return nil
}

// applyLocked folds one record, whose frame lies at at, into the index.
// Caller holds s.mu (or, during Open, has exclusive ownership).
func (s *Store) applyLocked(rec Record, at pos) {
	switch rec.Op {
	case OpSubmit:
		if e := s.index[rec.ID]; e != nil {
			if e.Phase == PhaseTerminal {
				// Never resurrect a finished job into the queue: a
				// crash-reordered or rolled-back submit must lose to the
				// terminal record.
				return
			}
			s.dropLocked(e) // the entry's frame is superseded by this one
		}
		s.nextSeq++
		s.index[rec.ID] = &Entry{ID: rec.ID, Phase: PhaseQueued, Submitted: rec.Time, Seq: s.nextSeq, Spec: rec.Data, at: at}
		s.pending++
		s.liveFrames++
	case OpResult, OpCancel:
		e := s.index[rec.ID]
		if e == nil {
			// A compacted snapshot carries a terminal job as its result
			// record alone.
			s.nextSeq++
			e = &Entry{ID: rec.ID, Seq: s.nextSeq, Submitted: rec.Time}
		} else {
			s.dropLocked(e) // its old frame, and whatever it was counted as
		}
		s.index[rec.ID] = e
		e.Phase = PhaseTerminal
		e.State = rec.State
		if rec.Op == OpCancel && e.State == "" {
			e.State = "cancelled"
		}
		e.Spec = nil
		e.at = at // the document stays in the frame; Get reads it back
		s.liveFrames++
		if s.opts.RetainTerminal > 0 {
			s.terminal = append(s.terminal, rec.ID)
		}
	case OpEvict:
		if e := s.index[rec.ID]; e != nil {
			s.dropLocked(e)
		}
	case OpShutdown, opLegacyStart:
		// A marker (or an older build's start record), not a job
		// transition: the frame is dead on arrival.
	default:
		// Forward compatibility: an op this build doesn't know is noted,
		// not fatal.
		s.stats.skippedCorrupt++
		s.logf("store: skipping record with unknown op %q", rec.Op)
	}
}

// dropLocked takes e out of the index and out of every count it was in:
// its frame is dead from here on.
func (s *Store) dropLocked(e *Entry) {
	delete(s.index, e.ID)
	s.liveFrames--
	if e.Phase != PhaseTerminal {
		s.pending--
		return
	}
	for i, t := range s.terminal {
		if t == e.ID {
			s.terminal = append(s.terminal[:i], s.terminal[i+1:]...)
			return
		}
	}
}

// enforceRetentionLocked tombstones the oldest terminal jobs beyond
// Options.RetainTerminal. The evict frames ride the caller's fsync.
func (s *Store) enforceRetentionLocked() {
	if s.opts.RetainTerminal <= 0 {
		return
	}
	for len(s.terminal) > s.opts.RetainTerminal {
		rec := Record{Op: OpEvict, ID: s.terminal[0]}
		payload, err := json.Marshal(rec)
		var at pos
		if err == nil {
			at, err = s.writeFrameLocked(payload)
		}
		if err != nil {
			s.logf("store: retention evict %s: %v", rec.ID, err)
			return
		}
		s.writeSeq++
		s.totalFrames++
		s.stats.appends++
		s.stats.evicted++
		s.applyLocked(rec, at) // drops terminal[0]
	}
}

// Get returns the live view of one job; a terminal job's Result is read
// back from its frame: one ReadAt, the CRC32 the append wrote, one decode.
// A frame that no longer reads back as that job's record is logged and
// counted as skipped_corrupt, and the job reads as absent — one bad frame
// never breaks lookups.
func (s *Store) Get(id string) (Entry, bool) {
	s.mu.Lock()
	e := s.index[id]
	if e == nil {
		s.mu.Unlock()
		return Entry{}, false
	}
	out := *e
	if out.Phase != PhaseTerminal {
		s.mu.Unlock()
		return out, true
	}
	// Opened under mu, read outside it: positions move only under mu
	// (compact), and the files they leave are unlinked only afterwards, so
	// the handle names the bytes out.at names even if a compaction wins
	// the race from here on.
	f, err := s.openLocked(out.at)
	s.mu.Unlock()
	if err == nil {
		out.Result, err = readResult(f, out.at, id)
		f.Close()
	}
	if err != nil {
		s.mu.Lock()
		s.stats.skippedCorrupt++
		s.mu.Unlock()
		s.logf("store: %s: stored result unreadable (%s offset %d): %v", id, out.at.file.path, out.at.off, err)
		return Entry{}, false
	}
	return out, true
}

// openLocked opens the file holding the frame at for reading, first
// flushing the active segment's buffer if the frame may still be in it: a
// reader never sees a position before the bytes it names are in the file.
func (s *Store) openLocked(at pos) (*os.File, error) {
	if at.file == s.active.diskFile && s.active.w.Buffered() > 0 {
		if err := s.active.w.Flush(); err != nil {
			return nil, err
		}
	}
	return os.Open(at.file.path)
}

// readResult reads the terminal record of job id at at and returns its
// document.
func readResult(f *os.File, at pos, id string) (json.RawMessage, error) {
	frame, err := readFrame(f, at, nil)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(frame[frameHeader:], &rec); err != nil {
		return nil, err
	}
	if rec.ID != id {
		return nil, fmt.Errorf("frame holds a record of %q", rec.ID)
	}
	return rec.Data, nil
}

// Pending returns the jobs a restart must requeue — submitted, with no
// terminal record by the time the WAL went quiet — in submission order.
func (s *Store) Pending() []Entry {
	s.mu.Lock()
	var out []Entry
	for _, e := range s.index {
		if e.Phase != PhaseTerminal {
			out = append(out, *e)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Entries returns every indexed record — terminal ones with their
// documents, read as Get reads them — in append order. The flow registry
// replays its version history this way (each registered version is one
// terminal record, retained forever).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	all := make([]Entry, 0, len(s.index))
	for _, e := range s.index {
		all = append(all, *e)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	out := all[:0]
	for _, e := range all {
		if e.Phase == PhaseTerminal {
			var ok bool
			if e, ok = s.Get(e.ID); !ok {
				continue // unreadable (counted by Get) or evicted meanwhile
			}
		}
		out = append(out, e)
	}
	return out
}

// Stats snapshots the store's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Appends:        s.stats.appends,
		Fsyncs:         s.stats.fsyncs,
		Replayed:       s.stats.replayed,
		Compactions:    s.stats.compactions,
		TornTails:      s.stats.tornTails,
		SkippedCorrupt: s.stats.skippedCorrupt,
		Evicted:        s.stats.evicted,
		Segments:       len(s.disk) + 1,
		IndexedJobs:    len(s.index),
		PendingJobs:    s.pending,
		LiveFrames:     s.liveFrames,
		DeadFrames:     s.totalFrames - s.liveFrames,
	}
}

// Close flushes and fsyncs the active segment and stops accepting
// appends. The in-memory index stays readable.
func (s *Store) Close() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	seg := s.active
	err := seg.w.Flush()
	s.mu.Unlock()
	if err == nil && !s.opts.NoSync {
		err = seg.f.Sync()
	}
	if cerr := seg.f.Close(); err == nil {
		err = cerr
	}
	return err
}
