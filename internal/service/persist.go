package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"psaflow/internal/faults"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// Persistence layout under Config.DataDir:
//
//	store/           WAL-backed job store (internal/store): every submit,
//	                 result, and cancel is appended durably, so a crash
//	                 loses nothing that was acknowledged (a job with no
//	                 terminal record is requeued, started or not); the
//	                 shutdown record Drain appends last is what tells the
//	                 next start a drain from a crash

// validJobID rejects path-traversal in client-supplied job IDs before they
// reach the filesystem.
func validJobID(id string) bool { return id != "" && isSlug(id, 64) }

// isSlug reports whether s is at most max characters of [a-z0-9-].
func isSlug(s string, max int) bool {
	for _, c := range s {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return len(s) <= max
}

// persistIO runs one persistence write under the daemon's fault injector
// and retry policy: injected transient I/O faults (Config.Faults with
// kinds=io — the stand-in for a network-filesystem blip) are retried
// with the same backoff the flow engine uses, and every injection and
// retry lands in the service recorder so /metrics shows them.
func (s *Server) persistIO(op string, fn func() error) error {
	do := func() error {
		if err := s.ioFaults.Fail(faults.IO, op); err != nil {
			s.rec.Add(telemetry.CounterFaultsInjected, 1)
			s.rec.Add(telemetry.FaultCounter(string(faults.IO)), 1)
			return err
		}
		return fn()
	}
	return s.retry.Do(context.Background(), op, func(retry int, delay time.Duration, err error) {
		s.rec.Add(telemetry.CounterRetryAttempts, 1)
		s.rec.Add(telemetry.CounterRetryBackoffMillis, delay.Milliseconds())
		s.logf("persist %s: retry %d after %v: %v", op, retry, delay, err)
	}, do)
}

func (s *Server) storePath() string { return filepath.Join(s.cfg.DataDir, "store") }

// openStore opens (creating if needed) the WAL-backed job store and logs
// whether the previous process died with unfinished jobs.
func (s *Server) openStore() error {
	if s.cfg.DataDir == "" {
		return nil // persistence disabled (tests, ephemeral runs)
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(s.storePath(), store.Options{
		RetainTerminal: s.cfg.StoreRetain,
		Logf:           s.logf,
	})
	if err != nil {
		return fmt.Errorf("service: open job store: %w", err)
	}
	s.store = st
	if pending := s.syncStoreCounters().PendingJobs; pending > 0 && !st.CleanShutdown() {
		s.logf("unclean shutdown detected: %d unfinished job(s) recovered from the WAL", pending)
	}
	return nil
}

// replayStore re-enqueues every job the store holds without a terminal
// record — the crash-recovery path, run before the workers and the listener
// start. Jobs whose spec no longer validates are evicted with a log line and
// counter rather than wedging startup; every other job was acknowledged and
// is queued again, past the queue's cap if need be.
func (s *Server) replayStore() int {
	if s.store == nil {
		return 0
	}
	requeued := 0
	for _, e := range s.store.Pending() {
		job, err := s.replayedJob(e)
		if err != nil {
			s.rec.Add(telemetry.CounterStoreSkippedCorrupt, 1)
			s.logf("replay %s: dropped: %v", e.ID, err)
			s.evict(e.ID, "replay")
			continue
		}
		if err := s.enqueue(job, true); err != nil {
			s.logf("replay %s: %v", e.ID, err) // draining: Start raced a Drain
			continue
		}
		requeued++
	}
	if requeued > 0 {
		s.rec.Add(telemetry.CounterJobsRestored, int64(requeued))
		s.rec.Add(telemetry.CounterStoreRequeued, int64(requeued))
	}
	return requeued
}

// replayedJob turns a pending submit record back into the job it
// acknowledged, under its old ID and submit time.
func (s *Server) replayedJob(e store.Entry) (*Job, error) {
	var spec JobSpec
	if err := json.Unmarshal(e.Spec, &spec); err != nil {
		return nil, fmt.Errorf("corrupt spec: %w", err)
	}
	b, prog, err := spec.validate()
	if err != nil {
		return nil, err
	}
	submitted, err := time.Parse(time.RFC3339Nano, e.Submitted)
	if err != nil {
		submitted = time.Now()
	}
	return s.newJob(e.ID, spec, b, prog, submitted), nil
}

// storedResult returns a previously persisted result document (possibly
// from an earlier daemon run) exactly as it was logged, read back from its
// WAL frame: the bytes a live job's GET /result serves, so an evicted job
// reads byte-identically. A frame that no longer checks out reads as absent
// and is counted by the store; a stored document that is not JSON is logged
// and counted here, and reads as absent too — one bad record never breaks
// lookups.
func (s *Server) storedResult(id string) ([]byte, bool) {
	if s.store == nil || !validJobID(id) {
		return nil, false
	}
	e, ok := s.store.Get(id)
	if !ok || e.Phase != store.PhaseTerminal || len(e.Result) == 0 {
		return nil, false
	}
	if !json.Valid(e.Result) {
		s.rec.Add(telemetry.CounterStoreSkippedCorrupt, 1)
		s.logf("job %s: corrupt stored result skipped", id)
		return nil, false
	}
	return e.Result, true
}

// syncStoreCounters mirrors the store's cumulative stats into the service
// recorder as deltas, so /metrics and telemetry snapshots carry live
// store.* counters without double counting, and returns the stats it read
// (the zero Stats without a store).
func (s *Server) syncStoreCounters() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	cur := s.store.Stats()
	s.storeStatsMu.Lock()
	last := s.lastStoreStats
	s.lastStoreStats = cur
	s.storeStatsMu.Unlock()
	s.rec.Add(telemetry.CounterStoreAppends, cur.Appends-last.Appends)
	s.rec.Add(telemetry.CounterStoreFsyncs, cur.Fsyncs-last.Fsyncs)
	s.rec.Add(telemetry.CounterStoreReplayed, cur.Replayed-last.Replayed)
	s.rec.Add(telemetry.CounterStoreCompactions, cur.Compactions-last.Compactions)
	s.rec.Add(telemetry.CounterStoreTornTail, cur.TornTails-last.TornTails)
	s.rec.Add(telemetry.CounterStoreSkippedCorrupt, cur.SkippedCorrupt-last.SkippedCorrupt)
	s.rec.Add(telemetry.CounterStoreEvicted, cur.Evicted-last.Evicted)
	return cur
}
