package service

import (
	"context"
	"encoding/json"
	"errors"
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
//	                 start, result, and cancel is appended durably, so a
//	                 crash loses nothing that was acknowledged; the
//	                 shutdown record Drain appends last is what tells the
//	                 next start a drain from a crash

// validJobID rejects path-traversal in client-supplied job IDs before they
// reach the filesystem.
func validJobID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
		default:
			return false
		}
	}
	return true
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
	if pending := st.Stats().PendingJobs; pending > 0 && !st.CleanShutdown() {
		s.logf("unclean shutdown detected: %d unfinished job(s) recovered from the WAL", pending)
	}
	s.syncStoreCounters()
	return nil
}

// replayStore re-enqueues every job the store reports as queued or running
// — the crash-recovery path. Jobs whose spec no longer validates are
// evicted with a log line and counter rather than wedging startup; a full
// queue leaves the job in the store for the next start.
func (s *Server) replayStore() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	requeued := 0
	for _, e := range s.store.Pending() {
		var spec JobSpec
		if err := json.Unmarshal(e.Spec, &spec); err != nil {
			s.rec.Add(telemetry.CounterStoreSkippedCorrupt, 1)
			s.logf("replay %s: dropped: corrupt spec: %v", e.ID, err)
			s.evictUnreplayable(e.ID)
			continue
		}
		b, prog, err := spec.validate()
		if err != nil {
			s.rec.Add(telemetry.CounterStoreSkippedCorrupt, 1)
			s.logf("replay %s: dropped: %v", e.ID, err)
			s.evictUnreplayable(e.ID)
			continue
		}
		submitted, terr := time.Parse(time.RFC3339Nano, e.Submitted)
		if terr != nil {
			submitted = time.Now()
		}
		job := &Job{
			ID:        e.ID,
			Spec:      spec,
			bench:     b,
			prog:      prog,
			fp:        programFingerprint(b, prog),
			submitted: submitted,
			state:     StateQueued,
		}
		job.batchKey = batchKey(job)
		if ok, _ := s.register(job); !ok {
			// Not evicted: the submit record stays durable and the next
			// start (with a larger queue, or fewer jobs) retries.
			s.logf("replay %s: queue full; left in store for next start", e.ID)
			continue
		}
		requeued++
	}
	if requeued > 0 {
		s.rec.Add(telemetry.CounterJobsRestored, int64(requeued))
		s.rec.Add(telemetry.CounterStoreRequeued, int64(requeued))
	}
	return requeued, nil
}

// evictUnreplayable tombstones a pending record replayStore cannot turn
// back into a job, so it stops resurfacing on every start.
func (s *Server) evictUnreplayable(id string) {
	if err := s.store.Append(store.Record{Op: store.OpEvict, ID: id}); err != nil {
		s.logf("replay %s: evict: %v", id, err)
	}
}

// errNoResult distinguishes "never persisted" from real I/O failures.
var errNoResult = errors.New("service: no persisted result")

// loadResult serves a previously persisted result from the store (possibly
// from an earlier daemon run). A corrupt stored document is logged and
// counted, and reads as absent — one bad record never breaks lookups.
func (s *Server) loadResult(id string) (*JobResult, error) {
	if s.store == nil || !validJobID(id) {
		return nil, errNoResult
	}
	e, ok := s.store.Get(id)
	if !ok || e.Phase != store.PhaseTerminal || len(e.Result) == 0 {
		return nil, errNoResult
	}
	var res JobResult
	if err := json.Unmarshal(e.Result, &res); err != nil {
		s.rec.Add(telemetry.CounterStoreSkippedCorrupt, 1)
		s.logf("job %s: corrupt stored result skipped: %v", id, err)
		return nil, errNoResult
	}
	return &res, nil
}

// logSubmit appends a job's submit record durably. Submission is
// acknowledged to the client only after this returns: an acked job exists
// in the WAL, whatever happens to the process next.
func (s *Server) logSubmit(job *Job) error {
	if s.store == nil {
		return nil
	}
	spec, err := json.Marshal(job.Spec)
	if err != nil {
		return err
	}
	return s.persistIO("wal:submit:"+job.ID, func() error {
		return s.store.Append(store.Record{
			Op:   store.OpSubmit,
			ID:   job.ID,
			Time: fmtTime(job.submitted),
			Data: spec,
		})
	})
}

// rollbackSubmit evicts a submit record whose registration failed (queue
// full or draining): the client got an error, so the job must not be
// requeued by a later replay.
func (s *Server) rollbackSubmit(id string) {
	if s.store == nil {
		return
	}
	err := s.persistIO("wal:rollback:"+id, func() error {
		return s.store.Append(store.Record{Op: store.OpEvict, ID: id})
	})
	if err != nil {
		// Harmless even if it sticks: replaying the submit just requeues a
		// job the client was told to retry anyway.
		s.logf("job %s: rollback: %v (job may be requeued on restart)", id, err)
	}
}

// logStart appends a job's start transition. Best-effort: if the append
// fails the job still runs, and a crash replays it as queued — re-running
// a job is safe, losing one is not.
func (s *Server) logStart(job *Job) {
	if s.store == nil {
		return
	}
	err := s.persistIO("wal:start:"+job.ID, func() error {
		return s.store.Append(store.Record{Op: store.OpStart, ID: job.ID})
	})
	if err != nil {
		s.logf("job %s: log start: %v", job.ID, err)
	}
}

// saveResult persists one finished job's terminal result.
func (s *Server) saveResult(id string, res *JobResult) error {
	return s.saveTerminal(store.OpResult, id, res)
}

// saveCancel persists a queued-job cancellation (terminal without a run).
func (s *Server) saveCancel(id string, res *JobResult) error {
	return s.saveTerminal(store.OpCancel, id, res)
}

func (s *Server) saveTerminal(op store.Op, id string, res *JobResult) error {
	if s.store == nil {
		return nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return s.persistIO("wal:"+string(op)+":"+id, func() error {
		return s.store.Append(store.Record{
			Op:    op,
			ID:    id,
			State: string(res.State),
			Time:  res.SubmittedAt,
			Data:  data,
		})
	})
}

// logShutdown appends the shutdown record that lets the next start tell
// a drain from a crash. Drain calls it last, immediately before closing
// the store, so no job record can follow it in the log.
func (s *Server) logShutdown() error {
	if s.store == nil {
		return nil
	}
	return s.persistIO("wal:shutdown", func() error {
		return s.store.Append(store.Record{Op: store.OpShutdown, Time: fmtTime(time.Now())})
	})
}

// syncStoreCounters mirrors the store's cumulative stats into the service
// recorder as deltas, so /metrics and telemetry snapshots carry live
// store.* counters without double counting.
func (s *Server) syncStoreCounters() {
	if s.store == nil {
		return
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
}
