package service

import (
	"encoding/json"
	"fmt"
	"sync"

	"psaflow/internal/bench"
	"psaflow/internal/events"
	"psaflow/internal/minic"
	"psaflow/internal/telemetry"
)

// Batched multi-job execution. The flow engine is deterministic, so two
// queued jobs that would execute the identical flow — same benchmark,
// same program fingerprint, same result-affecting spec fields — must
// produce identical results. With batching enabled (Config.Batch), the
// worker that dequeues the first such job becomes the batch leader: it
// claims every still-queued job with the same batch key as a follower,
// runs the flow exactly once through the process-wide program cache (one
// lowering, one immutable bytecode image), and distributes the result to
// the whole group. Followers' JobResults carry
// batched/batch_size/batch_leader so clients can see their job rode a
// shared execution; cancellation of a follower is best-effort only (the
// leader's run proceeds and the follower still receives its result).

// batchKey identifies the flow a job would execute: the program
// fingerprint plus every result-affecting JobSpec field. Source is
// replaced by the fingerprint (two textually different submissions of
// the same program batch together); jobs differing in any other field —
// including timeouts and fault specs, which can change the outcome —
// never share an execution.
func batchKey(spec JobSpec, fp uint64) string {
	spec.Source = ""
	b, _ := json.Marshal(spec)
	return fmt.Sprintf("%016x|%s", fp, b)
}

// bundledFP caches the fingerprint of each benchmark's bundled source so
// submissions without custom source don't re-parse per request.
var bundledFP sync.Map // bench name → uint64

func programFingerprint(b *bench.Benchmark, prog *minic.Program) uint64 {
	if prog != nil {
		return minic.Fingerprint(prog)
	}
	if v, ok := bundledFP.Load(b.Name); ok {
		return v.(uint64)
	}
	fp := minic.Fingerprint(b.Parse())
	bundledFP.Store(b.Name, fp)
	return fp
}

// enrollBatch registers a freshly-queued job as a batching candidate.
// Caller holds s.mu (enqueue serializes with claimFollowers' take).
func (s *Server) enrollBatch(job *Job) {
	if !s.cfg.Batch {
		return
	}
	s.pendingBatch[job.batchKey] = append(s.pendingBatch[job.batchKey], job)
}

// claimFollowers is called by the worker that just started leader: it
// takes every still-queued job with the leader's batch key out of the
// pending set and starts it behind the leader. Claimed followers remain
// in the queue; the worker that later dequeues one finds it no longer
// queued and skips it (the same mechanism that skips jobs cancelled while
// queued). Jobs submitted after this point form the next batch.
func (s *Server) claimFollowers(leader *Job) []*Job {
	if !s.cfg.Batch {
		return nil
	}
	s.mu.Lock()
	pending := s.pendingBatch[leader.batchKey]
	delete(s.pendingBatch, leader.batchKey)
	s.mu.Unlock()
	var followers []*Job
	for _, f := range pending {
		// A no-op cancel: the follower has no execution of its own to
		// stop, and the leader's run must not die with one rider. A job
		// that does not start was cancelled while queued (or is the
		// leader itself).
		if f != leader && s.start(f, func() {}, "batched behind leader "+leader.ID) {
			followers = append(followers, f)
		}
	}
	if len(followers) > 0 {
		s.rec.Add(telemetry.CounterBatchGroups, 1)
		s.rec.Add(telemetry.CounterBatchJobs, int64(len(followers)+1))
		s.publish(leader, events.Event{Type: events.TypeStarted, Name: leader.Spec.Bench,
			Detail: fmt.Sprintf("leading a batch of %d identical jobs", len(followers)+1)})
		s.logf("job %s: leading a batch of %d identical jobs", leader.ID, len(followers)+1)
	}
	return followers
}
