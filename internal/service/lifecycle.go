package service

import (
	"encoding/json"
	"errors"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/events"
	"psaflow/internal/experiments"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// The job lifecycle: queued → running → done | failed | cancelled, as three
// transitions. admit, start and complete are the only code that changes a
// job's state or writes a job's record (appendRecord; its one caller
// outside this file is Drain's shutdown marker, which names no job).
// Handlers, the worker, the twin step and start-up replay decide *that* a
// transition happens and call it; none of them knows the order of the
// steps inside one.

// newJob is the one place a Job is built: a fresh submission, a replayed
// submit record and the tests all come through here.
func (s *Server) newJob(id string, spec JobSpec, b *bench.Benchmark, prog program, submitted time.Time) *Job {
	return &Job{ID: id, Spec: spec, bench: b, prog: prog, submitted: submitted, state: StateQueued}
}

// Why enqueue refused a job; admit has evicted its record again by the time
// it says so.
var (
	errQueueFull = errors.New("job queue is full")
	errDraining  = errors.New("server is draining")
)

// admit is nothing → queued, in this order: the submit record is appended
// and fsynced, the job enters the registry and the queue, and the caller
// acknowledges with the returned status — an acknowledged job exists in the
// WAL whatever happens to the process next. The status is snapshotted before
// the enqueue: an idle worker can start (even finish) the job before the 202
// is written, and the acknowledgement is of the submission, so it reads
// "queued". A refused enqueue evicts the record again — the client is told
// to retry, so a later replay must not run the job as well; any other error
// is the submit append's own, and nothing was written.
func (s *Server) admit(job *Job) (JobStatus, error) {
	if s.store != nil {
		spec, err := json.Marshal(job.Spec)
		if err == nil {
			err = s.appendRecord("wal:submit:"+job.ID, store.Record{Op: store.OpSubmit, ID: job.ID, Time: fmtTime(job.submitted), Data: spec})
		}
		if err != nil {
			s.logf("job %s: persist submit: %v", job.ID, err)
			return JobStatus{}, err
		}
	}
	s.at("admit:recorded")
	accepted := job.Status()
	if err := s.enqueue(job, false); err != nil {
		s.at("admit:refused")
		// Harmless even if the evict fails: replaying the submit requeues
		// a job the client was told to retry anyway.
		s.evict(job.ID, "rollback")
		if errors.Is(err, errQueueFull) {
			s.rec.Add(telemetry.CounterJobsRejected, 1)
		}
		return JobStatus{}, err
	}
	s.at("admit:enqueued")
	s.logf("job %s: queued bench=%s mode=%s", job.ID, job.Spec.Bench, job.Spec.Mode)
	return accepted, nil
}

// enqueue is the second half of admit, and all of it for a job replayed
// from a submit record that is already durable: the job gets its event
// stream, enters the queue and the registry, and is counted. A replayed job
// is never refused for a full queue (jobQueue.Push). The queue's own closed
// flag (set by Drain) backs up the draining check here, so a submission can
// never land in a closed queue.
func (s *Server) enqueue(job *Job, replayed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return errDraining
	}
	// The broker must exist — with the queued event already in its ring —
	// before the push: a worker can dequeue the job and publish "started"
	// the instant the push completes. (If the push then fails, the
	// unregistered broker is simply garbage.)
	job.events = events.NewBroker(job.ID, s.cfg.EventRingSize, s.cfg.MaxWatchersPerJob)
	job.events.Publish(events.New(events.JobQueued, job.Spec.Bench, []string{job.Spec.Mode}))
	pushed, closed := s.queue.Push(job, replayed)
	if closed {
		return errDraining
	}
	if !pushed {
		return errQueueFull
	}
	s.jobs[job.ID] = job
	s.rec.Add(telemetry.CounterJobsSubmitted, 1)
	s.rec.Add(telemetry.CounterEventsPublished, 1)
	return nil
}

// start is queued → running: the job is stamped and handed its cancel
// function, counted as started with its queue wait, and says so on its
// event stream. false means the job is no longer queued — it was cancelled,
// and the cancel completed it. leader is empty for a job that runs its own
// flow; a twin names the job whose run it rides instead.
func (s *Server) start(job *Job, cancel func(), leader string) bool {
	waitMS, ok := job.markRunning(cancel)
	if !ok {
		return false
	}
	s.rec.Add(telemetry.CounterJobsStarted, 1)
	s.rec.Add(telemetry.CounterQueueWaitMillis, int64(waitMS))
	if leader != "" {
		s.publish(job, events.New(events.JobBatched, job.Spec.Bench, []string{leader}, waitMS))
		s.logf("job %s: batched behind leader %s", job.ID, leader)
	} else {
		s.publish(job, events.New(events.JobStarted, job.Spec.Bench, nil, waitMS))
		s.logf("job %s: start bench=%s mode=%s (waited %.0fms)", job.ID, job.Spec.Bench, job.Spec.Mode, waitMS)
	}
	return true
}

// outcome is what a terminal transition is told: the state to end in, the
// failure class, and what the flow produced. A run's outcome is shared
// verbatim with the twins it took; batchSize > 0 stamps the result with the
// batch fields.
type outcome struct {
	state   JobState
	msg     string
	class   string
	results []experiments.DesignResult
	rep     *telemetry.Report

	batchSize   int
	batchLeader string
}

// complete is the terminal transition, for a job that ran (op OpResult: a
// run and its twins) and for one cancelled while still queued (op OpCancel:
// a no-op, ok=false, once a worker or a twin step has started it). In this
// order:
//
//  1. visible — the result is encoded once and state, error, finish time
//     and result bytes change in one critical section of the job; readers
//     held in GET /result are released;
//  2. counted — the per-state job counter;
//  3. published — the terminal event, then the stream closes;
//  4. durable — the terminal record (op, with the same bytes) is appended
//     and fsynced; a failed append is logged, not surfaced;
//  5. retired — the job is enrolled for registry eviction.
//
// Known gap: between 1 and 4 a client can read a terminal state and result
// that a kill -9 un-happens — the restart finds only the submit record and
// requeues the job, which finishes again with a different document.
// Closing it moves 4 in front of 1, one fsync earlier on the client's
// clock: a change inside this function and nowhere else (ROADMAP item 2).
// lifecycle_model_test.go reaches the gap through the step hook and counts it.
func (s *Server) complete(job *Job, op store.Op, out *outcome) (JobStatus, bool) {
	st, doc, ok := job.terminate(out, op == store.OpCancel)
	if !ok {
		return st, false
	}
	s.at("complete:visible")
	terminal := events.JobFailed
	switch st.State {
	case StateDone:
		s.rec.Add(telemetry.CounterJobsCompleted, 1)
		terminal = events.JobDone
	case StateCancelled:
		s.rec.Add(telemetry.CounterJobsCancelled, 1)
		terminal = events.JobCancelled
	default:
		s.rec.Add(telemetry.CounterJobsFailed, 1)
	}
	e := events.New(terminal, "", []string{st.Error})
	e.DurMS = st.RunMS
	s.publish(job, e)
	job.events.Close()
	s.at("complete:published")
	err := s.appendRecord("wal:"+string(op)+":"+job.ID, store.Record{Op: op, ID: job.ID, State: string(st.State), Time: st.SubmittedAt, Data: doc})
	if err != nil {
		s.logf("job %s: persist %s: %v", job.ID, op, err)
	}
	s.at("complete:durable")
	s.retireJob(job)
	s.logf("job %s: %s (run %.0fms) %s", job.ID, st.State, st.RunMS, st.Error)
	return st, true
}

// evict tombstones a submit record that must not be replayed: why is
// "rollback" for a registration admit refused, "replay" for a pending
// record start-up cannot turn back into a job.
func (s *Server) evict(id, why string) {
	if err := s.appendRecord("wal:"+why+":"+id, store.Record{Op: store.OpEvict, ID: id}); err != nil {
		s.logf("job %s: evict (%s): %v (the record may resurface on restart)", id, why, err)
	}
}

// appendRecord writes one record to the job store durably, under the
// daemon's I/O fault injector and retry policy (persistIO, which knows the
// write as what). A daemon without a data directory has no records.
func (s *Server) appendRecord(what string, rec store.Record) error {
	if s.store == nil {
		return nil
	}
	return s.persistIO(what, func() error { return s.store.Append(rec) })
}

// at is the test seam of admit and complete: Server.step is nil outside
// tests, and a test that sets it can abandon the server between two steps.
func (s *Server) at(step string) {
	if s.step != nil {
		s.step(step)
	}
}

// lookup finds a live job by ID.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// publish appends one event to the job's stream and counts it.
func (s *Server) publish(job *Job, e events.Event) {
	if job.events.Publish(e) {
		s.rec.Add(telemetry.CounterEventsPublished, 1)
	}
}

// retireJob enrolls a terminal job in the eviction FIFO and evicts the
// oldest terminal jobs beyond the retention cap — the registry (and the
// event rings it pins) stays bounded on a long-lived daemon. Evicted
// jobs' status/result lookups fall back to the persisted result.
func (s *Server) retireJob(job *Job) {
	retain := s.cfg.RetainJobs
	if retain < 0 {
		return
	}
	if retain == 0 {
		retain = defaultRetainJobs
	}
	var evicted []string
	s.mu.Lock()
	s.retired = append(s.retired, job.ID)
	for len(s.retired) > retain {
		id := s.retired[0]
		s.retired = s.retired[1:]
		if j := s.jobs[id]; j != nil {
			j.events.Close() // idempotent; tears the ring down with the entry
			delete(s.jobs, id)
			evicted = append(evicted, id)
		}
	}
	s.mu.Unlock()
	if len(evicted) > 0 {
		s.rec.Add(telemetry.CounterJobsEvicted, int64(len(evicted)))
		s.logf("evicted %d terminal job(s) from the registry (retain=%d)", len(evicted), retain)
	}
}
