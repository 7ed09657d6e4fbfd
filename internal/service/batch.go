package service

import (
	"sync"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
	"psaflow/internal/telemetry"
)

// Batched execution. The flow engine is deterministic, so queued jobs that
// would execute the identical flow — same spec but for Source, same program
// fingerprint — must produce identical results. When a job's flow ends on
// its own (its own cancel or deadline did not end it), the worker takes
// every still-queued twin out of the queue and completes it with that
// outcome, stamped batched/batch_size/batch_leader. Until then a twin is an
// ordinary queued job: it cancels alone, and cancelling the running job
// leaves its twins queued for the next one to run.

// sameRun reports whether b would execute exactly a's flow. JobSpec is
// comparable; textually equal sources need no fingerprint.
func sameRun(a, b *Job) bool {
	sa, sb := a.Spec, b.Spec
	sa.Source, sb.Source = "", ""
	return sa == sb && (a.Spec.Source == b.Spec.Source || a.fingerprint() == b.fingerprint())
}

// takeTwins is the twin step of runJob: job's queued twins leave the queue
// and start behind it, and out, stamped with the group, will complete them.
// A twin cancelled while queued leaves the queue too, but does not start —
// its cancel completed it.
func (s *Server) takeTwins(job *Job, out *outcome) []*Job {
	taken := s.queue.Twins(job)
	if len(taken) == 0 {
		return nil
	}
	twins := taken[:0]
	for _, t := range taken {
		if s.start(t, func() {}, "batched behind leader "+job.ID) {
			twins = append(twins, t)
		}
	}
	if len(twins) > 0 {
		out.batchSize, out.batchLeader = len(twins)+1, job.ID
		s.rec.Add(telemetry.CounterBatchGroups, 1)
		s.rec.Add(telemetry.CounterBatchJobs, int64(len(twins)+1))
	}
	return twins
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
