package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"psaflow/internal/cluster"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// The job endpoints. A handler decodes, validates and routes; what happens
// to the job is a transition in lifecycle.go.

// defaultMaxBody caps the submit request body when Config.MaxBody is zero
// (untrusted MiniC source should never approach a mebibyte).
const defaultMaxBody = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeResult serves an encoded result document — a finished job's bytes
// or the store's copy of them — in the layout writeJSON gives a struct:
// the one compact encoding, indented, never decoded on the way.
func writeResult(w http.ResponseWriter, doc []byte) {
	var body bytes.Buffer
	body.Grow(2 * len(doc)) // indentation adds about half again
	if err := json.Indent(&body, doc, "", "  "); err != nil {
		writeErr(w, http.StatusInternalServerError, "stored result is not valid JSON: %v", err)
		return
	}
	body.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body.Bytes()) // a client that went away is not an error to report
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// find resolves the {id} of a job request down the ladder every job
// endpoint shares: the live registry entry; else (when the endpoint can
// answer from one) the stored terminal document of a job evicted from the
// registry or finished under a previous daemon run; else the node whose ID
// prefixes the job ID, by proxy; else 404. With neither a job nor a
// document returned, the response has been written.
func (s *Server) find(w http.ResponseWriter, r *http.Request, stored bool) (*Job, []byte) {
	id := r.PathValue("id")
	if job := s.lookup(id); job != nil {
		return job, nil
	}
	if stored {
		if doc, ok := s.storedResult(id); ok {
			return nil, doc
		}
	}
	if !s.proxyToOwner(w, r, id) {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
	}
	return nil, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	// Token-streaming decode: fields are parsed as their bytes arrive, so a
	// chunked submission starts decoding on its first chunk and the body is
	// never buffered whole. Unknown fields still 400 by name.
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.rec.Add(telemetry.CounterJobsRejected, 1)
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	b, prog, err := spec.validate()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}
	// Pin a flow reference to its concrete version before anything is
	// persisted: the submit record then names an immutable document, so a
	// crash replay — or a version registered a millisecond later — can
	// never change which graph this job runs.
	if spec.Flow != "" {
		_, pinned, err := s.resolveFlowRef(spec.Flow)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid job: %v", err)
			return
		}
		spec.Flow = pinned
	}
	// Cluster placement: route the job to its ring owner unless this
	// request is already a forward (one hop maximum — a stale ring can
	// never orbit a job). A failed forward runs the job locally instead:
	// peer loss degrades placement, it never fails a submission.
	if c := s.cfg.Cluster; c != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		if owner := c.OwnerForJob(spec.Tenant, programFingerprint(b, prog)); owner != c.Self() {
			s.logf("cluster: routing job (tenant=%q bench=%s) to owner %s", spec.Tenant, spec.Bench, owner)
			if s.forwardSubmit(w, r.Context(), owner, spec) {
				return
			}
		}
	}
	accepted, err := s.admit(s.newJob(s.newID(), spec, b, prog, time.Now()))
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, accepted)
	case errors.Is(err, errDraining):
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, errQueueFull):
		writeErr(w, http.StatusTooManyRequests, "job queue is full (%d queued); retry later", s.cfg.QueueSize)
	default:
		writeErr(w, http.StatusServiceUnavailable, "could not persist job submission; retry later")
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, doc := s.find(w, r, true)
	if job != nil {
		writeJSON(w, http.StatusOK, job.Status())
	} else if doc != nil {
		// The stored result document embeds the terminal status.
		var st JobStatus
		if err := json.Unmarshal(doc, &st); err != nil {
			writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

// resultHold is how long GET /result waits for a live job to finish before
// it answers 409. A client that polls for completion is answered the moment
// the result exists, not told "not yet" some fifty times per 100 ms job, so
// what a job costs the daemon no longer follows how fast its client asks. A
// second is above every bundled job and well under the peer and shutdown
// timeouts a held request has to fit in.
const resultHold = time.Second

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, doc := s.find(w, r, true)
	if job != nil {
		if doc = job.waitResult(resultHold); doc == nil {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": "job has not finished", "state": job.State(),
			})
			return
		}
	}
	if doc != nil {
		writeResult(w, doc)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, _ := s.find(w, r, false)
	if job == nil {
		return
	}
	// Still queued: the terminal state and counter are recorded now so the
	// cancel is immediately visible, the store gets a cancel record so a
	// restart doesn't requeue the job its client already killed, and the
	// job leaves the queue, freeing its slot. A worker that popped it in
	// the meantime finds it no longer queued and skips it.
	st, cancelled := s.complete(job, store.OpCancel, &outcome{
		state: StateCancelled, msg: "cancelled before start", class: FailureCancelled,
	})
	if cancelled {
		s.queue.Remove(job)
		writeJSON(w, http.StatusOK, st)
		return
	}
	if job.cancelRunning() {
		s.logf("job %s: cancellation requested", job.ID)
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	writeJSON(w, http.StatusConflict, map[string]any{
		"error": "job already finished", "state": job.State(),
	})
}
