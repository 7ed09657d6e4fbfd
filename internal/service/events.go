package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"psaflow/internal/events"
	"psaflow/internal/telemetry"
)

// defaultEventHeartbeat keeps idle streams alive through proxies.
const defaultEventHeartbeat = 10 * time.Second

// liveFlushInterval coalesces live-tail writes: without it every event
// costs every watcher a flush (a TCP packet each — with hundreds of
// watchers the packet work alone starves the flows the events describe).
// The first batch and the terminal event still flush immediately, so
// time-to-first-event and stream termination pay no coalescing latency.
const liveFlushInterval = 25 * time.Millisecond

// handleEvents streams a job's events as NDJSON (or SSE when the client
// asks via Accept: text/event-stream): the retained ring replays first —
// so the first event reaches the client immediately, regardless of where
// the flow is — then the live tail follows until the job reaches a
// terminal state or the client disconnects. `?from=<seq>` (or the SSE
// Last-Event-ID header) resumes after a dropped connection; events before
// the replay window are skipped and counted, never silently elided into
// an apparently complete stream. Nothing is buffered beyond the fixed
// ring: a watcher of an unbounded flow costs O(ring), not O(stream).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, doc := s.find(w, r, true)
	if job == nil {
		if doc != nil {
			// Evicted from the registry: the history is gone but the
			// outcome is not.
			writeErr(w, http.StatusGone, "job %q was evicted from the registry; its result is at /v1/jobs/%s/result", id, id)
		}
		return
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid from=%q: %v", v, err)
			return
		}
		from = n
	} else if sse {
		// SSE auto-reconnect sends the last seen seq; resume after it.
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil {
				from = n + 1
			}
		}
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	sub, ok := job.events.Subscribe(from)
	if !ok {
		writeErr(w, http.StatusTooManyRequests, "job %q already has the maximum number of event watchers", id)
		return
	}
	defer func() { s.rec.Add(telemetry.CounterEventsDropped, int64(sub.Close())) }()

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	// No flush before the first poll: a late subscriber (the common case —
	// at minimum the queued event is retained) gets headers and the replay
	// batch in one packet, which is what keeps time-to-first-event flat
	// under hundreds of concurrent watchers.

	heartbeat := s.cfg.EventHeartbeat
	if heartbeat <= 0 {
		heartbeat = defaultEventHeartbeat
	}
	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	// The coalescing timer is armed only while unflushed frames sit in the
	// buffer (a free-running per-watcher ticker would itself be a load at
	// high watcher counts), so an idle or fully-flushed stream costs no
	// timer wakeups at all.
	flushTimer := time.NewTimer(time.Hour)
	flushTimer.Stop()
	defer flushTimer.Stop()
	var flushC <-chan time.Time

	ctx := r.Context()
	first := true
	pending := false // frames written since the last flush
	const pollBatch = 64
	for {
		frames, done := sub.Poll(pollBatch)
		for _, f := range frames {
			if err := writeFrame(w, f, sse); err != nil {
				return // client went away mid-write
			}
			pending = true
		}
		if len(frames) == pollBatch {
			// The ring may hold more, and Ready fires only on a new publish
			// or the close — neither comes again on a finished job.
			continue
		}
		if done || first {
			// Headers + replay batch leave in one packet; the terminal
			// event is never held back by coalescing.
			flusher.Flush()
			pending, first = false, false
		}
		if done {
			return
		}
		if pending && flushC == nil {
			flushTimer.Reset(liveFlushInterval)
			flushC = flushTimer.C
		}
		select {
		case <-ctx.Done():
			return
		case <-sub.Ready():
			// New frames (or the close) are visible; loop and write them.
			// They buffer until the armed flush timer fires.
		case <-flushC:
			flushC = nil
			if pending {
				flusher.Flush()
				pending = false
			}
		case <-hb.C:
			// Keep-alive: a blank NDJSON line (parsers skip empty lines) or
			// an SSE comment.
			if sse {
				if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
					return
				}
			} else {
				if _, err := fmt.Fprint(w, "\n"); err != nil {
					return
				}
			}
			flusher.Flush()
			pending = false
		}
	}
}

// writeFrame renders one event frame using the broker's pre-marshalled
// line (shared by every watcher), so a replay from seq 0 is byte-for-byte
// the live stream.
func writeFrame(w http.ResponseWriter, f events.Frame, sse bool) error {
	if sse {
		_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", f.Seq, f.Type, f.Line)
		return err
	}
	if _, err := w.Write(f.Line); err != nil {
		return err
	}
	_, err := w.Write([]byte{'\n'})
	return err
}
