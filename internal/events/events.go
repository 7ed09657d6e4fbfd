// Package events is the live flow-observability channel: a typed job
// event model plus a per-job ring-buffered broker that fans events out to
// any number of stream subscribers. The engine's telemetry spans explain a
// finished run; events explain a run *while it happens* — the queued →
// started → task/branch/DSE/fault progression the paper's PSA-flows exist
// to make explicit, delivered to clients as it occurs.
//
// The broker holds a bounded ring of the most recent events. Late
// subscribers replay the retained history from any sequence number and
// then follow the live tail; subscribers too slow for the ring lose the
// oldest events and are told exactly how many (drop-count accounting), so
// a consumer always knows whether its view is complete. Publishing never
// blocks on a subscriber, so one stalled watcher cannot slow a flow.
package events

import (
	"encoding/json"
	"sync"
	"time"
)

// Event types, in rough lifecycle order. The lifecycle types (queued,
// started, done, failed, cancelled) are published by the serving layer;
// the execution types are emitted by the engine through the telemetry
// recorder's event sink.
const (
	TypeQueued         = "queued"          // job accepted into the queue
	TypeStarted        = "started"         // a worker began executing the flow
	TypeTaskStart      = "task_start"      // a flow task span opened
	TypeTaskEnd        = "task_end"        // a flow task span closed (dur_ms set)
	TypeBranchDecision = "branch_decision" // a branch-point selector chose path(s)
	TypeDSEProgress    = "dse_progress"    // a DSE sweep advanced / concluded
	TypeFaultInjected  = "fault_injected"  // the fault injector fired at a tool site
	TypeRetry          = "retry"           // a transient task failure is being retried
	TypeDegraded       = "degraded"        // a branch path was degraded to Infeasible
	TypeNote           = "note"            // free-form span annotation (resilience detail)
	TypeDone           = "done"            // terminal: flow completed
	TypeFailed         = "failed"          // terminal: flow failed (detail = error)
	TypeCancelled      = "cancelled"       // terminal: job cancelled
)

// Event is one observation in a job's stream. Seq is assigned by the
// broker and is dense per job (0, 1, 2, ...), so `?from=<seq>` resume and
// gap detection are both exact. The JSON shape is the NDJSON/SSE wire
// format served by GET /v1/jobs/{id}/events.
type Event struct {
	Seq    uint64  `json:"seq"`
	TS     string  `json:"ts"` // RFC3339Nano, UTC, stamped at publish
	Type   string  `json:"type"`
	Job    string  `json:"job,omitempty"`
	Name   string  `json:"name,omitempty"`   // task/branch/sweep the event is about
	Detail string  `json:"detail,omitempty"` // free-form context (path chosen, error, ...)
	DurMS  float64 `json:"dur_ms,omitempty"` // task_end and terminal events
}

// Frame is one published event as the ring keeps it: its canonical wire
// encoding, plus the two fields a stream writer needs without decoding it
// (SSE's id: and event:). The broker marshals each event exactly once at
// publish time and every subscriber shares the bytes — with hundreds of
// watchers on one job, per-watcher re-marshaling would dominate streaming
// cost — and it makes the replay-equals-live guarantee literal: the same
// Line bytes are served to every subscriber at every point in time. The
// Event itself is not kept: everything in it is in Line.
type Frame struct {
	Seq  uint64
	Type string
	Line []byte // compact JSON of the Event, no trailing newline; do not mutate
}

// Defaults applied when NewBroker is given non-positive sizes.
const (
	DefaultRingSize = 1024
	DefaultMaxSubs  = 1024
)

// Broker is one job's event hub: a bounded ring of the newest events plus
// the live subscriber set. All methods are safe for concurrent use;
// Publish is called from parallel branch-path goroutines.
type Broker struct {
	job  string
	now  func() time.Time // injectable clock for tests
	size int              // ring capacity in events

	mu sync.Mutex
	// buf is the ring storage. It grows by append until it holds size
	// frames — a finished job's few dozen events never pay for the whole
	// window — and from then on slot = seq % size.
	buf     []Frame
	head    uint64 // seq of the oldest event still retained
	next    uint64 // seq the next Publish will assign (== total published)
	closed  bool
	maxSubs int
	subs    map[*Sub]struct{}
	dropped uint64 // drops folded in from closed subscribers
}

// NewBroker builds a broker retaining the last ringSize events and
// admitting at most maxSubs concurrent subscribers (non-positive values
// take the defaults).
func NewBroker(job string, ringSize, maxSubs int) *Broker {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	if maxSubs <= 0 {
		maxSubs = DefaultMaxSubs
	}
	return &Broker{
		job:     job,
		now:     time.Now,
		size:    ringSize,
		maxSubs: maxSubs,
		subs:    make(map[*Sub]struct{}),
	}
}

// Publish stamps e with the next sequence number, the wall clock, and the
// job ID, appends it to the ring (evicting the oldest event when full),
// and wakes subscribers. Publishing to a closed broker is a no-op (a
// worker racing a queued-cancel must not resurrect the stream). Returns
// whether the event was accepted.
func (b *Broker) Publish(e Event) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	e.Seq = b.next
	e.TS = b.now().UTC().Format(time.RFC3339Nano)
	e.Job = b.job
	b.next++
	line, _ := json.Marshal(e) // Event is strings + numbers; cannot fail
	f := Frame{Seq: e.Seq, Type: e.Type, Line: line}
	if len(b.buf) < b.size {
		b.buf = append(b.buf, f)
	} else {
		b.buf[e.Seq%uint64(b.size)] = f
		b.head++
	}
	subs := make([]*Sub, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		s.wake()
	}
	return true
}

// Close ends the stream: subscribers drain the retained ring and then see
// the end of stream. Idempotent. The ring is kept so late subscribers can
// still replay a finished job's history until the broker is dropped.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Sub, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		s.wake()
	}
}

// Subscribe attaches a subscriber whose cursor starts at sequence number
// from (0 = everything retained). Subscribing to a closed broker is
// allowed — the subscriber replays the ring and immediately reaches end
// of stream. Returns false when the broker is at its subscriber cap.
func (b *Broker) Subscribe(from uint64) (*Sub, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) >= b.maxSubs {
		return nil, false
	}
	if from > b.next {
		// A resume point past the tail (stale client state) starts at the
		// live edge instead of waiting for a seq that may never arrive.
		from = b.next
	}
	s := &Sub{b: b, cursor: from, notify: make(chan struct{}, 1)}
	b.subs[s] = struct{}{}
	return s, true
}

// Stats reports the broker's lifetime publish count, total events dropped
// (folded in from closed subscribers plus live subscribers' current
// gaps), and the live subscriber count.
func (b *Broker) Stats() (published, dropped uint64, subs int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dropped = b.dropped
	for s := range b.subs {
		dropped += s.dropped
	}
	return b.next, dropped, len(b.subs)
}

// Sub is one subscriber's cursor into a broker's stream. Not safe for
// concurrent use by multiple goroutines (each stream handler owns one).
type Sub struct {
	b      *Broker
	notify chan struct{}

	cursor  uint64 // next seq to deliver
	dropped uint64 // events the ring evicted before this sub read them
	closed  bool
}

// wake is the broker's non-blocking notification (cap-1 channel: a
// pending wake already covers any number of new events).
func (s *Sub) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Ready returns the wake channel: it receives after new events are
// published or the broker closes. After draining it, call Poll again —
// the channel is a level trigger collapsed to one token.
func (s *Sub) Ready() <-chan struct{} { return s.notify }

// Poll returns up to max buffered frames at the cursor and whether the
// stream is over (broker closed and fully drained). If the ring evicted
// events the subscriber had not read yet, the cursor jumps forward and
// the loss is added to Dropped — delivery resumes at the oldest retained
// event, never blocks, and never delivers out of order.
func (s *Sub) Poll(max int) (frames []Frame, done bool) {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.cursor < b.head {
		s.dropped += b.head - s.cursor
		s.cursor = b.head
	}
	for s.cursor < b.next && len(frames) < max {
		frames = append(frames, b.buf[s.cursor%uint64(b.size)])
		s.cursor++
	}
	return frames, b.closed && s.cursor == b.next
}

// Dropped returns how many events this subscriber lost to ring eviction
// (including any gap between its requested start and the retained ring).
func (s *Sub) Dropped() uint64 { return s.dropped }

// Close detaches the subscriber, folding its drop count into the broker
// total, and returns that drop count. Idempotent.
func (s *Sub) Close() uint64 {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if !s.closed {
		s.closed = true
		b.dropped += s.dropped
		delete(b.subs, s)
	}
	return s.dropped
}
