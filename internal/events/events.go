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
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
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
	TypeNote           = "note"            // a span's annotation (retry, give-up, degradation, fallback)
	TypeDone           = "done"            // terminal: flow completed
	TypeFailed         = "failed"          // terminal: flow failed (detail = error)
	TypeCancelled      = "cancelled"       // terminal: job cancelled
)

// Event is one observation in a job's stream. Seq is assigned by the
// broker and is dense per job (0, 1, 2, ...), so `?from=<seq>` resume and
// gap detection are both exact. The JSON shape is the NDJSON/SSE wire
// format served by GET /v1/jobs/{id}/events.
type Event struct {
	Seq   uint64  `json:"seq"`
	TS    string  `json:"ts"` // RFC3339Nano, UTC, stamped at publish
	Type  string  `json:"type"`
	Job   string  `json:"job,omitempty"`
	Name  string  `json:"name,omitempty"`   // task/branch/sweep the event is about
	DurMS float64 `json:"dur_ms,omitempty"` // task_end and terminal events
	// Args is the event's detail as a format of the table and its
	// operands: the frame renders it into "detail" at publish, so an event
	// costs its frame and nothing else.
	Args Detail `json:"-"`
}

// Frame is one published event as the ring keeps it: its canonical wire
// encoding, plus the two fields a stream writer needs without decoding it
// (SSE's id: and event:). The broker encodes each event exactly once at
// publish time (appendEvent) and every subscriber shares the bytes — with hundreds of
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

// lineChunk is the size of the slab chunks a broker cuts frame lines from:
// a line costs its share of a chunk, not an allocation of its own. A line
// longer than a chunk gets a chunk of its own length.
const lineChunk = 2 << 10

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
	buf []Frame
	// chunk is the slab the next line is cut from: its length is what
	// earlier lines took, its capacity the chunk's end.
	chunk   []byte
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
	e.Job = b.job
	b.next++
	// The line is built on the stack and cut from the slab at its length: a
	// ring holds up to size of them for as long as the job is retained.
	var buf [256]byte
	f := Frame{Seq: e.Seq, Type: e.Type, Line: b.cut(appendEvent(buf[:0], &e, b.now().UTC()))}
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

// cut copies line into the broker's slab and returns the copy with its
// capacity at its length, so appending to one frame's line can never write
// into the next. Called with b.mu held.
func (b *Broker) cut(line []byte) []byte {
	if len(line) > lineChunk {
		return append(make([]byte, 0, len(line)), line...)
	}
	if len(line) > cap(b.chunk)-len(b.chunk) {
		b.chunk = make([]byte, 0, lineChunk)
	}
	start := len(b.chunk)
	b.chunk = append(b.chunk, line...)
	return b.chunk[start:len(b.chunk):len(b.chunk)]
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

// appendEvent appends e's wire encoding, stamped at ts, to dst: exactly the
// bytes json.Marshal gives for e with TS set to ts in RFC3339Nano and its
// detail rendered into "detail" (left out when it renders empty), built
// into one buffer without reflection. A DurMS of NaN or ±Inf, which
// json.Marshal refuses, is left out as a zero one is.
func appendEvent(dst []byte, e *Event, ts time.Time) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"ts":"`...)
	dst = ts.AppendFormat(dst, time.RFC3339Nano) // digits and -:.TZ, nothing to escape
	dst = append(dst, `","type":`...)
	dst = appendString(dst, e.Type)
	if e.Job != "" {
		dst = append(dst, `,"job":`...)
		dst = appendString(dst, e.Job)
	}
	if e.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, e.Name)
	}
	var buf [192]byte
	if text := e.Args.Append(buf[:0]); len(text) > 0 {
		dst = append(dst, `,"detail":`...)
		dst = appendString(dst, text)
	}
	if e.DurMS != 0 && !math.IsNaN(e.DurMS) && !math.IsInf(e.DurMS, 0) {
		dst = append(dst, `,"dur_ms":`...)
		dst = appendFloat(dst, e.DurMS)
	}
	return append(dst, '}')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from 1e21
// up, with the exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes a string: `"` and
// `\` backslashed; \b, \f, \n, \r and \t by name; the other control
// characters and <, > and & as \u00XX; U+2028 and U+2029 as \u2028 and
// \u2029; each byte of invalid UTF-8 as \ufffd.
func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := decodeRune(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeRune is utf8.DecodeRune of the first bytes of s, a string or a
// byte slice, copied so that neither is converted to the other.
func decodeRune[S string | []byte](s S) (rune, int) {
	var buf [utf8.UTFMax]byte
	return utf8.DecodeRune(buf[:copy(buf[:], s)])
}
