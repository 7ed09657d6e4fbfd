package events

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	base := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func publishN(t *testing.T, b *Broker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !b.Publish(Event{Type: TypeNote, Name: fmt.Sprintf("e%d", i)}) {
			t.Fatalf("publish %d rejected", i)
		}
	}
}

// decode returns the event a frame's Line carries, having checked that the
// two fields the frame keeps beside it agree with it.
func decode(t *testing.T, f Frame) Event {
	t.Helper()
	var e Event
	if err := json.Unmarshal(f.Line, &e); err != nil {
		t.Fatalf("frame line %s: %v", f.Line, err)
	}
	if e.Seq != f.Seq || e.Type != f.Type {
		t.Fatalf("frame says seq %d type %q, its line %s", f.Seq, f.Type, f.Line)
	}
	return e
}

func drain(t *testing.T, s *Sub) ([]Event, bool) {
	t.Helper()
	var all []Event
	for {
		frames, done := s.Poll(3) // small batch to exercise repeated polls
		for _, f := range frames {
			all = append(all, decode(t, f))
		}
		if len(frames) == 0 {
			return all, done
		}
		if done {
			return all, true
		}
	}
}

func TestPublishStampsDenseSeqAndJob(t *testing.T) {
	b := NewBroker("job-1", 8, 4)
	b.now = fixedClock()
	publishN(t, b, 3)
	sub, ok := b.Subscribe(0)
	if !ok {
		t.Fatal("subscribe failed")
	}
	evs, done := drain(t, sub)
	if done {
		t.Fatal("stream reported done while broker open")
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Errorf("event %d: seq=%d", i, e.Seq)
		}
		if e.Job != "job-1" {
			t.Errorf("event %d: job=%q", i, e.Job)
		}
		if e.TS == "" {
			t.Errorf("event %d: no timestamp", i)
		}
	}
}

// A subscriber that arrives after events were published must see exactly
// what a live subscriber saw: same events, same seqs, same marshalled
// bytes (the stream endpoint's replay guarantee rides on this).
func TestLateSubscriberReplayMatchesLive(t *testing.T) {
	b := NewBroker("job-replay", 64, 4)
	b.now = fixedClock()
	live, _ := b.Subscribe(0)
	var liveEvs []Event
	var liveLines [][]byte
	for i := 0; i < 10; i++ {
		publishN(t, b, 1)
		frames, _ := live.Poll(16)
		for _, f := range frames {
			liveEvs = append(liveEvs, decode(t, f))
			liveLines = append(liveLines, f.Line)
		}
	}
	b.Close()
	if _, done := live.Poll(16); !done {
		t.Fatal("live subscriber did not see close")
	}

	late, ok := b.Subscribe(0)
	if !ok {
		t.Fatal("subscribe after close failed")
	}
	lateEvs, done := drain(t, late)
	if !done {
		t.Fatal("late subscriber did not reach end of stream")
	}
	if !reflect.DeepEqual(liveEvs, lateEvs) {
		t.Fatalf("replay diverged from live view:\nlive: %+v\nlate: %+v", liveEvs, lateEvs)
	}
	// The shared pre-marshalled lines make the wire-bytes guarantee exact.
	lateSub, _ := b.Subscribe(0)
	lateFrames, _ := lateSub.Poll(64)
	for i, f := range lateFrames {
		if !bytes.Equal(f.Line, liveLines[i]) {
			t.Fatalf("frame %d wire bytes diverged: live %s late %s", i, liveLines[i], f.Line)
		}
		if decoded := decode(t, f); decoded != liveEvs[i] {
			t.Fatalf("frame %d line does not decode to its event: %s, want %+v", i, f.Line, liveEvs[i])
		}
	}
}

func TestResumeFromSeq(t *testing.T) {
	b := NewBroker("job-resume", 64, 4)
	publishN(t, b, 10)
	sub, _ := b.Subscribe(7)
	evs, _ := drain(t, sub)
	if len(evs) != 3 || evs[0].Seq != 7 {
		t.Fatalf("resume from 7: got %d events starting at seq %d", len(evs), evs[0].Seq)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("resume inside ring counted %d drops", sub.Dropped())
	}

	// Resume past the tail clamps to the live edge rather than hanging.
	b.Close()
	past, _ := b.Subscribe(99)
	frames, done := past.Poll(16)
	if len(frames) != 0 || !done {
		t.Fatalf("resume past tail: got %d events, done=%t", len(frames), done)
	}
}

// A subscriber slower than the ring loses the oldest events and is told
// exactly how many; delivery resumes in order at the oldest retained seq.
func TestSlowSubscriberDropAccounting(t *testing.T) {
	b := NewBroker("job-slow", 4, 4)
	sub, _ := b.Subscribe(0)
	publishN(t, b, 10) // ring holds seqs 6..9; sub missed 0..5
	evs, _ := drain(t, sub)
	if sub.Dropped() != 6 {
		t.Fatalf("dropped=%d, want 6", sub.Dropped())
	}
	if len(evs) != 4 || evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("delivered wrong window: %+v", evs)
	}
	// Closing folds the sub's drops into the broker total.
	if got := sub.Close(); got != 6 {
		t.Fatalf("Close returned %d, want 6", got)
	}
	_, dropped, subs := b.Stats()
	if dropped != 6 || subs != 0 {
		t.Fatalf("Stats after close: dropped=%d subs=%d", dropped, subs)
	}
}

func TestMaxSubscribers(t *testing.T) {
	b := NewBroker("job-cap", 8, 2)
	s1, ok1 := b.Subscribe(0)
	_, ok2 := b.Subscribe(0)
	if !ok1 || !ok2 {
		t.Fatal("first two subscribes should succeed")
	}
	if _, ok := b.Subscribe(0); ok {
		t.Fatal("third subscribe should be rejected at cap 2")
	}
	s1.Close()
	if _, ok := b.Subscribe(0); !ok {
		t.Fatal("subscribe after a slot freed should succeed")
	}
}

func TestPublishAfterCloseRejected(t *testing.T) {
	b := NewBroker("job-closed", 8, 4)
	publishN(t, b, 2)
	b.Close()
	b.Close() // idempotent
	if b.Publish(Event{Type: TypeNote}) {
		t.Fatal("publish after close accepted")
	}
	published, _, _ := b.Stats()
	if published != 2 {
		t.Fatalf("published=%d, want 2", published)
	}
	// The ring survives close: a late subscriber still replays history.
	sub, _ := b.Subscribe(0)
	evs, done := drain(t, sub)
	if len(evs) != 2 || !done {
		t.Fatalf("post-close replay: %d events, done=%t", len(evs), done)
	}
}

func TestSubCloseIdempotent(t *testing.T) {
	b := NewBroker("job-subclose", 2, 4)
	sub, _ := b.Subscribe(0)
	publishN(t, b, 5) // 3 drops for an unread sub at cursor 0
	sub.Poll(16)
	if sub.Close() != 3 || sub.Close() != 3 {
		t.Fatal("Close not idempotent")
	}
	_, dropped, _ := b.Stats()
	if dropped != 3 {
		t.Fatalf("double Close double-counted drops: %d", dropped)
	}
}

// Concurrent publishers and pollers, meant for -race: every subscriber
// must account for all events as delivered + dropped, in order.
func TestConcurrentPublishSubscribe(t *testing.T) {
	const (
		publishers = 4
		perPub     = 200
		watchers   = 8
	)
	b := NewBroker("job-race", 32, watchers+1)

	var wg sync.WaitGroup
	results := make([]struct {
		got     uint64
		dropped uint64
		ordered bool
	}, watchers)
	for w := 0; w < watchers; w++ {
		sub, ok := b.Subscribe(0)
		if !ok {
			t.Fatalf("watcher %d: subscribe failed", w)
		}
		wg.Add(1)
		go func(w int, sub *Sub) {
			defer wg.Done()
			ordered := true
			var got uint64
			last := -1
			for {
				evs, done := sub.Poll(16)
				for _, e := range evs {
					if int(e.Seq) <= last {
						ordered = false
					}
					last = int(e.Seq)
					got++
				}
				if done {
					break
				}
				if len(evs) == 0 {
					<-sub.Ready()
				}
			}
			results[w].got = got
			results[w].dropped = sub.Close()
			results[w].ordered = ordered
		}(w, sub)
	}

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(Event{Type: TypeDSEProgress, Name: fmt.Sprintf("p%d-%d", p, i)})
			}
		}(p)
	}
	pubWG.Wait()
	b.Close()
	wg.Wait()

	const total = publishers * perPub
	published, _, _ := b.Stats()
	if published != total {
		t.Fatalf("published=%d, want %d", published, total)
	}
	for w, r := range results {
		if !r.ordered {
			t.Errorf("watcher %d: out-of-order delivery", w)
		}
		if r.got+r.dropped != total {
			t.Errorf("watcher %d: got %d + dropped %d != %d", w, r.got, r.dropped, total)
		}
	}
}

// TestRingMatchesSliceModel checks the grow-then-wrap ring against the
// obvious model — a plain slice of everything published, of which the
// last ringSize entries are retained — at the sizes and counts where the
// two regimes meet: empty, one short of full, exactly full, first wrap,
// several laps.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, size := range []int{1, 2, 64, 1024} {
		for _, published := range []int{0, 1, size - 1, size, size + 1, 3 * size} {
			b := NewBroker("job-model", size, 8)
			b.now = fixedClock()
			early, _ := b.Subscribe(0) // attached before anything is published, never polled until the end
			publishN(t, b, published)

			var model []Event // reference: every event ever published
			for i := 0; i < published; i++ {
				model = append(model, Event{Seq: uint64(i), Name: fmt.Sprintf("e%d", i)})
			}
			oldest := max(0, published-size)

			name := fmt.Sprintf("size=%d published=%d", size, published)
			if b.head != uint64(oldest) || b.next != uint64(published) {
				t.Errorf("%s: head=%d next=%d, want %d %d", name, b.head, b.next, oldest, published)
			}
			if len(b.buf) != published-oldest {
				t.Errorf("%s: ring holds %d frames, want %d", name, len(b.buf), published-oldest)
			}
			// Resume points: the start, either side of the oldest retained
			// event, the tail, and past the tail.
			for _, from := range []int{0, oldest - 1, oldest, oldest + 1, published - 1, published, published + 5} {
				if from < 0 {
					continue
				}
				sub, ok := b.Subscribe(uint64(from))
				if !ok {
					t.Fatalf("%s: subscribe from=%d refused", name, from)
				}
				start := min(max(from, oldest), published) // where the model says delivery begins
				wantDropped := max(0, oldest-from)
				var got []Frame
				for {
					frames, done := sub.Poll(7)
					if done {
						t.Fatalf("%s from=%d: done on an open broker", name, from)
					}
					if len(frames) == 0 {
						break
					}
					got = append(got, frames...)
				}
				want := model[start:]
				if len(got) != len(want) {
					t.Fatalf("%s from=%d: delivered %d frames, want %d", name, from, len(got), len(want))
				}
				for i := range got {
					if e := decode(t, got[i]); e.Seq != want[i].Seq || e.Name != want[i].Name {
						t.Fatalf("%s from=%d: frame %d is seq %d %q, want seq %d %q",
							name, from, i, e.Seq, e.Name, want[i].Seq, want[i].Name)
					}
				}
				if d := sub.Close(); d != uint64(wantDropped) {
					t.Errorf("%s from=%d: dropped %d, want %d", name, from, d, wantDropped)
				}
			}
			// The subscriber that was attached all along and never read
			// lost exactly what the ring evicted.
			frames, _ := early.Poll(published + 1)
			if len(frames) != published-oldest || early.Dropped() != uint64(oldest) {
				t.Errorf("%s: idle subscriber got %d frames and %d drops, want %d and %d",
					name, len(frames), early.Dropped(), published-oldest, oldest)
			}
			b.Close()
			if _, done := early.Poll(1); !done {
				t.Errorf("%s: drained subscriber of a closed broker not done", name)
			}
		}
	}
}

// TestRingStorageFollowsPublished: a finished job's few dozen events must
// not pay for the whole replay window (a 1024-slot ring is 48 KB).
func TestRingStorageFollowsPublished(t *testing.T) {
	b := NewBroker("job-small", DefaultRingSize, 4)
	publishN(t, b, 60)
	owned := cap(b.buf) * int(reflect.TypeOf(Frame{}).Size())
	for _, f := range b.buf {
		owned += cap(f.Line)
	}
	if owned >= 16<<10 {
		t.Errorf("a broker holding 60 events owns %d bytes of frame storage, want < 16 KB", owned)
	}
}
