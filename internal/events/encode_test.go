package events

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// marshalled is what json.Marshal gives for e stamped at ts.
func marshalled(t *testing.T, e Event, ts time.Time) []byte {
	t.Helper()
	e.TS = ts.Format(time.RFC3339Nano)
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func checkEncoding(t *testing.T, e Event, ts time.Time) {
	t.Helper()
	if got, want := appendEvent(nil, &e, ts), marshalled(t, e, ts); !bytes.Equal(got, want) {
		t.Errorf("event %+v:\n got %s\nwant %s", e, got, want)
	}
}

// TestAppendEventMatchesMarshal: a frame's line is byte for byte what
// json.Marshal makes of the event, for every event type the service
// publishes with the fields it sets, for strings that need escaping, for
// dur_ms values at the edges of encoding/json's float format, and for
// timestamps whose nanoseconds have trailing zeros.
func TestAppendEventMatchesMarshal(t *testing.T) {
	ts := time.Date(2024, 6, 1, 12, 0, 0, 123456789, time.UTC)
	for _, e := range []Event{
		{Seq: 0, Type: TypeQueued, Job: "j0001a2b3-000001", Name: "nbody", Detail: "informed"},
		{Seq: 1, Type: TypeStarted, Job: "na-j0001a2b3-000001", Name: "kmeans", Detail: "batched behind leader na-j1"},
		{Seq: 2, Type: TypeTaskStart, Job: "j", Name: "Hotspot Loop Extraction"},
		{Seq: 3, Type: TypeTaskEnd, Job: "j", Name: "Unroll Fixed Loops", Detail: "ok", DurMS: 0.734512},
		{Seq: 4, Type: TypeBranchDecision, Job: "j", Name: "A", Detail: "paths=[gpu fpga]"},
		{Seq: 5, Type: TypeDSEProgress, Job: "j", Name: "blocksize", Detail: "iter 3/8 best=256"},
		{Seq: 6, Type: TypeFaultInjected, Job: "j", Name: "hls", Detail: "injected transient fault at hls#3"},
		{Seq: 7, Type: TypeRetry, Job: "j", Name: "FPGA Unroll DSE", Detail: "attempt 2 after 1ms"},
		{Seq: 8, Type: TypeDegraded, Job: "j", Name: "fpga", Detail: "path degraded: fault"},
		{Seq: 9, Type: TypeNote, Job: "j", Name: "strategy", Detail: "fallback"},
		{Seq: 10, Type: TypeDone, Job: "j", DurMS: 123.456},
		{Seq: 11, Type: TypeFailed, Job: "j", Detail: "benchmark nbody: boom", DurMS: 1},
		{Seq: 12, Type: TypeCancelled, Job: "j", Detail: "cancelled before start"},
		{Seq: math.MaxUint64, Type: TypeNote},
	} {
		checkEncoding(t, e, ts)
	}
	for _, s := range []string{
		`say "hi"`, `C:\path\`, "\x00\x01\x07\b\f\n\r\t\x1b\x1f\x7f",
		"<script>&amp;</script>", "line\u2028sep\u2029para", "bad \xff\xfe utf8 \xc3",
		"truncated \xe2\x80", "snowman ☃ and 😀", "",
	} {
		checkEncoding(t, Event{Seq: 3, Type: TypeNote, Job: s, Name: s, Detail: s}, ts)
	}
	for _, d := range []float64{0, 1e-7, 123.456, 1e21, 1e-6, 999999999999999999999, -2.5e-9, 5e-324, math.MaxFloat64} {
		checkEncoding(t, Event{Type: TypeTaskEnd, DurMS: d}, ts)
	}
	for _, ns := range []int{0, 100000000, 120000000, 1} {
		checkEncoding(t, Event{Type: TypeNote}, time.Date(2024, 12, 31, 23, 59, 59, ns, time.UTC))
	}
	// Random strings of bytes, most of them ones that need escaping.
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("a\"\\<>&\x00\x1f\n\xe2\x80\xa8\xa9\xff\xc3\xa9 ")
	for range 2000 {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		checkEncoding(t, Event{Type: TypeNote, Detail: string(b)}, ts)
	}
}

// TestAppendEventNonFinite: json.Marshal refuses a NaN or infinite dur_ms;
// the frame leaves it out, as it does a zero one.
func TestAppendEventNonFinite(t *testing.T) {
	ts := time.Unix(0, 0).UTC()
	want := marshalled(t, Event{Type: TypeDone}, ts)
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := appendEvent(nil, &Event{Type: TypeDone, DurMS: d}, ts); !bytes.Equal(got, want) {
			t.Errorf("dur_ms %v: got %s, want %s", d, got, want)
		}
	}
}

// TestPublishAllocations: publishing an event with no subscriber allocates
// its frame's line and nothing else (the ring's slots are there once it is
// full).
func TestPublishAllocations(t *testing.T) {
	b := NewBroker("j", 4, 0)
	publishN(t, b, 4)
	e := Event{Type: TypeTaskEnd, Name: "Unroll Fixed Loops", Detail: "ok", DurMS: 0.5}
	if n := testing.AllocsPerRun(100, func() { b.Publish(e) }); n != 1 {
		t.Errorf("Publish allocates %.0f times, want 1 (the line)", n)
	}
}
