package events

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// wire is the JSON shape of a frame, its detail as text: the reference
// appendEvent is checked against.
type wire struct {
	Seq    uint64  `json:"seq"`
	TS     string  `json:"ts"`
	Type   string  `json:"type"`
	Job    string  `json:"job,omitempty"`
	Name   string  `json:"name,omitempty"`
	Detail string  `json:"detail,omitempty"`
	DurMS  float64 `json:"dur_ms,omitempty"`
}

// marshalled is what json.Marshal gives for e stamped at ts with detail as
// its detail's text.
func marshalled(t *testing.T, e Event, detail string, ts time.Time) []byte {
	t.Helper()
	want, err := json.Marshal(wire{e.Seq, ts.Format(time.RFC3339Nano), e.Type, e.Job, e.Name, detail, e.DurMS})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func checkEncoding(t *testing.T, e Event, ts time.Time) {
	t.Helper()
	want := marshalled(t, e, string(e.Args.Append(nil)), ts)
	if got := appendEvent(nil, &e, ts); !bytes.Equal(got, want) {
		t.Errorf("event %+v:\n got %s\nwant %s", e, got, want)
	}
}

// at is e as the broker of job stamps it with seq.
func at(seq uint64, job string, e Event) Event {
	e.Seq, e.Job = seq, job
	return e
}

// timed is e with a duration.
func timed(e Event, ms float64) Event {
	e.DurMS = ms
	return e
}

// TestAppendEventMatchesMarshal: a frame's line is byte for byte what
// json.Marshal makes of the event, for every event type the service
// publishes with the fields it sets, for strings that need escaping, for
// dur_ms values at the edges of encoding/json's float format, and for
// timestamps whose nanoseconds have trailing zeros.
func TestAppendEventMatchesMarshal(t *testing.T) {
	ts := time.Date(2024, 6, 1, 12, 0, 0, 123456789, time.UTC)
	fault := "injected fault: hls \"Intel Stratix 10 GX 2800\" failed (occurrence 1)"
	for _, e := range []Event{
		at(0, "j0001a2b3-000001", New(JobQueued, "nbody", []string{"informed"})),
		at(1, "na-j0001a2b3-000001", New(JobBatched, "kmeans", []string{"na-j1"}, 12)),
		{Seq: 2, Type: TypeTaskStart, Job: "j", Name: "Hotspot Loop Extraction"},
		at(3, "j", timed(New(TaskEnded, "Unroll Fixed Loops", []string{"nbody/gpu"}), 0.734512)),
		at(4, "j", New(Decision, "A", []string{"uninformed", "gpu", "fpga"})),
		at(5, "j", New(BlocksizeSwept, "blocksize", []string{"GTX 1080 Ti"}, 8, 256, 0.0123)),
		at(6, "j", New(FaultInjected, "hls", []string{fault})),
		at(7, "j", New(RetryScheduled, "FPGA Unroll DSE", []string{fault, "1ms"}, 2)),
		at(8, "j", New(PathDegraded, "fpga", []string{fault})),
		at(9, "j", New(NoteFallback, "A", []string{"fpga"}, 1)),
		at(10, "j", timed(New(JobDone, "", []string{""}), 123.456)),
		at(11, "j", timed(New(JobFailed, "", []string{"benchmark nbody: boom"}), 1)),
		at(12, "j", New(JobCancelled, "", []string{"cancelled before start"})),
		{Seq: math.MaxUint64, Type: TypeNote},
	} {
		checkEncoding(t, e, ts)
	}
	for _, s := range []string{
		`say "hi"`, `C:\path\`, "\x00\x01\x07\b\f\n\r\t\x1b\x1f\x7f",
		"<script>&amp;</script>", "line\u2028sep\u2029para", "bad \xff\xfe utf8 \xc3",
		"truncated \xe2\x80", "snowman ☃ and 😀", "",
	} {
		checkEncoding(t, at(3, s, New(JobFailed, s, []string{s})), ts)
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
		checkEncoding(t, New(JobFailed, "", []string{string(b)}), ts)
	}
}

// TestAppendEventNonFinite: json.Marshal refuses a NaN or infinite dur_ms;
// the frame leaves it out, as it does a zero one.
func TestAppendEventNonFinite(t *testing.T) {
	ts := time.Unix(0, 0).UTC()
	want := marshalled(t, Event{Type: TypeDone}, "", ts)
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := appendEvent(nil, &Event{Type: TypeDone, DurMS: d}, ts); !bytes.Equal(got, want) {
			t.Errorf("dur_ms %v: got %s, want %s", d, got, want)
		}
	}
}

// TestPublishAllocations: publishing an event with no subscriber allocates
// nothing of its own once the ring is full: a frame's line costs a share of
// a slab chunk, about one chunk per twenty lines, which AllocsPerRun's
// rounding down reads as 0.
func TestPublishAllocations(t *testing.T) {
	b := NewBroker("j", 4, 0)
	publishN(t, b, 4)
	e := timed(New(TaskEnded, "Unroll Fixed Loops", []string{"nbody/gpu"}), 0.5)
	if n := testing.AllocsPerRun(100, func() { b.Publish(e) }); n != 0 {
		t.Errorf("Publish allocates %.0f times, want 0 (a share of a chunk)", n)
	}
}
