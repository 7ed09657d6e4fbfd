package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// The child answers every request byte with one duration and ends with its
// input.
func TestServeCalibration(t *testing.T) {
	var out bytes.Buffer
	if err := serveCalibration(bytes.NewReader([]byte{1, 1, 1}), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3*8 {
		t.Fatalf("3 requests got %d bytes of replies, want 24", out.Len())
	}
	for out.Len() > 0 {
		d := time.Duration(binary.LittleEndian.Uint64(out.Next(8)))
		if d <= 0 || d > time.Second {
			t.Errorf("a sample took %v", d)
		}
	}
}

// A round run on a machine half as fast takes twice as long by every clock,
// calibration included, and must report the same end-to-end metrics.
func TestClockMetricsAreReportedAtReferenceSpeed(t *testing.T) {
	round := func(slowdown float64) *roundStats {
		r := &roundStats{
			wall: time.Duration(slowdown * float64(2*time.Second)),
			cpu:  time.Duration(slowdown * float64(3*time.Second)),
			cal:  []float64{slowdown * 5, slowdown * 5.5, slowdown * 4.5},
		}
		r.mallocs, r.allocKB = 40_000, 8_000
		for i, ms := range []float64{10, 30, 20, 40} {
			r.samples = append(r.samples, sample{job: job{App: appNames[i%2], Mode: modes[i/2]}, ms: slowdown * ms})
		}
		return r
	}
	fast := endToEndMetrics([]*roundStats{round(1)}, 4*speedOver([]*roundStats{round(1)}), 100)
	slow := endToEndMetrics([]*roundStats{round(2)}, 8*speedOver([]*roundStats{round(2)}), 100)
	for _, def := range endToEnd {
		if !near(fast[def.Name].Median, slow[def.Name].Median) {
			t.Errorf("%s reads %v on the fast machine and %v on the slow one", def.Name, fast[def.Name].Median, slow[def.Name].Median)
		}
	}
	// At reference speed (a 5 ms sample against calRef) nothing is scaled.
	ref := float64(calRef) / float64(time.Millisecond) / 5
	if got, want := fast["jobs_per_s"].Median, 2/ref; !near(got, want) {
		t.Errorf("jobs_per_s = %v, want 4 jobs / 2 s / speed %v = %v", got, ref, want)
	}
	if got, want := fast["job_ms_p50"].Median, 25*ref; !near(got, want) {
		t.Errorf("job_ms_p50 = %v, want %v", got, want)
	}
}
