package telemetry

import (
	"os"
	"strings"
	"testing"
)

// reportFixture holds the JSON and text reports of fixedRecording and of
// an empty recorder, as the recorder that kept a slice of children per
// span and copied the tree span by span wrote them. It is frozen: a
// change to it is a change to every job result's telemetry and to what
// -metrics and -metrics-json print, made by hand.
const reportFixture = "testdata/report.golden"

// fixedRecording records, under fakeClock, a tree with the shapes a flow
// run makes: two roots; a branch point whose paths run the same tasks
// (repeated names aggregate into one Stat); notes on a task and a path;
// one task still open when the snapshot is taken; and counters. No two
// kinds share a span name, so the Stats order does not depend on the
// tie-break between kinds.
func fixedRecording() *Recorder {
	r := New()
	r.now = fakeClock()
	flow := r.StartSpan(nil, KindFlow, "psa-flow")
	hot := r.StartSpan(flow, KindTask, "Identify Hotspot Loops")
	hot.SetDetail("nbody")
	hot.End()
	branch := r.StartSpan(flow, KindBranch, "A")
	for i, p := range []string{"gpu", "fpga", "cpu"} {
		path := r.StartSpan(branch, KindPath, "A/"+p)
		for j, name := range []string{"Unroll Fixed Loops", "Render Design Source"} {
			task := r.StartSpan(path, KindTask, name)
			task.SetDetail("nbody/" + p)
			for k := 0; k < i+j; k++ {
				r.now() // later paths and tasks take longer
			}
			if p == "fpga" && j == 0 {
				task.Note("retry 1: injected hls fault")
				task.Note("retry 2: injected hls fault")
			}
			task.End()
		}
		if p == "cpu" {
			path.Note("degraded: over budget")
		}
		path.End()
	}
	branch.End()
	flow.End()

	second := r.StartSpan(nil, KindFlow, "psa-flow-rerun")
	dse := r.StartSpan(second, KindTask, "Blocksize DSE")
	dse.SetDetail("nbody/gpu")
	dse.End()
	r.StartSpan(second, KindTask, "Unroll Until Overmap DSE").Note("left open")
	second.End()

	r.Add(CounterInterpRuns, 3)
	r.Add(CounterInterpOps, 91535204)
	r.Add(FaultCounter("hls"), 2)
	r.Add(DSECounter("blocksize"), 6)
	return r
}

// TestReportFixture: the JSON and text reports of fixedRecording and of an
// empty recorder equal the fixture, byte for byte.
func TestReportFixture(t *testing.T) {
	var sb strings.Builder
	for _, c := range []struct {
		name string
		r    *Recorder
	}{{"fixed recording", fixedRecording()}, {"empty recorder", New()}} {
		rep := c.r.Snapshot()
		data, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", c.name, err)
		}
		sb.WriteString("== " + c.name + ": JSON ==\n")
		sb.Write(data)
		sb.WriteString("\n== " + c.name + ": text ==\n")
		sb.WriteString(rep.Text())
	}
	want, err := os.ReadFile(reportFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got %q\nwant %q", reportFixture, i+1, g, w)
			}
		}
	}
}
