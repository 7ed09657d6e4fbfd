package main

import (
	"math"
	"testing"

	"psaflow/internal/telemetry"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns: the acceptance check of the benchmark uses that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarizeAndSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := summarize(xs)
	if s.N != 10 || !near(s.Median, 5.5) || !near(s.Q1, 2.75) || !near(s.Q3, 8.25) {
		t.Errorf("summarize = %+v", s)
	}
	if got := spreadPct(xs); !near(got, 100) {
		t.Errorf("spreadPct = %v, want 100", got)
	}
	if got := spreadPct(nil); got != 0 {
		t.Errorf("spreadPct(nil) = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 = %v, want 95", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := percentile([]float64{3}, 95); got != 3 {
		t.Errorf("p95 of one value = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %v", got)
	}
	if got := geomean([]float64{0, 4, 9}); !near(got, 6) {
		t.Errorf("geomean skips non-positive values: %v", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v", got)
	}
}

// A class with many jobs must not outweigh a class with few.
func TestClassGeomeanWeighsClassesEqually(t *testing.T) {
	classes := []string{"a", "a", "a", "a", "a", "b"}
	values := []float64{1, 1, 1, 1, 1, 100}
	if got := classGeomean(classes, values); !near(got, 10) {
		t.Errorf("classGeomean = %v, want 10", got)
	}
	// The class median, not its mean, stands for the class.
	classes = []string{"a", "a", "a", "b"}
	values = []float64{4, 4, 400, 9}
	if got := classGeomean(classes, values); !near(got, 6) {
		t.Errorf("classGeomean = %v, want 6", got)
	}
}

func TestJobClass(t *testing.T) {
	cases := map[string]job{
		"nbody/informed":                {App: "nbody", Mode: "informed"},
		"nbody/uninformed/flow":         {App: "nbody", Mode: "uninformed", Flow: registeredFlow},
		"bezier/informed/repeat":        {App: "bezier", Mode: "informed", Repeat: true, Tenant: "tenant-2", Node: 1},
		"kmeans/uninformed/flow/repeat": {App: "kmeans", Mode: "uninformed", Flow: registeredFlow, Repeat: true},
	}
	for want, j := range cases {
		if got := j.class(); got != want {
			t.Errorf("class = %q, want %q", got, want)
		}
	}
}

// The paths of a branch point run side by side: only the slowest one's
// tasks are on the critical path, and what the flow span has beyond them
// is the engine's own time.
func TestCriticalTaskTime(t *testing.T) {
	task := func(ms float64) telemetry.SpanSnapshot {
		return telemetry.SpanSnapshot{Kind: telemetry.KindTask, Millis: ms}
	}
	path := func(ms float64, children ...telemetry.SpanSnapshot) telemetry.SpanSnapshot {
		return telemetry.SpanSnapshot{Kind: telemetry.KindPath, Millis: ms, Children: children}
	}
	flow := telemetry.SpanSnapshot{Kind: telemetry.KindFlow, Millis: 20, Children: []telemetry.SpanSnapshot{
		task(3),
		{Kind: telemetry.KindBranch, Millis: 12, Children: []telemetry.SpanSnapshot{
			path(5, task(4)),
			path(11, task(6), task(4)),
		}},
		task(2),
	}}
	if got := criticalTaskMS(flow); !near(got, 15) {
		t.Errorf("criticalTaskMS = %v, want 3 + (6+4) + 2", got)
	}
}

func TestTaskMetric(t *testing.T) {
	cases := map[string]string{
		"Verify Transformed Kernel":                         "tasks.verify_ms",
		"Pointer Analysis":                                  "tasks.pointer_analysis_ms",
		"Identify Hotspot Loops":                            "tasks.hotspot_ms",
		"Intel Stratix 10 GX 2800 Unroll Until Overmap DSE": "tasks.unroll_dse_ms",
		"Render Design Source":                              "tasks.render_ms",
		"OMP Num. Threads DSE":                              "tasks.other_ms",
	}
	for name, want := range cases {
		if got := taskMetric(name); got != want {
			t.Errorf("taskMetric(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "submit", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "wait", Start: 30, End: 90},
		{ID: 4, Name: "job", Start: 100, End: 150},
		{ID: 5, Parent: 4, Name: "submit", Start: 100, End: 120},
	}}
	self := tr.selfTimes()
	if self["job"] != 40 || self["submit"] != 50 || self["wait"] != 60 {
		t.Errorf("selfTimes = %v", self)
	}
	var off *tracer
	if id := off.begin("job", 0, 1); id != 0 {
		t.Errorf("a nil tracer handed out span %d", id)
	}
	off.end(0)
}
