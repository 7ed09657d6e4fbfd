package service

import (
	"context"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/tasks"
)

// TestTraceLinesMatchString: the trace lines a result carries for every
// design of the five apps, in both modes with resource sharing off and on,
// are the designs' events as TraceEvent.String renders them, one for one.
func TestTraceLinesMatchString(t *testing.T) {
	runs := core.NewRunCache()
	lines := 0
	for _, b := range bench.All() {
		for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
			for _, sharing := range []bool{false, true} {
				results, err := experiments.RunBenchmarkEnv(context.Background(), b, nil,
					tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy, ResourceSharing: sharing},
					experiments.JobEnv{}, nil, nil, runs)
				if err != nil {
					t.Fatalf("%s %s sharing=%t: %v", b.Name, mode, sharing, err)
				}
				designs := buildResult(JobStatus{}, &outcome{results: results}).Designs
				for k, r := range results {
					got, trace := designs[k].Trace, r.Design.Trace
					if len(got) != len(trace) {
						t.Fatalf("%s: %d trace lines for %d events", r.Design.Label(), len(got), len(trace))
					}
					for i, ev := range trace {
						if got[i] != ev.String() {
							t.Errorf("%s: trace line %d = %q, want %q", r.Design.Label(), i, got[i], ev.String())
						}
					}
					lines += len(trace)
				}
			}
		}
	}
	t.Logf("%d trace lines", lines)
}
