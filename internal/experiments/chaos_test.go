package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
)

var chaosTestRetry = faults.RetryPolicy{
	MaxAttempts: 6,
	BaseDelay:   50 * time.Microsecond,
	MaxDelay:    500 * time.Microsecond,
}

// TestRunChaosInformedCompletes is the acceptance sweep in miniature:
// every seeded informed run must complete with a feasible design, and
// the whole report must replay bit-identically from the same base spec.
func TestRunChaosInformedCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	base := faults.New(1, 0.2)
	rep := RunChaos(tasks.Informed, base, 2, chaosTestRetry, nil)
	if rep.CompletionRate != 1 {
		t.Fatalf("completion rate %.2f, want 1.0: %s", rep.CompletionRate, FormatChaos(rep))
	}
	if got := len(rep.Runs); got != 10 {
		t.Fatalf("2 seeds x 5 benchmarks should be 10 runs, got %d", got)
	}
	if rep.TotalFaults == 0 {
		t.Error("rate=0.2 sweep injected nothing; chaos is not wired through")
	}
	replay := RunChaos(tasks.Informed, base, 2, chaosTestRetry, nil)
	if !reflect.DeepEqual(rep, replay) {
		t.Errorf("chaos sweep is not deterministic:\nfirst:  %+v\nreplay: %+v", rep, replay)
	}
}

// TestFaultFallbackTraceNamesNoBudget: a run without a budget whose FPGA
// path is lost to injected HLS faults falls back to the CPU path, and no
// design's trace explains that with a budget. The strategy is consulted
// once, so its Fig. 3 inputs line appears once per design.
func TestFaultFallbackTraceNamesNoBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	opts := tasks.FlowOptions{Mode: tasks.Informed, Strategy: tasks.DefaultStrategy}
	paper, err := flowlang.Compile(flowlang.Bundled(), opts)
	if err != nil {
		t.Fatal(err)
	}
	env, err := ResolveEnv(Settings{Faults: "seed=1,rate=1,kinds=hls"}, paper, Settings{Retry: chaosTestRetry})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ByName("adpredictor")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunBenchmarkEnv(context.Background(), b, nil, opts, env, nil, nil, core.NewRunCache())
	if err != nil {
		t.Fatal(err)
	}
	landed := ""
	for _, r := range results {
		trace := fmt.Sprint(r.Design.Trace)
		if strings.Contains(trace, "budget") {
			t.Errorf("%s: trace speaks of a budget the run does not have:\n%v", r.Design.Label(), r.Design.Trace)
		}
		if n := strings.Count(trace, "Tcpu="); n != 1 {
			t.Errorf("%s: Fig. 3 inputs traced %d times, want 1", r.Design.Label(), n)
		}
		if !r.Infeasible {
			landed = r.Design.Target.String()
			if !strings.Contains(trace, `fallback 1: path "fpga" failed`) {
				t.Errorf("%s: trace does not say why the second choice ran:\n%v", r.Design.Label(), r.Design.Trace)
			}
		}
	}
	if landed != "cpu" {
		t.Errorf("landed on %q, want the Fig. 3 fallback cpu (%d designs)", landed, len(results))
	}
}
