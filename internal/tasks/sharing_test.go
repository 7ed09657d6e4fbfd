package tasks

import (
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
)

func TestSharingNoopWhenDesignFits(t *testing.T) {
	// A light kernel fits directly; the sharing wrapper must not change it.
	ctx := synthCtx()
	d := core.NewDesign("synth", minic.MustParse(appSrc))
	for _, task := range TargetIndependent() {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("tindep: %v", err)
		}
	}
	for _, task := range []core.Task{GenerateOneAPI, SinglePrecisionFns, SinglePrecisionLiterals,
		UnrollUntilOvermapWithSharing(platform.Stratix10)} {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("task %s: %v", task.Name(), err)
		}
	}
	if d.Infeasible != "" {
		t.Fatalf("design should fit: %s", d.Infeasible)
	}
	// No sharing trace event must appear when the base DSE succeeds.
	for _, ev := range d.Trace {
		if ev.Name == "sharing" {
			t.Fatalf("sharing fired on a fitting design: %v", ev)
		}
	}
	if d.UnrollFactor < 1 {
		t.Errorf("unroll = %d", d.UnrollFactor)
	}
}
