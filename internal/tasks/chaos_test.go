package tasks_test

// Chaos tests for the fault-injection and graceful-degradation subsystem:
// zero-fault runs must be bit-for-bit identical to a context without the
// resilience fields, seeded chaos runs must replay deterministically even
// with parallel branch paths (run under -race in CI), and informed-mode
// flows must always complete with a feasible design — the CPU fallback —
// no matter which accelerator substrates fail.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"psaflow/internal/core"
	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// chaosRetry keeps chaos tests fast: the real backoff envelope shape with
// sub-millisecond delays.
var chaosRetry = faults.RetryPolicy{
	MaxAttempts: 6,
	BaseDelay:   50 * time.Microsecond,
	MaxDelay:    500 * time.Microsecond,
}

// chaosLeafLine renders every outcome-bearing field of a leaf design, so
// two runs compare bit-for-bit.
func chaosLeafLine(d *core.Design) string {
	r := d.Report
	return fmt.Sprintf("%s infeasible=%q threads=%d blocksize=%d unroll=%d "+
		"hotspot=%d share=%v flops=%v bytes=%v/%v trips=%v/%v serial=%v ai=%v sp=%t",
		d.Label(), d.Infeasible, d.NumThreads, d.Blocksize, d.UnrollFactor,
		r.HotspotLoopID, r.HotspotShare, r.KernelFlops, r.BytesIn, r.BytesOut,
		r.OuterTrips, r.PipelinedTrips, r.SerialDepth, r.DynamicAI, r.SinglePrec)
}

// runChaosFlow executes the PSA-flow with the given resilience settings
// and returns the sorted leaf signatures plus the run's recorder.
func runChaosFlow(t *testing.T, mode tasks.Mode, parallel bool, inj *faults.Injector) ([]string, *telemetry.Recorder) {
	t.Helper()
	ctx := tasks.SynthCtx()
	ctx.Parallel = parallel
	ctx.Runs = core.NewRunCache()
	ctx.Telemetry = telemetry.New()
	ctx.Faults = inj
	ctx.Retry = chaosRetry
	flow := flowlang.PSAFlow(flowlang.Options{Mode: mode})
	leaves, err := flow.Run(ctx, core.NewDesign("synth", minic.MustParse(tasks.AppSrc)))
	if err != nil {
		t.Fatalf("flow (mode=%v faults=%s): %v", mode, inj.String(), err)
	}
	out := make([]string, 0, len(leaves))
	for _, d := range leaves {
		out = append(out, chaosLeafLine(d))
	}
	sort.Strings(out)
	return out, ctx.Telemetry
}

// TestZeroFaultRunsBitForBitIdentical: a context carrying the resilience
// machinery with injection off must produce exactly the designs of a
// pre-resilience context — fault injection is off by default and free.
func TestZeroFaultRunsBitForBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
		plainCtx := tasks.SynthCtx()
		flow := flowlang.PSAFlow(flowlang.Options{Mode: mode})
		leaves, err := flow.Run(plainCtx, core.NewDesign("synth", minic.MustParse(tasks.AppSrc)))
		if err != nil {
			t.Fatalf("plain flow: %v", err)
		}
		plain := make([]string, 0, len(leaves))
		for _, d := range leaves {
			plain = append(plain, chaosLeafLine(d))
		}
		sort.Strings(plain)

		injected, rec := runChaosFlow(t, mode, mode == tasks.Uninformed, nil)
		if !reflect.DeepEqual(plain, injected) {
			t.Errorf("mode %v: zero-fault resilient run diverges:\nresilient: %v\nplain:     %v",
				mode, injected, plain)
		}
		for _, c := range []string{
			telemetry.CounterFaultsInjected, telemetry.CounterRetryAttempts,
			telemetry.CounterFaultDegradations, telemetry.CounterFaultFallbacks,
		} {
			if got := rec.Counter(c); got != 0 {
				t.Errorf("mode %v: counter %s = %d with injection off", mode, c, got)
			}
		}
	}
}

// TestChaosDeterministicReplay: one seed fixes the entire outcome of a
// chaos run — designs, failure verdicts, and injected-fault counts — even
// with branch paths on concurrent goroutines (the -race equivalence run).
func TestChaosDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	anyFaults := false
	for seed := int64(1); seed <= 4; seed++ {
		inj := func() *faults.Injector { return faults.New(seed, 0.3) }
		a, recA := runChaosFlow(t, tasks.Uninformed, true, inj())
		b, recB := runChaosFlow(t, tasks.Uninformed, true, inj())
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: parallel chaos runs diverge:\nfirst:  %v\nsecond: %v", seed, a, b)
		}
		serial, _ := runChaosFlow(t, tasks.Uninformed, false, inj())
		if !reflect.DeepEqual(a, serial) {
			t.Errorf("seed %d: parallel chaos run diverges from serial:\nparallel: %v\nserial:   %v", seed, a, serial)
		}
		if recA.Counter(telemetry.CounterFaultsInjected) != recB.Counter(telemetry.CounterFaultsInjected) {
			t.Errorf("seed %d: injected-fault totals differ between replays", seed)
		}
		if recA.Counter(telemetry.CounterFaultsInjected) > 0 {
			anyFaults = true
		}
	}
	if !anyFaults {
		t.Error("rate=0.3 injected no faults across 4 seeds; injection is not wired through")
	}
}

// TestInformedChaosAlwaysCompletes: under rate=0.2 across all fault
// kinds, the informed strategy must always deliver at least one feasible
// design — accelerator failures degrade and fall back (ultimately to the
// CPU path, which has no injectable substrate).
func TestInformedChaosAlwaysCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	retried, degradedRuns := false, false
	for seed := int64(1); seed <= 8; seed++ {
		lines, rec := runChaosFlow(t, tasks.Informed, false, faults.New(seed, 0.2))
		feasible := 0
		for _, l := range lines {
			if strings.Contains(l, `infeasible=""`) {
				feasible++
			}
		}
		if feasible == 0 {
			t.Errorf("seed %d: no feasible design survived: %v", seed, lines)
		}
		if rec.Counter(telemetry.CounterRetryAttempts) > 0 {
			retried = true
		}
		if rec.Counter(telemetry.CounterFaultDegradations) > 0 {
			degradedRuns = true
		}
	}
	if !retried {
		t.Error("no run retried anything at rate=0.2; retry loop is not wired through")
	}
	_ = degradedRuns // degradation is seed-dependent; asserted in core tests
}
