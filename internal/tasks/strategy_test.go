package tasks

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/platform"
)

// mkReport builds a kernel report exercising one cell of the Fig. 3
// decision table.
func mkReport(parallel bool, ai float64, bytesIO float64, cycles float64,
	innerDeps int, allFixed bool) *core.KernelReport {
	r := &core.KernelReport{
		HotspotCycles: cycles,
		KernelFlops:   ai * bytesIO,
		KernelBytes:   bytesIO,
		BytesIn:       bytesIO * 0.6,
		BytesOut:      bytesIO * 0.4,
		DynamicAI:     ai,
		OuterTrips:    1e4,
		Calls:         1,
		OuterDeps:     &analysis.LoopDeps{},
	}
	if !parallel {
		r.OuterDeps.Carried = []analysis.Dependence{{Kind: analysis.DepScalar, Name: "s"}}
	}
	r.Unroll.InnerWithDeps = innerDeps
	r.Unroll.AllDepsFixed = allFixed
	return r
}

// branchATargets is the Fig. 4 branch point A layout, one path per target
// class.
var branchATargets = []platform.TargetKind{platform.TargetGPU, platform.TargetFPGA, platform.TargetCPU}

// firstChoice asks the informed selector for its alternatives at branch
// point A and returns the target of the first; ok=false is "terminate".
func firstChoice(t *testing.T, ctx *core.Context, d *core.Design, cfg StrategyConfig) (platform.TargetKind, bool) {
	t.Helper()
	paths := make([]core.Path, len(branchATargets))
	for i, k := range branchATargets {
		paths[i].Name = k.String()
	}
	alts, err := InformedSelector(cfg).Select(ctx, d, paths)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(alts) == 0 {
		return 0, false
	}
	if len(alts[0].Paths) != 1 {
		t.Fatalf("informed alternative takes %d paths, want 1", len(alts[0].Paths))
	}
	return branchATargets[alts[0].Paths[0]], true
}

func selectFor(t *testing.T, r *core.KernelReport) (platform.TargetKind, bool) {
	t.Helper()
	return firstChoice(t, &core.Context{CPU: platform.EPYC7543}, &core.Design{Name: "t", Report: r}, DefaultStrategy)
}

// TestStrategyDecisionTable walks every branch of the paper's Fig. 3
// flowchart.
func TestStrategyDecisionTable(t *testing.T) {
	const (
		bigCycles  = 1e10 // Tcpu large → transfers cheap by comparison
		tinyCycles = 1    // Tcpu tiny → transfers dominate
		highAI     = 100
		lowAI      = 1
		someBytes  = 1e6
	)
	cases := []struct {
		name   string
		r      *core.KernelReport
		want   platform.TargetKind
		wantOK bool
	}{
		{"compute-bound, parallel, no inner deps -> GPU",
			mkReport(true, highAI, someBytes, bigCycles, 0, false), platform.TargetGPU, true},
		{"compute-bound, parallel, inner deps fully unrollable -> FPGA",
			mkReport(true, highAI, someBytes, bigCycles, 1, true), platform.TargetFPGA, true},
		{"compute-bound, parallel, inner deps NOT unrollable -> GPU",
			mkReport(true, highAI, someBytes, bigCycles, 2, false), platform.TargetGPU, true},
		{"compute-bound, serial outer -> FPGA",
			mkReport(false, highAI, someBytes, bigCycles, 0, false), platform.TargetFPGA, true},
		{"memory-bound (low AI), parallel -> CPU",
			mkReport(true, lowAI, someBytes, bigCycles, 0, false), platform.TargetCPU, true},
		{"transfer-dominated (Tdata > Tcpu), parallel -> CPU",
			mkReport(true, highAI, 1e9, tinyCycles, 0, false), platform.TargetCPU, true},
		{"memory-bound AND serial -> terminate",
			mkReport(false, lowAI, someBytes, bigCycles, 0, false), 0, false},
	}
	for _, c := range cases {
		got, ok := selectFor(t, c.r)
		if ok != c.wantOK {
			t.Errorf("%s: ok=%v want %v", c.name, ok, c.wantOK)
			continue
		}
		if ok && got != c.want {
			t.Errorf("%s: target=%v want %v", c.name, got, c.want)
		}
	}
}

// names renders a preference list as path names, one alternative per entry.
func names(paths []core.Path, alts []core.Alternative) []string {
	var out []string
	for _, a := range alts {
		s := ""
		for _, i := range a.Paths {
			s += "+" + paths[i].Name
		}
		out = append(out, s[1:])
	}
	return out
}

// TestInformedSelectorPathsAndExclusion drives the Selector interface
// directly: the preference list is the tree's target, then the CPU path —
// what the engine falls back on when the budget gate or a fault excludes
// the target — and nothing after that.
func TestInformedSelectorPathsAndExclusion(t *testing.T) {
	sel := InformedSelector(DefaultStrategy)
	ctx := &core.Context{CPU: platform.EPYC7543}
	paths := []core.Path{{Name: "gpu"}, {Name: "fpga"}, {Name: "cpu"}}
	cases := []struct {
		name string
		r    *core.KernelReport
		want []string
	}{
		{"gpu, then cpu", mkReport(true, 100, 1e6, 1e10, 0, false), []string{"gpu", "cpu"}},
		{"fpga, then cpu", mkReport(false, 100, 1e6, 1e10, 0, false), []string{"fpga", "cpu"}},
		{"cpu has no second choice", mkReport(true, 1, 1e6, 1e10, 0, false), []string{"cpu"}},
		{"terminate", mkReport(false, 1, 1e6, 1e10, 0, false), nil},
	}
	for _, c := range cases {
		d := &core.Design{Name: "x", Report: c.r}
		alts, err := sel.Select(ctx, d, paths)
		if got := names(paths, alts); err != nil || !slices.Equal(got, c.want) {
			t.Errorf("%s: alternatives %v err=%v, want %v", c.name, got, err, c.want)
		}
		// The strategy narrates its inputs once and leaves "why did the
		// next alternative run" to the engine, which knows.
		if n := strings.Count(fmt.Sprint(d.Trace), "Tcpu="); n != 1 {
			t.Errorf("%s: inputs traced %d times, want 1", c.name, n)
		}
		if strings.Contains(fmt.Sprint(d.Trace), "budget") {
			t.Errorf("%s: selector speaks of a budget it cannot see: %v", c.name, d.Trace)
		}
	}
	// A layout without a CPU path offers the target alone.
	alts, err := sel.Select(ctx, &core.Design{Name: "x", Report: cases[0].r}, paths[:2])
	if got := names(paths, alts); err != nil || !slices.Equal(got, []string{"gpu"}) {
		t.Errorf("no cpu path: alternatives %v err=%v, want [gpu]", got, err)
	}
}

func TestInformedSelectorRequiresAnalysis(t *testing.T) {
	sel := InformedSelector(DefaultStrategy)
	ctx := &core.Context{CPU: platform.EPYC7543}
	d := &core.Design{Name: "bare", Report: &core.KernelReport{}}
	if _, err := sel.Select(ctx, d, []core.Path{{Name: "cpu"}}); err == nil {
		t.Fatal("selector must demand dependence analysis results")
	}
}

func TestStrategyMissingPathName(t *testing.T) {
	sel := InformedSelector(DefaultStrategy)
	ctx := &core.Context{CPU: platform.EPYC7543}
	d := &core.Design{Name: "x", Report: mkReport(true, 100, 1e6, 1e10, 0, false)}
	// No "gpu" path in this branch layout: selector errors rather than
	// silently picking something else.
	if _, err := sel.Select(ctx, d, []core.Path{{Name: "cpu"}}); err == nil {
		t.Fatal("expected error for missing path name")
	}
}

func TestStrategyFallsBackToStaticAI(t *testing.T) {
	r := mkReport(true, 0, 1e6, 1e10, 0, false)
	r.DynamicAI = 0
	r.StaticAI = 100
	if got, ok := selectFor(t, r); !ok || got != platform.TargetGPU {
		t.Fatalf("static AI fallback: got %v ok=%v", got, ok)
	}
}

// TestFig3DecideTable checks fig3Decide — the decision function of the
// informed selector, and of nothing else — against the paper's Fig. 3
// flowchart, transcribed below box by box, over every combination of its
// five predicates (the sixteen the flowchart distinguishes, each with both
// values of a predicate the taken branch never reads) and on the two
// threshold edges, which are strict: Tdata == Tcpu and AI == X do not
// offload.
func TestFig3DecideTable(t *testing.T) {
	const x = 6.0
	// fig3 walks the flowchart one diamond at a time.
	fig3 := func(transferCheaper, computeBound, parallel, innerDeps, fullyUnrollable bool) string {
		if !(transferCheaper && computeBound) { // "Tdata_trnsfr < Tcpu AND FLOPs/B > X"
			if parallel { // "outer loop parallel?"
				return "cpu"
			}
			return "terminate"
		}
		if !parallel {
			return "fpga"
		}
		if !innerDeps { // "inner loops with dependences?"
			return "gpu"
		}
		if fullyUnrollable { // "fully unrollable?"
			return "fpga"
		}
		return "gpu"
	}
	name := func(target platform.TargetKind, ok bool) string {
		if !ok {
			return "terminate"
		}
		return target.String()
	}
	pick := func(b bool, yes, no float64) float64 {
		if b {
			return yes
		}
		return no
	}
	for mask := 0; mask < 32; mask++ {
		transferCheaper, computeBound, parallel := mask&1 != 0, mask&2 != 0, mask&4 != 0
		innerDeps, fullyUnrollable := mask&8 != 0, mask&16 != 0
		tData := pick(transferCheaper, 0.5, 2) // against Tcpu = 1
		ai := pick(computeBound, x+1, x-1)
		inner := int(pick(innerDeps, 2, 0))
		got := name(fig3Decide(1, tData, ai, x, parallel, inner, fullyUnrollable))
		if want := fig3(transferCheaper, computeBound, parallel, innerDeps, fullyUnrollable); got != want {
			t.Errorf("Tdata<Tcpu=%t AI>X=%t parallel=%t innerDeps=%t fullyUnrollable=%t: %s, Fig. 3 says %s",
				transferCheaper, computeBound, parallel, innerDeps, fullyUnrollable, got, want)
		}
	}
	for _, edge := range []struct {
		what      string
		tData, ai float64
	}{
		{"Tdata == Tcpu", 1, x + 1},
		{"AI == X", 0.5, x},
	} {
		if got := name(fig3Decide(1, edge.tData, edge.ai, x, true, 0, false)); got != "cpu" {
			t.Errorf("%s, parallel: %s, want cpu (the comparison is strict)", edge.what, got)
		}
		if got := name(fig3Decide(1, edge.tData, edge.ai, x, false, 0, false)); got != "terminate" {
			t.Errorf("%s, serial: %s, want terminate (the comparison is strict)", edge.what, got)
		}
	}
}
