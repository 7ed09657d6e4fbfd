package tasks_test

// Tests that run the whole built-in PSA-flow (flowlang.PSAFlow) over the
// tasks of this package.

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// TestBuildPSAFlowShapes: in every mode × sharing combination the built-in
// flow opens with the target-independent tasks in repository order, then
// branch point A.
func TestBuildPSAFlowShapes(t *testing.T) {
	tindep := tasks.TargetIndependent()
	for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
		for _, sharing := range []bool{false, true} {
			flow := flowlang.PSAFlow(flowlang.Options{Mode: mode, ResourceSharing: sharing})
			name := mode.String()
			if sharing {
				name += "/sharing"
			}
			if len(flow.Nodes) != len(tindep)+1 {
				t.Fatalf("%s: top-level flow has %d nodes, want %d target-independent tasks and branch point A", name, len(flow.Nodes), len(tindep))
			}
			for i, task := range tindep {
				if s, ok := flow.Nodes[i].(*core.Step); !ok || s.Task.Name() != task.Name() {
					t.Errorf("%s: node %d is %v, want task %q", name, i, flow.Nodes[i], task.Name())
				}
			}
			if br, ok := flow.Nodes[len(tindep)].(core.Branch); !ok || br.PointName != "A" {
				t.Errorf("%s: last node is %v, want branch point A", name, flow.Nodes[len(tindep)])
			}
		}
	}
}

func TestUninformedFlowGeneratesAllTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("flow integration test")
	}
	d := core.NewDesign("synth", minic.MustParse(tasks.AppSrc))
	flow := flowlang.PSAFlow(flowlang.Options{Mode: tasks.Uninformed})
	leaves, err := flow.Run(tasks.SynthCtx(), d)
	if err != nil {
		t.Fatalf("flow: %v", err)
	}
	if len(leaves) != 5 {
		t.Fatalf("designs = %d, want 5 (OMP + 2 GPU + 2 FPGA)", len(leaves))
	}
	devices := map[string]int{}
	for _, leaf := range leaves {
		devices[leaf.Device]++
	}
	for _, dev := range []string{platform.GTX1080Ti.Name, platform.RTX2080Ti.Name,
		platform.Arria10.Name, platform.Stratix10.Name, platform.EPYC7543.Name} {
		if devices[dev] != 1 {
			t.Errorf("device %s count = %d, want 1", dev, devices[dev])
		}
	}
}

// TestHotspotWithReturnFailsTheFlow: a hotspot loop a return escapes from
// cannot be outlined without changing the program (the return would leave
// the kernel, and the host would run on), so the flow stops there instead
// of generating designs for a different program.
func TestHotspotWithReturnFailsTheFlow(t *testing.T) {
	const src = `
int app(int n, const double *in, double *out) {
    for (int i = 0; i < n; i++) {
        out[i] = sqrt(in[i] * 2.0 + 1.0);
        if (i == 50) {
            return 7;
        }
    }
    out[0] = -1.0;
    return 1;
}
`
	for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
		flow := flowlang.PSAFlow(flowlang.Options{Mode: mode})
		designs, err := flow.Run(tasks.SynthCtx(), core.NewDesign("synth", minic.MustParse(src)))
		if err == nil || !strings.Contains(err.Error(), "transform ExtractHotspot: return at 6:13 leaves the hotspot loop") {
			t.Errorf("mode %v: flow returned %d designs and error %v, want the outlining refused", mode, len(designs), err)
		}
	}
}

// TestCachedParallelFlowEquivalence runs the full uninformed PSA-flow
// with parallel branch paths sharing one RunCache and asserts the design
// set matches an uncached serial run. Under -race this exercises the
// singleflight path: sibling goroutines requesting the same profiled run
// concurrently.
func TestCachedParallelFlowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow runs the interpreter; skipped in -short mode")
	}
	runFlow := func(parallel bool, runs *core.RunCache) []string {
		ctx := tasks.SynthCtx()
		ctx.Parallel = parallel
		ctx.Runs = runs
		flow := flowlang.PSAFlow(flowlang.Options{Mode: tasks.Uninformed})
		leaves, err := flow.Run(ctx, core.NewDesign("synth", minic.MustParse(tasks.AppSrc)))
		if err != nil {
			t.Errorf("flow (parallel=%t cached=%t): %v", parallel, runs != nil, err)
		}
		out := make([]string, 0, len(leaves))
		for _, d := range leaves {
			out = append(out, chaosLeafLine(d))
		}
		sort.Strings(out)
		return out
	}
	plain := runFlow(false, nil)
	// Within one flow no two paths ask for the same run any more — the
	// analyses read the hotspot run's record and each verify run belongs to
	// one accelerator class — so the sharing comes from a second flow racing
	// the first over the same cache.
	cache := core.NewRunCache()
	var wg sync.WaitGroup
	cached := make([][]string, 2)
	for i := range cached {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cached[i] = runFlow(true, cache)
		}()
	}
	wg.Wait()
	for _, got := range cached {
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("cached parallel flow diverges from uncached serial flow:\ncached: %v\nplain:  %v", got, plain)
		}
	}
	if hits, misses := cache.Stats(); hits != 3 || misses != 3 {
		t.Errorf("two racing flows: hits=%d misses=%d, want 3/3 (hotspot run and one verify run per accelerator class, each made once)", hits, misses)
	}
}

// heavySrc: a kernel whose fixed inner loop instantiates far too many
// exponential units to fit any device spatially — the Rush Larsen shape.
const heavySrc = `
void app(int n, const double *in, double *out, const double *k) {
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int g = 0; g < 64; g++) {
            acc += exp(k[g] * in[i]) + exp(k[g] + in[i]) + exp(k[g] - in[i]);
        }
        out[i] = acc;
    }
}
`

type heavyWorkload struct{}

func (heavyWorkload) Name() string  { return "heavy" }
func (heavyWorkload) Entry() string { return "app" }
func (heavyWorkload) Args() []interp.Value {
	n := 16
	in := make([]float64, n)
	k := make([]float64, 64)
	for i := range in {
		in[i] = float64(i) * 0.01
	}
	for i := range k {
		k[i] = float64(i) * 0.001
	}
	return []interp.Value{
		interp.IntVal(int64(n)),
		interp.BufVal(interp.NewFloatBuffer("in", minic.Double, in)),
		interp.BufVal(interp.NewFloatBuffer("out", minic.Double, make([]float64, n))),
		interp.BufVal(interp.NewFloatBuffer("k", minic.Double, k)),
	}
}

// runSharingFlow runs the built-in uninformed flow with resource sharing
// on the heavy kernel and returns the design for dev.
func runSharingFlow(t *testing.T, dev platform.FPGASpec) *core.Design {
	t.Helper()
	ctx := &core.Context{Workload: heavyWorkload{}, CPU: platform.EPYC7543}
	d := core.NewDesign("heavy", minic.MustParse(heavySrc))
	flow := flowlang.PSAFlow(flowlang.Options{Mode: tasks.Uninformed, ResourceSharing: true})
	leaves, err := flow.Run(ctx, d)
	if err != nil {
		t.Fatalf("sharing flow: %v", err)
	}
	for _, leaf := range leaves {
		if leaf.Device == dev.Name {
			return leaf
		}
	}
	t.Fatalf("no %s design among %d leaves", dev.Name, len(leaves))
	return nil
}

func TestSharingRecoversOvermappedDesign(t *testing.T) {
	// Baseline: the plain DSE must declare the design unsynthesizable.
	ctx := &core.Context{Workload: heavyWorkload{}, CPU: platform.EPYC7543}
	base := core.NewDesign("heavy", minic.MustParse(heavySrc))
	for _, task := range tasks.TargetIndependent() {
		if err := task.Run(ctx, base); err != nil {
			t.Fatalf("tindep: %v", err)
		}
	}
	for _, task := range []core.Task{tasks.GenerateOneAPI, tasks.UnrollFixedLoopsTask,
		tasks.SinglePrecisionFns, tasks.SinglePrecisionLiterals, tasks.UnrollUntilOvermap(platform.Stratix10)} {
		if err := task.Run(ctx, base); err != nil {
			t.Fatalf("task %s: %v", task.Name(), err)
		}
	}
	if base.Infeasible == "" {
		t.Fatalf("192 exp units should overmap the Stratix 10 (LUT %v)", base.HLSReport)
	}

	// Sharing path: feasible, with the rolled loop recorded.
	d := runSharingFlow(t, platform.Stratix10)
	if d.Infeasible != "" {
		t.Fatalf("sharing should recover the design: %s", d.Infeasible)
	}
	if d.HLSReport == nil || !d.HLSReport.Fits {
		t.Fatalf("report = %v", d.HLSReport)
	}
	src := minic.Print(&minic.Program{Funcs: []*minic.FuncDecl{d.KernelFunc()}})
	if !strings.Contains(src, "#pragma unroll 1") {
		t.Fatalf("shared loop not annotated:\n%s", src)
	}
	// The pipeline pays the shared loop's trips: II reflects the carried
	// accumulation.
	if d.HLSReport.II != 8 {
		t.Errorf("II = %d, want 8 (shared dep loop)", d.HLSReport.II)
	}
	if d.Est.Total <= 0 {
		t.Errorf("no time estimate: %+v", d.Est)
	}
	// The artifact renders with the sharing pragma intact.
	if d.Artifact == nil || !strings.Contains(d.Artifact.Source, "#pragma unroll 1") {
		t.Error("rendered design lost the sharing annotation")
	}
}
