package tasks

import (
	"strings"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
)

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
	flow := BuildPSAFlowWithOptions(FlowOptions{Mode: Uninformed, ResourceSharing: true})
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
	for _, task := range TargetIndependent() {
		if err := task.Run(ctx, base); err != nil {
			t.Fatalf("tindep: %v", err)
		}
	}
	for _, task := range []core.Task{GenerateOneAPI, UnrollFixedLoopsTask,
		SinglePrecisionFns, SinglePrecisionLiterals, UnrollUntilOvermap(platform.Stratix10)} {
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
