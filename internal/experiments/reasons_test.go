package experiments

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// checkReasons fails on a result that is infeasible without saying why, or
// that disagrees with its design about being infeasible.
func checkReasons(t *testing.T, what string, results []DesignResult) {
	t.Helper()
	for _, r := range results {
		if r.Infeasible != (r.Design.Infeasible != "") {
			t.Errorf("%s: %s: result infeasible %t, design's reason %q", what, r.Design.Label(), r.Infeasible, r.Design.Infeasible)
		}
	}
}

// TestMinimalFlowChoosesNothing: minimal.psa stops before branch point A,
// so under every app × mode × sharing its one leaf is no design of any
// target: infeasible for want of a target, labelled by its app alone, and
// in no Fig. 5 column. (paper.psa's leaves are checked the same way by
// designsTable.)
func TestMinimalFlowChoosesNothing(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "flows", "minimal.psa"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := flowlang.Check(string(src))
	if err != nil {
		t.Fatal(err)
	}
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		for _, sharing := range []bool{false, true} {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				opts := tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy, ResourceSharing: sharing}
				results, err := RunBenchmarkEnv(context.Background(), b, nil, opts, JobEnv{Flow: doc.Compile(opts).Flow}, nil, nil, runs)
				if err != nil {
					t.Fatalf("%s: %v", b.Name, err)
				}
				checkReasons(t, b.Name, results)
				if len(results) != 1 {
					t.Fatalf("%s: %d leaves, want 1", b.Name, len(results))
				}
				d := results[0].Design
				if d.Label() != b.Name || d.Infeasible != "no target chosen" || column(d) != -1 {
					t.Errorf("%s %v sharing=%t: label %q, reason %q, column %d", b.Name, mode, sharing, d.Label(), d.Infeasible, column(d))
				}
			}
		}
	}
}

// TestGoFlowOffCatalogGPUs: a flow built in Go may choose a GPU the
// platform catalog does not model. Its design is infeasible and says so;
// a GPU no blocksize fits is infeasible for that reason, on its device,
// and Table I excludes both by name.
func TestGoFlowOffCatalogGPUs(t *testing.T) {
	offCatalog := platform.RTX2080Ti
	offCatalog.Name = "Off-Catalog GPU"
	tiny := platform.RTX2080Ti
	tiny.Name, tiny.MaxBlockSize = "Tiny GPU", perfmodel.BlocksizeCandidates[0]/2

	flow := &core.Flow{Name: "off-catalog"}
	for _, t := range tasks.TargetIndependent() {
		flow.AddTask(t)
	}
	flow.AddTask(tasks.GenerateHIP)
	var paths []core.Path
	for _, dev := range []platform.GPUSpec{offCatalog, tiny} {
		f := (&core.Flow{Name: "gpu/" + dev.Name}).AddTask(tasks.BlocksizeDSE(dev)).AddTask(tasks.RenderDesign)
		paths = append(paths, core.Path{Name: dev.Name, Flow: f})
	}
	flow.AddBranch(core.Branch{PointName: "B", Paths: paths, Select: core.SelectAll{}})

	b, err := bench.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunBenchmarkEnv(context.Background(), b, nil, tasks.FlowOptions{Mode: tasks.Uninformed},
		JobEnv{Flow: flow}, nil, nil, core.NewRunCache())
	if err != nil {
		t.Fatal(err)
	}
	checkReasons(t, "off-catalog", results)
	want := map[string]string{
		"nbody/gpu/Off-Catalog GPU": `device "Off-Catalog GPU" is not in the platform catalog`,
		"nbody/gpu/Tiny GPU":        "no feasible blocksize",
	}
	if len(results) != len(want) {
		t.Fatalf("%d leaves, want %d", len(results), len(want))
	}
	for _, r := range results {
		if reason, ok := want[r.Design.Label()]; !ok || r.Design.Infeasible != reason || !r.Infeasible {
			t.Errorf("%s: infeasible %t, reason %q, want %q", r.Design.Label(), r.Infeasible, r.Design.Infeasible, reason)
		}
	}
	rows := Table1([]Fig5Row{{Benchmark: b.Name, Designs: results}})
	if got := rows[0].Excluded; !slices.Equal(got, []string{offCatalog.Name, tiny.Name}) {
		t.Errorf("Table I excludes %q", got)
	}
}
