package flowlang_test

import (
	"fmt"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
)

// flowEqual compares two flow graphs structurally: flow names, node order,
// task identities, and branch shape (point name, selector name, gating,
// revision bound, path names) — everything that determines execution.
func flowEqual(a, b *core.Flow, path string) error {
	if a.Name != b.Name {
		return fmt.Errorf("%s: flow name %q != %q", path, a.Name, b.Name)
	}
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("%s (%s): %d nodes != %d", path, a.Name, len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		at := fmt.Sprintf("%s/%s[%d]", path, a.Name, i)
		switch an := a.Nodes[i].(type) {
		case core.Step:
			bn, ok := b.Nodes[i].(core.Step)
			if !ok {
				return fmt.Errorf("%s: Step != %T", at, b.Nodes[i])
			}
			if an.Task.Name() != bn.Task.Name() {
				return fmt.Errorf("%s: task %q != %q", at, an.Task.Name(), bn.Task.Name())
			}
			if an.Task.Kind() != bn.Task.Kind() || an.Task.Dynamic() != bn.Task.Dynamic() {
				return fmt.Errorf("%s: task %q kind/dyn mismatch", at, an.Task.Name())
			}
		case core.Branch:
			bn, ok := b.Nodes[i].(core.Branch)
			if !ok {
				return fmt.Errorf("%s: Branch != %T", at, b.Nodes[i])
			}
			if an.PointName != bn.PointName || an.Gated != bn.Gated || an.MaxRevisions != bn.MaxRevisions {
				return fmt.Errorf("%s: branch header %q/%v/%d != %q/%v/%d", at,
					an.PointName, an.Gated, an.MaxRevisions, bn.PointName, bn.Gated, bn.MaxRevisions)
			}
			if an.Select.Name() != bn.Select.Name() {
				return fmt.Errorf("%s: branch %q selector %q != %q", at, an.PointName, an.Select.Name(), bn.Select.Name())
			}
			if len(an.Paths) != len(bn.Paths) {
				return fmt.Errorf("%s: branch %q has %d paths != %d", at, an.PointName, len(an.Paths), len(bn.Paths))
			}
			for j := range an.Paths {
				if an.Paths[j].Name != bn.Paths[j].Name {
					return fmt.Errorf("%s: branch %q path %d: %q != %q", at, an.PointName, j, an.Paths[j].Name, bn.Paths[j].Name)
				}
				if err := flowEqual(an.Paths[j].Flow, bn.Paths[j].Flow, at+"/"+an.Paths[j].Name); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("%s: unknown node %T", at, a.Nodes[i])
		}
	}
	return nil
}

// TestPaperFlowStructuralDiff is the correctness anchor: examples/flows/
// paper.psa must compile to a graph structurally identical to the
// hard-coded tasks.BuildPSAFlowWithOptions in every mode × sharing
// combination.
func TestPaperFlowStructuralDiff(t *testing.T) {
	src := readExample(t, "paper.psa")
	for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
		for _, sharing := range []bool{false, true} {
			name := fmt.Sprintf("mode=%v/sharing=%v", mode, sharing)
			opts := tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy, ResourceSharing: sharing}
			want := tasks.BuildPSAFlowWithOptions(opts)
			got, err := flowlang.CompileSource(src, flowlang.Options{Mode: mode, ResourceSharing: sharing})
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			if err := flowEqual(got.Flow, want, ""); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestCompileSettings(t *testing.T) {
	src := `flow "d" {
  budget 2.5
  faults "seed=3,rate=0.1,kinds=hls"
  retry attempts=5 budget=12
  task identify-hotspots
}`
	c, err := flowlang.CompileSource(src, flowlang.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Budget != 2.5 {
		t.Errorf("Budget = %g", c.Budget)
	}
	if c.Faults != "seed=3,rate=0.1,kinds=hls" {
		t.Errorf("Faults = %q", c.Faults)
	}
	if !c.HasRetry || c.Retry.MaxAttempts != 5 || c.Retry.Budget != 12 {
		t.Errorf("Retry = %+v has=%v", c.Retry, c.HasRetry)
	}
}

func TestCompileWhenResolution(t *testing.T) {
	src := `flow "d" {
  when sharing { task identify-hotspots }
  when !sharing { task extract-hotspot }
  when informed { task pointer-analysis }
  when uninformed { task data-in-out }
}`
	taskNames := func(f *core.Flow) []string {
		var out []string
		for _, n := range f.Nodes {
			out = append(out, n.(core.Step).Task.Name())
		}
		return out
	}
	c, err := flowlang.CompileSource(src, flowlang.Options{Mode: tasks.Informed, ResourceSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	// Task.Name() is the engine's display name, not the DSL identifier.
	got := taskNames(c.Flow)
	if len(got) != 2 || got[0] != "Identify Hotspot Loops" || got[1] != "Pointer Analysis" {
		t.Errorf("informed+sharing tasks = %v", got)
	}
	c, err = flowlang.CompileSource(src, flowlang.Options{Mode: tasks.Uninformed})
	if err != nil {
		t.Fatal(err)
	}
	got = taskNames(c.Flow)
	if len(got) != 2 || got[0] != "Hotspot Loop Extraction" || got[1] != "Data In/Out Analysis" {
		t.Errorf("uninformed tasks = %v", got)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	_, err := flowlang.CompileSource(`flow "d" { task frobnicate }`, flowlang.Options{})
	if err == nil {
		t.Fatal("want validation error")
	}
	if _, ok := err.(*flowlang.ErrorList); !ok {
		t.Fatalf("error is %T, want *ErrorList", err)
	}
}

// TestCompileStrategyArgs checks per-branch strategy tuning produces a
// distinct informed selector configuration (observable only structurally:
// the selector name stays "informed-fig3"; behaviour is covered by the
// engine's own strategy tests).
func TestCompileStrategyArgs(t *testing.T) {
	src := `flow "d" {
  branch "A" strategy informed(ai-threshold=2, transfer-bw=1e9) {
    path "gpu" { task generate-hip }
    path "fpga" { task generate-oneapi }
    path "cpu" { task omp-parallel-loops }
  }
}`
	c, err := flowlang.CompileSource(src, flowlang.Options{Mode: tasks.Uninformed})
	if err != nil {
		t.Fatal(err)
	}
	br := c.Flow.Nodes[0].(core.Branch)
	if br.Select.Name() != "informed-fig3" {
		t.Errorf("selector = %q (strategy informed must not follow the uninformed mode)", br.Select.Name())
	}
}
