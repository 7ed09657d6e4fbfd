package flowlang_test

import (
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
)

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

// prefix gives every fact the kernel tasks and an informed strategy need
// (hotspot, kernel, deps), so the documents below can run.
const prefix = `
  task identify-hotspots
  task extract-hotspot
  task loop-dependence
`

func TestCompileWhenResolution(t *testing.T) {
	src := `flow "d" {` + prefix + `
  when sharing { task identify-hotspots }
  when !sharing { task extract-hotspot }
  when informed { task pointer-analysis }
  when uninformed { task data-in-out }
}`
	taskNames := func(f *core.Flow) []string {
		var out []string
		for _, n := range f.Nodes[3:] {
			out = append(out, n.(*core.Step).Task.Name())
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
	src := `flow "d" {` + prefix + `
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
	br := c.Flow.Nodes[3].(core.Branch)
	if br.Select.Name() != "informed-fig3" {
		t.Errorf("selector = %q (strategy informed must not follow the uninformed mode)", br.Select.Name())
	}
}
