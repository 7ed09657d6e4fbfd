package analysis_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/minic"
	"psaflow/internal/query"
	"psaflow/internal/tasks"
)

// loopDepsFixture holds every LoopDeps of every loop of the five
// applications as parsed, after Hotspot Loop Extraction and after Unroll
// Fixed Loops, as the map-based dependence analysis computed them. It is
// frozen: a change to it is a change to what every parallelisation and
// II decision reads, made by hand.
const loopDepsFixture = "testdata/loopdeps.golden"

// loopDepsTable renders AnalyzeLoop on every loop of prog: the loop's ID
// and induction variable, its array dependences and reductions in the
// order reported, then its scalar ones sorted (they come out of a map).
func loopDepsTable(sb *strings.Builder, label string, prog *minic.Program) {
	fmt.Fprintf(sb, "%s\n", label)
	for _, fn := range prog.Funcs {
		for _, l := range query.LoopsIn(fn) {
			d := analysis.AnalyzeLoop(l)
			fmt.Fprintf(sb, "\t%s loop %d var %q\n", fn.Name, d.LoopID, d.Var)
			var scalars []string
			for _, c := range d.Carried {
				line := fmt.Sprintf("\t\tcarried %s %q: %s\n", c.Kind, c.Name, c.Detail())
				if c.Kind == analysis.DepScalar {
					scalars = append(scalars, line)
				} else {
					sb.WriteString(line)
				}
			}
			for _, r := range d.Reductions {
				if r.Array {
					fmt.Fprintf(sb, "\t\treduction array %q %s\n", r.Name, r.Op)
				} else {
					scalars = append(scalars, fmt.Sprintf("\t\treduction scalar %q %s\n", r.Name, r.Op))
				}
			}
			sort.Strings(scalars)
			for _, s := range scalars {
				sb.WriteString(s)
			}
		}
	}
}

// TestLoopDepsFixture: on each application's program as parsed, as Hotspot
// Loop Extraction leaves it and after Unroll Fixed Loops materialises its
// kernel, every loop's dependences — kinds, names, detail strings and the
// order of the array ones — equal the fixture's, exactly.
func TestLoopDepsFixture(t *testing.T) {
	var sb strings.Builder
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		ctx := &core.Context{Workload: bench.Workload{B: b}, Runs: runs}
		d := core.NewDesign(b.Name, b.Parse())
		loopDepsTable(&sb, b.Name+" parsed", d.Prog)
		for _, stage := range []struct {
			name  string
			tasks []core.Task
		}{
			{"extract-hotspot", []core.Task{tasks.IdentifyHotspots, tasks.ExtractHotspot}},
			{"unroll-fixed-loops", []core.Task{tasks.UnrollFixedLoopsTask}},
		} {
			for _, task := range stage.tasks {
				if err := task.Run(ctx, d); err != nil {
					t.Fatalf("%s: %s: %v", b.Name, task.Name(), err)
				}
			}
			loopDepsTable(&sb, b.Name+" "+stage.name, d.Prog)
		}
	}
	want, err := os.ReadFile(loopDepsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got %q\nwant %q", loopDepsFixture, i+1, g, w)
			}
		}
	}
}
