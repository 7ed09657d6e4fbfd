package minic_test

import (
	"slices"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
)

// TestAssignIDsFrom: after an edit inside any function of any application,
// as parsed and as Hotspot Loop Extraction leaves it, renumbering from that
// function gives every node the ID AssignIDs gives a clone, and returns the
// same count. The edit is a statement put first in the function's body,
// which moves every node after it.
func TestAssignIDsFrom(t *testing.T) {
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		extracted := core.NewDesign(b.Name, b.Parse())
		ctx := &core.Context{Workload: bench.Workload{B: b}, Runs: runs}
		for _, task := range []core.Task{tasks.IdentifyHotspots, tasks.ExtractHotspot} {
			if err := task.Run(ctx, extracted); err != nil {
				t.Fatalf("%s: %s: %v", b.Name, task.Name(), err)
			}
		}
		for _, stage := range []struct {
			name string
			prog func() *minic.Program
		}{
			{"parsed", b.Parse},
			{"extracted", extracted.Prog.Clone},
		} {
			for i := range stage.prog().Funcs {
				p := stage.prog()
				f := p.Funcs[i]
				f.Body.Stmts = slices.Insert(f.Body.Stmts, 0, minic.Stmt(&minic.PragmaStmt{Text: "edit"}))
				want := p.Clone()
				wantN := minic.AssignIDs(want)
				if n := minic.AssignIDsFrom(p, f); n != wantN {
					t.Errorf("%s %s, edit in %s: AssignIDsFrom counted %d nodes, AssignIDs %d", b.Name, stage.name, f.Name, n, wantN)
				}
				got, w := ids(p), ids(want)
				for j := range got {
					if got[j] != w[j] {
						t.Errorf("%s %s, edit in %s: AssignIDsFrom numbered node %d in depth-first order %d, AssignIDs %d",
							b.Name, stage.name, f.Name, j+1, got[j], w[j])
						break
					}
				}
			}
		}
	}
}
