package minic_test

import (
	"context"
	"fmt"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
)

// transformedPrograms runs the uninformed PSA-flow on every bundled
// application and returns the program of each generated design: the
// outlined, demoted, fixed-loop-materialised and pragma-annotated ASTs a
// job really builds.
func transformedPrograms(t testing.TB) map[string]*minic.Program {
	t.Helper()
	out := map[string]*minic.Program{}
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		results, err := experiments.RunBenchmarkEnv(context.Background(), b, nil,
			tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy},
			experiments.JobEnv{}, nil, nil, runs)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, r := range results {
			out[b.Name+"/"+r.Design.Label()] = r.Design.Prog
		}
	}
	return out
}

// TestOneStructuralDescription pins that EachChild is the only description
// of the AST's shape: Walk's preorder is the preorder of recursing with
// EachChild — on the bundled programs, every transformed form a flow
// produces, and whatever the FuzzParse seeds parse to.
func TestOneStructuralDescription(t *testing.T) {
	progs := transformedPrograms(t)
	for i, src := range parseSeeds() {
		if p, err := minic.Parse(src); err == nil {
			progs[fmt.Sprintf("seed %d", i)] = p
		}
	}
	for name, prog := range progs {
		var want []minic.Node
		var rec func(n minic.Node)
		rec = func(n minic.Node) {
			if n == nil {
				t.Fatalf("%s: EachChild passed a nil child", name)
			}
			want = append(want, n)
			minic.EachChild(n, rec)
		}
		rec(prog)

		var got []minic.Node
		minic.Walk(prog, func(n minic.Node) bool {
			got = append(got, n)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: Walk visits %d nodes, EachChild recursion %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: visit %d: Walk sees %T #%d, EachChild recursion %T #%d",
					name, i, got[i], got[i].ID(), want[i], want[i].ID())
			}
		}
	}
}

// TestWalkPrunes pins the other half of Walk's contract: a false return
// skips exactly that node's subtree.
func TestWalkPrunes(t *testing.T) {
	prog := bench.NBody().Parse()
	all, pruned, inLoops := 0, 0, 0
	minic.Walk(prog, func(minic.Node) bool { all++; return true })
	minic.Walk(prog, func(n minic.Node) bool {
		pruned++
		if _, ok := n.(*minic.ForStmt); ok {
			minic.Walk(n, func(minic.Node) bool { inLoops++; return true })
			inLoops-- // the loop itself was visited
			return false
		}
		return true
	})
	if inLoops == 0 || pruned+inLoops != all {
		t.Errorf("pruned walk saw %d nodes, skipped %d under loops, full walk %d", pruned, inLoops, all)
	}
}
