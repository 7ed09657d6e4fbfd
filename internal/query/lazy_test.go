package query_test

import (
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
	"psaflow/internal/query"
)

// TestLoopSelectionLeavesIndexUnbuilt pins that the queries every task and
// every HLS estimate makes — LoopsIn, OutermostLoops, InnerLoops — are
// plain walks: on each function of each bundled program they never build
// the whole-program parent index.
func TestLoopSelectionLeavesIndexUnbuilt(t *testing.T) {
	for _, b := range bench.All() {
		prog := b.Parse()
		q := query.New(prog)
		for _, fn := range prog.Funcs {
			q.LoopsIn(fn)
			for _, l := range q.OutermostLoops(fn) {
				q.InnerLoops(l)
			}
		}
		if q.IndexBuilt() {
			t.Errorf("%s: loop selection built the parent index", b.Name)
		}
		if q.Parent(prog.Funcs[0]) != minic.Node(prog) || !q.IndexBuilt() {
			t.Errorf("%s: Parent did not build the index on first use", b.Name)
		}
	}
}

// TestStructuralRelationsOnBundledPrograms checks the index-backed
// relations and the pruned OutermostLoops walk against an ancestor stack
// kept while recursing over minic.Children, for every loop of every
// bundled program.
func TestStructuralRelationsOnBundledPrograms(t *testing.T) {
	for _, b := range bench.All() {
		prog := b.Parse()
		q := query.New(prog)
		loops := 0
		outermost := map[*minic.FuncDecl][]minic.Stmt{}
		var stack []minic.Node
		var rec func(n minic.Node)
		rec = func(n minic.Node) {
			if query.IsLoop(n) {
				loops++
				var fn *minic.FuncDecl
				depth := 1
				for _, a := range stack {
					if f, ok := a.(*minic.FuncDecl); ok {
						fn = f
					}
					if query.IsLoop(a) {
						depth++
					}
					if !q.Encloses(a, n) || q.Encloses(n, a) {
						t.Errorf("%s: loop #%d: Encloses disagrees about ancestor %T #%d", b.Name, n.ID(), a, a.ID())
					}
				}
				if q.Encloses(n, n) {
					t.Errorf("%s: loop #%d encloses itself", b.Name, n.ID())
				}
				if got := q.EnclosingFunc(n); got != fn {
					t.Errorf("%s: loop #%d: EnclosingFunc = %v, want %s", b.Name, n.ID(), got, fn.Name)
				}
				if got := q.IsOutermostLoop(n); got != (depth == 1) {
					t.Errorf("%s: loop #%d: IsOutermostLoop = %t at depth %d", b.Name, n.ID(), got, depth)
				}
				if got := q.Parent(n); got != stack[len(stack)-1] {
					t.Errorf("%s: loop #%d: Parent = %T, want %T", b.Name, n.ID(), got, stack[len(stack)-1])
				}
				if depth == 1 {
					outermost[fn] = append(outermost[fn], n.(minic.Stmt))
				}
			}
			stack = append(stack, n)
			for _, c := range minic.Children(n) {
				rec(c)
			}
			stack = stack[:len(stack)-1]
		}
		rec(prog)
		if loops == 0 {
			t.Fatalf("%s: no loops", b.Name)
		}
		for _, fn := range prog.Funcs {
			got, want := q.OutermostLoops(fn), outermost[fn]
			if len(got) != len(want) {
				t.Fatalf("%s/%s: OutermostLoops = %d loops, want %d", b.Name, fn.Name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s/%s: OutermostLoops[%d] = #%d, want #%d", b.Name, fn.Name, i, got[i].ID(), want[i].ID())
				}
			}
		}
	}
}
