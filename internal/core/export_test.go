package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"psaflow/internal/minic"
)

// GuardWrites installs, until uninstall is called, a check around every
// task any flow runs. Before the task the design is treated as if a Fork
// had just happened — every function shared, none copied — so each task is
// checked as the first writer after a fork, wherever it sits in the flow:
// each function is fingerprinted, structure and every node ID, and after
// the task the same declarations are fingerprinted again; a change is
// reported naming the task. After the task the design's program must also
// be numbered as minic.AssignIDs numbers it: 1, 2, 3, … in depth-first
// order, and pass minic.Check, which the VM's lowering relies on. report
// is called from parallel branch paths; uninstall returns
// how many tasks were checked. Install it before a flow runs, never beside
// one.
func GuardWrites(report func(error)) (uninstall func() int64) {
	var checked atomic.Int64
	taskHook = func(t Task, d *Design) func() {
		d.shared, d.copied = true, nil
		funcs := slices.Clone(d.Prog.Funcs)
		before := make([]uint64, len(funcs))
		for i, f := range funcs {
			before[i] = funcPrint(f)
		}
		return func() {
			checked.Add(1)
			for i, f := range funcs {
				if funcPrint(f) != before[i] {
					report(fmt.Errorf("task %q on %s wrote function %s without copying it first", t.Name(), d.Label(), f.Name))
				}
			}
			if n, want := misnumbered(d.Prog); n != nil {
				report(fmt.Errorf("task %q on %s left node %T at %s numbered %d, want %d (IDs dense in depth-first order)",
					t.Name(), d.Label(), n, n.NodePos(), n.ID(), want))
			}
			if err := minic.Check(d.Prog); err != nil {
				report(fmt.Errorf("task %q on %s left a program that fails the check: %v", t.Name(), d.Label(), err))
			}
		}
	}
	return func() int64 {
		taskHook = nil
		return checked.Load()
	}
}

// funcPrint hashes a function's structure (minic.Fingerprint) together with
// the ID of every node in it.
func funcPrint(f *minic.FuncDecl) uint64 {
	h := minic.Fingerprint(&minic.Program{Funcs: []*minic.FuncDecl{f}})
	minic.Walk(f, func(n minic.Node) bool {
		h = (h ^ uint64(n.ID())) * 1099511628211
		return true
	})
	return h
}

// misnumbered returns the first node of p, in depth-first order, whose ID
// is not its position in that order, and that position; nil if none.
func misnumbered(p *minic.Program) (bad minic.Node, want int) {
	minic.Walk(p, func(n minic.Node) bool {
		if bad != nil {
			return false
		}
		if want++; n.ID() != want {
			bad = n
		}
		return bad == nil
	})
	return bad, want
}
