package minic_test

import (
	"slices"
	"testing"

	"psaflow/internal/minic"
	"psaflow/internal/transform"
)

const copyPathSrc = `
void k(int n, double *a) {
    double s = 0.0;
    #pragma unroll 2
    #pragma ivdep
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 4; j++) { a[i] += 1.0; }
    }
    if (n > 4) {
        a[0] = 1.0;
    } else {
        s = 0.25;
        while (s < 1.0) { s += 0.5; }
    }
    a[1] = s;
}`

// ids lists the ID of every node under n in depth-first order.
func ids(n minic.Node) []int {
	var out []int
	minic.Walk(n, func(c minic.Node) bool {
		out = append(out, c.ID())
		return true
	})
	return out
}

func fingerprint(f *minic.FuncDecl) uint64 {
	return minic.Fingerprint(&minic.Program{Funcs: []*minic.FuncDecl{f}})
}

// TestCopyPath: the copy holds new nodes only on the path down to the loop,
// shares everything else by pointer, keeps every ID and the structure, and
// gives the loop a Pragmas slice of its own — RemoveLoopPragmas filters in
// place, so a shared one would rewrite the original's.
func TestCopyPath(t *testing.T) {
	f := minic.MustParse(copyPathSrc).MustFunc("k")
	loop := f.Body.Stmts[1].(*minic.ForStmt)
	wantPragmas := []string{"unroll 2", "ivdep"}
	if !slices.Equal(loop.Pragmas, wantPragmas) {
		t.Fatalf("parsed pragmas %q, want %q", loop.Pragmas, wantPragmas)
	}

	cf, cs := minic.CopyPath(f, loop)
	cl, ok := cs.(*minic.ForStmt)
	if cf == nil || !ok {
		t.Fatalf("CopyPath returned %v, %T", cf, cs)
	}
	if cf == f || cf.Body == f.Body || cl == loop || cf.Body.Stmts[1] != minic.Stmt(cl) {
		t.Fatal("the function, its body or the loop was not copied, or the copied body does not hold the copied loop")
	}
	if cl.Init != loop.Init || cl.Cond != loop.Cond || cl.Post != loop.Post || cl.Body != loop.Body {
		t.Error("the copied loop does not share its header and body with the original")
	}
	for i, s := range f.Body.Stmts {
		if i != 1 && cf.Body.Stmts[i] != s {
			t.Errorf("statement %d off the path was copied", i)
		}
	}
	if fingerprint(cf) != fingerprint(f) || !slices.Equal(ids(cf), ids(f)) {
		t.Error("the copy's structure or IDs differ from the original's")
	}

	transform.RemoveLoopPragmas(cl, "unroll")
	if !slices.Equal(cl.Pragmas, []string{"ivdep"}) || !slices.Equal(loop.Pragmas, wantPragmas) {
		t.Errorf("after RemoveLoopPragmas on the copy: copy %q, original %q (want [ivdep], %q)", cl.Pragmas, loop.Pragmas, wantPragmas)
	}

	// A loop under if/else: the if and the else block are on the path, the
	// then block and the else block's other statement are not.
	ifs := f.Body.Stmts[2].(*minic.IfStmt)
	els := ifs.Else.(*minic.Block)
	while := els.Stmts[1]
	cf, cw := minic.CopyPath(f, while)
	if cf == nil || cw == while {
		t.Fatal("CopyPath did not copy the loop under else")
	}
	cifs := cf.Body.Stmts[2].(*minic.IfStmt)
	cels := cifs.Else.(*minic.Block)
	if cifs == ifs || cels == els || cels.Stmts[1] != cw {
		t.Error("the if, its else block or the loop under it was not copied")
	}
	if cifs.Cond != ifs.Cond || cifs.Then != ifs.Then || cels.Stmts[0] != els.Stmts[0] || cf.Body.Stmts[1] != minic.Stmt(loop) {
		t.Error("a node off the path to the loop under else was copied")
	}
	if fingerprint(cf) != fingerprint(f) || !slices.Equal(ids(cf), ids(f)) {
		t.Error("the copy down to the loop under else differs from the original")
	}

	// A loop nested in another loop, and one not in f, have no path.
	if cf, cl := minic.CopyPath(f, loop.Body.Stmts[0]); cf != nil || cl != nil {
		t.Error("CopyPath copied down to a loop nested in another loop")
	}
	other := minic.MustParse(copyPathSrc).MustFunc("k").Body.Stmts[1]
	if cf, cl := minic.CopyPath(f, other); cf != nil || cl != nil {
		t.Error("CopyPath copied down to a loop of another function")
	}
}
