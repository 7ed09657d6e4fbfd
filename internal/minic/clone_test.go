package minic_test

import (
	"fmt"
	"reflect"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
)

// checkCopy fails unless cp is an exact deep copy of orig: equal field by
// field, IDs and positions included, with no node of orig in it, and every
// list of it — Stmts, Args, Params, Pragmas — at capacity, so that an
// append to one copy's list never writes into memory another list holds.
func checkCopy(t *testing.T, what string, cp, orig minic.Node) {
	t.Helper()
	if !reflect.DeepEqual(cp, orig) {
		t.Errorf("%s: the copy differs from the original", what)
		return
	}
	nodes := map[minic.Node]bool{}
	minic.Walk(orig, func(n minic.Node) bool { nodes[n] = true; return true })
	minic.Walk(cp, func(n minic.Node) bool {
		if nodes[n] {
			t.Errorf("%s: the copy shares %T at %s with the original", what, n, n.NodePos())
			return false
		}
		if n := spareCap(n); n != "" {
			t.Errorf("%s: %s", what, n)
		}
		return true
	})
}

// spareCap names a list of n with room past its length, or returns "".
func spareCap(n minic.Node) string {
	switch v := n.(type) {
	case *minic.Program:
		if cap(v.Funcs) != len(v.Funcs) {
			return fmt.Sprintf("the program's Funcs have len %d, cap %d", len(v.Funcs), cap(v.Funcs))
		}
	case *minic.FuncDecl:
		if cap(v.Params) != len(v.Params) {
			return fmt.Sprintf("%s's Params have len %d, cap %d", v.Name, len(v.Params), cap(v.Params))
		}
	case *minic.Block:
		if cap(v.Stmts) != len(v.Stmts) {
			return fmt.Sprintf("block at %s has len %d, cap %d", v.NodePos(), len(v.Stmts), cap(v.Stmts))
		}
	case *minic.CallExpr:
		if cap(v.Args) != len(v.Args) {
			return fmt.Sprintf("call of %s at %s has len %d, cap %d", v.Fun, v.NodePos(), len(v.Args), cap(v.Args))
		}
	case *minic.ForStmt:
		if cap(v.Pragmas) != len(v.Pragmas) {
			return fmt.Sprintf("for at %s has %d pragmas, cap %d", v.NodePos(), len(v.Pragmas), cap(v.Pragmas))
		}
	case *minic.WhileStmt:
		if cap(v.Pragmas) != len(v.Pragmas) {
			return fmt.Sprintf("while at %s has %d pragmas, cap %d", v.NodePos(), len(v.Pragmas), cap(v.Pragmas))
		}
	}
	return ""
}

// TestCloneFuncMatches: CloneFunc, CloneStmt and CloneExpr copy every
// function of the five applications exactly — as parsed, and in every form
// a flow leaves them in (outlined, unrolled, demoted, annotated) — and so
// does each statement and expression copied alone.
func TestCloneFuncMatches(t *testing.T) {
	progs := transformedPrograms(t)
	for _, b := range bench.All() {
		progs[b.Name] = b.Parse()
	}
	for name, prog := range progs {
		for _, f := range prog.Funcs {
			what := name + "/" + f.Name
			checkCopy(t, what, minic.CloneFunc(f), f)
			for _, s := range f.Body.Stmts {
				checkCopy(t, what+" statement", minic.CloneStmt(s), s)
			}
			minic.Walk(f, func(n minic.Node) bool {
				if e, ok := n.(minic.Expr); ok {
					checkCopy(t, what+" expression", minic.CloneExpr(e), e)
					return false
				}
				return true
			})
		}
	}
	if minic.CloneStmt(nil) != nil || minic.CloneExpr(nil) != nil {
		t.Error("a copy of nil is not nil")
	}
}

// TestCloneUnrolledMatchesSubstitution: the copies CloneUnrolled makes of
// every loop body of the five applications equal, one by one, a copy of
// the body with each use of the loop's variable replaced by its value's
// IntLit afterwards, as Unroll Fixed Loops wrote it before the substitution
// moved into the copy. Every copy owns its nodes and lists.
func TestCloneUnrolledMatchesSubstitution(t *testing.T) {
	const first, step, n = 3, 2, 4
	loops := 0
	for _, b := range bench.All() {
		minic.Walk(b.Parse(), func(node minic.Node) bool {
			fs, ok := node.(*minic.ForStmt)
			if !ok {
				return true
			}
			decl, ok := fs.Init.(*minic.DeclStmt)
			if !ok {
				return true
			}
			loops++
			got := minic.CloneUnrolled(fs.Body, decl.Name, first, step, n)
			if len(got) != n || cap(got) != n {
				t.Fatalf("%s: %d copies (cap %d), want %d", b.Name, len(got), cap(got), n)
			}
			for k, s := range got {
				want := minic.CloneStmt(fs.Body)
				minic.RewriteExprs(want, func(e minic.Expr) minic.Expr {
					if id, ok := e.(*minic.Ident); ok && id.Name == decl.Name {
						return &minic.IntLit{Val: first + int64(k)*step}
					}
					return nil
				})
				what := fmt.Sprintf("%s: the loop at %s, copy %d", b.Name, fs.NodePos(), k)
				if !reflect.DeepEqual(s, want) {
					t.Errorf("%s differs from the substituted body", what)
				}
				minic.Walk(s, func(m minic.Node) bool {
					if msg := spareCap(m); msg != "" {
						t.Errorf("%s: %s", what, msg)
					}
					return true
				})
			}
			// An append to one copy's list must leave the next copy's alone.
			if b0, b1 := got[0].(*minic.Block), got[1].(*minic.Block); len(b0.Stmts) > 0 {
				next := b1.Stmts[0]
				b0.Stmts = append(b0.Stmts, &minic.BreakStmt{})
				if b1.Stmts[0] != next {
					t.Errorf("%s: an append to copy 0's statements wrote into copy 1's", b.Name)
				}
			}
			return true
		})
	}
	if loops == 0 {
		t.Fatal("no loop with a declared variable in the five applications")
	}
}
