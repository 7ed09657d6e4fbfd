package minic

import (
	"strings"
	"testing"
)

const editSrc = `
void f(int n, double *a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    a[0] = s;
}
`

func TestReplaceStmt(t *testing.T) {
	prog := MustParse(editSrc)
	body := prog.Func("f").Body
	loop := body.Stmts[1]
	repl := &PragmaStmt{Text: "replaced"}
	if !ReplaceStmt(prog, loop, repl) {
		t.Fatal("ReplaceStmt returned false")
	}
	if body.Stmts[1] != Stmt(repl) {
		t.Fatal("statement not replaced")
	}
	if ReplaceStmt(prog, loop, repl) {
		t.Fatal("ReplaceStmt of removed node should return false")
	}
}

func TestReplaceForInit(t *testing.T) {
	prog := MustParse(editSrc)
	loop := prog.Func("f").Body.Stmts[1].(*ForStmt)
	newInit := &ExprStmt{X: &AssignExpr{Op: TokAssign, LHS: &Ident{Name: "i"}, RHS: &IntLit{Val: 5}}}
	if !ReplaceStmt(prog, loop.Init, newInit) {
		t.Fatal("ReplaceStmt on for-init returned false")
	}
	if loop.Init != Stmt(newInit) {
		t.Fatal("for-init not replaced")
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	prog := MustParse(editSrc)
	body := prog.Func("f").Body
	loop := body.Stmts[1]
	before := &PragmaStmt{Text: "before"}
	after := &PragmaStmt{Text: "after"}
	if !InsertBefore(prog, loop, before) {
		t.Fatal("InsertBefore failed")
	}
	if !InsertAfter(prog, loop, after) {
		t.Fatal("InsertAfter failed")
	}
	out := Print(prog)
	iBefore := strings.Index(out, "#pragma before")
	iLoop := strings.Index(out, "for (")
	iAfter := strings.Index(out, "#pragma after")
	if !(iBefore < iLoop && iLoop < iAfter) {
		t.Fatalf("wrong ordering:\n%s", out)
	}
	if len(body.Stmts) != 5 {
		t.Fatalf("body stmts = %d, want 5", len(body.Stmts))
	}
}

func TestRewriteExprsDoubleToSingle(t *testing.T) {
	src := `void f(double *a) { a[0] = 1.5; a[1] = 2.5 + 3.0; }`
	prog := MustParse(src)
	RewriteExprs(prog, func(e Expr) Expr {
		if fl, ok := e.(*FloatLit); ok && !fl.Single {
			return &FloatLit{Val: fl.Val, Text: fl.Text, Single: true}
		}
		return nil
	})
	out := Print(prog)
	for _, want := range []string{"1.5f", "2.5f", "3.0f"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
}

func TestRewriteExprsAppliedOnce(t *testing.T) {
	// Wrapping every int literal in a call must wrap exactly once,
	// including literals in for-loop inits, conditions and posts.
	src := `void f(int *a) { for (int i = 2; i < 8; i += 2) { a[i] = 4; } }`
	prog := MustParse(src)
	RewriteExprs(prog, func(e Expr) Expr {
		if il, ok := e.(*IntLit); ok {
			return &CallExpr{Fun: "wrap", Args: []Expr{&IntLit{Val: il.Val, Text: il.Text}}}
		}
		return nil
	})
	out := Print(prog)
	if strings.Contains(out, "wrap(wrap(") {
		t.Fatalf("double rewrite:\n%s", out)
	}
	if got := strings.Count(out, "wrap("); got != 4 {
		t.Fatalf("wrap count = %d, want 4:\n%s", got, out)
	}
}

func TestRewriteExprsCallRename(t *testing.T) {
	src := `double f(double x) { return sqrt(x) + sqrt(exp(x)); }`
	prog := MustParse(src)
	RewriteExprs(prog, func(e Expr) Expr {
		if c, ok := e.(*CallExpr); ok && c.Fun == "sqrt" {
			c.Fun = "sqrtf"
		}
		return nil
	})
	out := Print(prog)
	if strings.Count(out, "sqrtf(") != 2 || strings.Contains(out, "sqrt(x) ") {
		t.Fatalf("rename failed:\n%s", out)
	}
	if !strings.Contains(out, "exp(") {
		t.Fatalf("exp should be untouched:\n%s", out)
	}
}
