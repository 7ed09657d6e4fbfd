package query

import (
	"testing"

	"psaflow/internal/minic"
)

const nestedSrc = `
void knl(int n, int m, double *a, double *b) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
            a[i * m + j] = b[i * m + j] * 2.0;
        }
        while (a[i] > 100.0) {
            a[i] = a[i] / 2.0;
        }
    }
}

void other(int n, double *a) {
    for (int i = 0; i < n; i++) {
        a[i] = 0.0;
    }
}
`

func TestSelectOutermostForInFunc(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	q := New(prog)
	// The paper's Fig. 2 query: outermost for loops enclosed by knl.
	matches := q.Select(func(q *Q, n minic.Node) bool {
		if !IsForStmt(n) {
			return false
		}
		fn := q.EnclosingFunc(n)
		return fn != nil && fn.Name == "knl" && q.IsOutermostLoop(n)
	})
	if len(matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(matches))
	}
	loop := matches[0].(*minic.ForStmt)
	if LoopVar(loop) != "i" {
		t.Errorf("loop var = %q, want i", LoopVar(loop))
	}
}

func TestLoopsInAndInnerLoops(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	q := New(prog)
	knl := prog.MustFunc("knl")
	all := q.LoopsIn(knl)
	if len(all) != 3 {
		t.Fatalf("LoopsIn = %d, want 3", len(all))
	}
	outer := q.OutermostLoops(knl)
	if len(outer) != 1 {
		t.Fatalf("OutermostLoops = %d, want 1", len(outer))
	}
	inner := q.InnerLoops(outer[0])
	if len(inner) != 2 {
		t.Fatalf("InnerLoops = %d, want 2", len(inner))
	}
}

func TestLoopDepth(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	q := New(prog)
	knl := prog.MustFunc("knl")
	loops := q.LoopsIn(knl)
	if d := q.LoopDepth(loops[0]); d != 1 {
		t.Errorf("outer depth = %d, want 1", d)
	}
	if d := q.LoopDepth(loops[1]); d != 2 {
		t.Errorf("inner depth = %d, want 2", d)
	}
	if d := q.LoopDepth(prog.MustFunc("knl").Body.Stmts[0].(*minic.ForStmt).Body); d != 0 {
		t.Errorf("non-loop depth = %d, want 0", d)
	}
}

func TestEncloses(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	q := New(prog)
	knl := prog.MustFunc("knl")
	other := prog.MustFunc("other")
	loops := q.LoopsIn(knl)
	if !q.Encloses(knl, loops[0]) {
		t.Error("knl should enclose its loop")
	}
	if !q.Encloses(loops[0], loops[1]) {
		t.Error("outer loop should enclose inner loop")
	}
	if q.Encloses(loops[1], loops[0]) {
		t.Error("inner loop must not enclose outer")
	}
	if q.Encloses(other, loops[0]) {
		t.Error("other must not enclose knl's loop")
	}
	if q.Encloses(loops[0], loops[0]) {
		t.Error("Encloses must be strict")
	}
}

func TestBoundsCanonical(t *testing.T) {
	prog := minic.MustParse(`void f(int n, int *a) {
        for (int i = 2; i < n; i++) { a[i] = 0; }
        for (int j = 0; j < 10; j += 2) { a[j] = 1; }
    }`)
	q := New(prog)
	loops := q.LoopsIn(prog.MustFunc("f"))
	b0, ok := Bounds(loops[0].(*minic.ForStmt))
	if !ok || b0.Var != "i" || b0.Step != 1 {
		t.Fatalf("bounds 0: %+v ok=%v", b0, ok)
	}
	if b0.Lo.(*minic.IntLit).Val != 2 {
		t.Errorf("lo = %v", minic.FormatExpr(b0.Lo))
	}
	b1, ok := Bounds(loops[1].(*minic.ForStmt))
	if !ok || b1.Step != 2 {
		t.Fatalf("bounds 1: %+v ok=%v", b1, ok)
	}
}

func TestBoundsNonCanonical(t *testing.T) {
	cases := []string{
		`void f(int n, int *a) { for (int i = 0; i > n; i++) { a[i] = 0; } }`,
		`void f(int n, int *a) { for (int i = 0; i < n; i--) { a[i] = 0; } }`,
		`void f(int n, int *a) { for (int i = 0; ; i++) { a[i] = 0; break; } }`,
		`void f(int n, int *a) { for (int i = 0; n < i; i++) { a[i] = 0; } }`,
		`void f(int n, int *a) { int i; for (; i < n; i++) { a[i] = 0; } }`,
	}
	for _, src := range cases {
		prog := minic.MustParse(src)
		q := New(prog)
		loop := q.LoopsIn(prog.MustFunc("f"))[0].(*minic.ForStmt)
		if _, ok := Bounds(loop); ok {
			t.Errorf("Bounds accepted non-canonical loop: %s", src)
		}
	}
}

func TestFixedTripCount(t *testing.T) {
	cases := []struct {
		src   string
		n     int64
		fixed bool
	}{
		{`void f(int *a) { for (int i = 0; i < 12; i++) { a[i] = 0; } }`, 12, true},
		{`void f(int *a) { for (int i = 0; i <= 12; i++) { a[i] = 0; } }`, 13, true},
		{`void f(int *a) { for (int i = 0; i < 10; i += 3) { a[i] = 0; } }`, 4, true},
		{`void f(int *a) { for (int i = 5; i < 5; i++) { a[i] = 0; } }`, 0, true},
		{`void f(int n, int *a) { for (int i = 0; i < n; i++) { a[i] = 0; } }`, 0, false},
	}
	for _, c := range cases {
		prog := minic.MustParse(c.src)
		q := New(prog)
		loop := q.LoopsIn(prog.MustFunc("f"))[0]
		n, fixed := FixedTripCount(loop)
		if fixed != c.fixed || (fixed && n != c.n) {
			t.Errorf("%s: got (%d,%v), want (%d,%v)", c.src, n, fixed, c.n, c.fixed)
		}
	}
}

func TestFixedTripCountWhile(t *testing.T) {
	prog := minic.MustParse(`void f(int n) { while (n > 0) { n--; } }`)
	q := New(prog)
	loop := q.LoopsIn(prog.MustFunc("f"))[0]
	if _, fixed := FixedTripCount(loop); fixed {
		t.Error("while loop must not have a fixed trip count")
	}
}

func TestIdentSets(t *testing.T) {
	prog := minic.MustParse(`
void f(int n, double *a, double *b, double *c) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i] * b[i];
        c[i] = s;
        c[i] += 1.0;
    }
}`)
	fn := prog.MustFunc("f")
	assigned := IdentsAssigned(fn.Body)
	for _, name := range []string{"s", "i"} {
		if !assigned[name] {
			t.Errorf("IdentsAssigned missing %q", name)
		}
	}
	if assigned["a"] || assigned["c"] {
		t.Error("array writes must not count as scalar assignment")
	}
	written := ArraysWritten(fn.Body)
	if !written["c"] || written["a"] || written["b"] {
		t.Errorf("ArraysWritten = %v", written)
	}
	read := ArraysRead(fn.Body)
	if !read["a"] || !read["b"] {
		t.Errorf("ArraysRead = %v, want a and b", read)
	}
	if !read["c"] {
		t.Errorf("c[i] += reads c; ArraysRead = %v", read)
	}
}

func TestArraysReadPlainStoreNotRead(t *testing.T) {
	prog := minic.MustParse(`void f(double *a, double *b) { a[0] = b[0]; }`)
	read := ArraysRead(prog.MustFunc("f").Body)
	if read["a"] {
		t.Error("plain store target must not count as read")
	}
	if !read["b"] {
		t.Error("b should be read")
	}
}

func TestWhileIsLoopNotFor(t *testing.T) {
	prog := minic.MustParse(`void f(int n) { while (n > 0) { n--; } }`)
	q := New(prog)
	loop := q.LoopsIn(prog.MustFunc("f"))[0]
	if !IsLoop(loop) || IsForStmt(loop) {
		t.Error("while: IsLoop true, IsForStmt false expected")
	}
	if !q.IsOutermostLoop(loop) {
		t.Error("single while should be outermost")
	}
}

func TestParent(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	q := New(prog)
	knl := prog.MustFunc("knl")
	if q.Parent(knl) != minic.Node(prog) {
		t.Error("function parent should be program")
	}
	if q.Parent(prog) != nil {
		t.Error("program has no parent")
	}
	loop := q.OutermostLoops(knl)[0]
	if q.Parent(loop) != minic.Node(knl.Body) {
		t.Error("loop parent should be function body")
	}
}

func TestLoopVarNonCanonicalShapes(t *testing.T) {
	// Assignment-style init.
	prog := minic.MustParse(`void f(int n, int *a) {
        int i;
        for (i = 0; i < n; i++) { a[i] = 0; }
    }`)
	q := New(prog)
	loop := q.LoopsIn(prog.MustFunc("f"))[0].(*minic.ForStmt)
	if LoopVar(loop) != "i" {
		t.Errorf("assignment-init var = %q", LoopVar(loop))
	}
	// Post-only recognition (no init at all).
	prog2 := minic.MustParse(`void f(int n, int *a) {
        int j;
        j = 0;
        for (; j < n; j++) { a[j] = 0; }
    }`)
	q2 := New(prog2)
	loop2 := q2.LoopsIn(prog2.MustFunc("f"))[0].(*minic.ForStmt)
	if LoopVar(loop2) != "j" {
		t.Errorf("post-only var = %q", LoopVar(loop2))
	}
	// Compound-step post.
	prog3 := minic.MustParse(`void f(int n, int *a) {
        int k;
        for (k = 0; k < n; k += 4) { a[k] = 0; }
    }`)
	q3 := New(prog3)
	loop3 := q3.LoopsIn(prog3.MustFunc("f"))[0].(*minic.ForStmt)
	if LoopVar(loop3) != "k" {
		t.Errorf("compound-step var = %q", LoopVar(loop3))
	}
}

func TestSelectAllForStatements(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	q := New(prog)
	fors := q.Select(func(q *Q, n minic.Node) bool { return IsForStmt(n) })
	if len(fors) != 3 {
		t.Fatalf("for statements = %d, want 3", len(fors))
	}
	whiles := q.Select(func(q *Q, n minic.Node) bool {
		return IsLoop(n) && !IsForStmt(n)
	})
	if len(whiles) != 1 {
		t.Fatalf("while statements = %d, want 1", len(whiles))
	}
}

// TestFreeVars pins the scoping FreeVars resolves names by — the scoping
// both interpreter engines apply — on the cases a name-set comparison gets
// wrong: a name the statement declares after using the outer one, an inner
// declaration that shadows only part of the statement, a name declared
// only after the statement, a sibling scope's declaration, and an
// initializer that reads the name it shadows.
func TestFreeVars(t *testing.T) {
	prog := minic.MustParse(`
void f(int n, const double *in, double *out, float scale) {
    double tmp[4];
    int k = 2;
    if (n > 0) { int hidden = 1; out[0] = (double)hidden; }
    for (int i = 0; i < n; i++) {
        out[i] = in[i] * scale + tmp[i % 4];
        int k2 = k;
        {
            double scale = 2.0;
            int n = n + 1;
            out[i] = out[i] * scale + (double)(n + hidden + later + undefined_name);
        }
        int k = k + k2;
        out[i] = out[i] + (double)k;
    }
    int later = 3;
    out[0] = out[0] + (double)later;
}`)
	fn := prog.MustFunc("f")
	loop := New(prog).OutermostLoops(fn)[0]
	want := []FreeVar{
		{"n", minic.Type{Kind: minic.Int}},
		{"out", minic.Type{Kind: minic.Double, Ptr: true}},
		{"in", minic.Type{Kind: minic.Double, Ptr: true, Const: true}},
		{"scale", minic.Type{Kind: minic.Float}},
		{"tmp", minic.Type{Kind: minic.Double, Ptr: true}},
		{"k", minic.Type{Kind: minic.Int}},
	}
	got := FreeVars(fn, loop)
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("FreeVars[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The whole body as the statement: only parameters are outside it.
	if all := FreeVars(fn, fn.Body); len(all) != 4 || all[0].Name != "n" || all[3].Name != "scale" {
		t.Errorf("FreeVars of the body = %+v, want the four parameters", all)
	}
}
