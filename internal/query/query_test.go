package query_test

import (
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
	"psaflow/internal/query"
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
	// The paper's Fig. 2 query: outermost for loops enclosed by knl.
	matches := query.Select(prog, func(n minic.Node) bool {
		if !query.IsForStmt(n) {
			return false
		}
		fn := query.EnclosingFunc(prog, n)
		return fn != nil && fn.Name == "knl" && query.IsOutermostLoop(fn, n)
	})
	if len(matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(matches))
	}
	loop := matches[0].(*minic.ForStmt)
	if query.LoopVar(loop) != "i" {
		t.Errorf("loop var = %q, want i", query.LoopVar(loop))
	}
}

func TestLoopsInAndInnerLoops(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	knl := prog.MustFunc("knl")
	all := query.LoopsIn(knl)
	if len(all) != 3 {
		t.Fatalf("LoopsIn = %d, want 3", len(all))
	}
	outer := query.OutermostLoops(knl)
	if len(outer) != 1 {
		t.Fatalf("OutermostLoops = %d, want 1", len(outer))
	}
	inner := query.InnerLoops(outer[0])
	if len(inner) != 2 {
		t.Fatalf("InnerLoops = %d, want 2", len(inner))
	}
}

func TestEncloses(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	knl := prog.MustFunc("knl")
	other := prog.MustFunc("other")
	loops := query.LoopsIn(knl)
	if !query.Encloses(knl, loops[0]) {
		t.Error("knl should enclose its loop")
	}
	if !query.Encloses(loops[0], loops[1]) {
		t.Error("outer loop should enclose inner loop")
	}
	if query.Encloses(loops[1], loops[0]) {
		t.Error("inner loop must not enclose outer")
	}
	if query.Encloses(other, loops[0]) {
		t.Error("other must not enclose knl's loop")
	}
	if query.Encloses(loops[0], loops[0]) {
		t.Error("Encloses must be strict")
	}
}

func TestBoundsCanonical(t *testing.T) {
	prog := minic.MustParse(`void f(int n, int *a) {
        for (int i = 2; i < n; i++) { a[i] = 0; }
        for (int j = 0; j < 10; j += 2) { a[j] = 1; }
    }`)
	loops := query.LoopsIn(prog.MustFunc("f"))
	b0, ok := query.Bounds(loops[0].(*minic.ForStmt))
	if !ok || b0.Var != "i" || b0.Step != 1 {
		t.Fatalf("bounds 0: %+v ok=%v", b0, ok)
	}
	if b0.Lo.(*minic.IntLit).Val != 2 {
		t.Errorf("lo = %v", minic.FormatExpr(b0.Lo))
	}
	b1, ok := query.Bounds(loops[1].(*minic.ForStmt))
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
		loop := query.LoopsIn(prog.MustFunc("f"))[0].(*minic.ForStmt)
		if _, ok := query.Bounds(loop); ok {
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
		loop := query.LoopsIn(prog.MustFunc("f"))[0]
		n, fixed := query.FixedTripCount(loop)
		if fixed != c.fixed || (fixed && n != c.n) {
			t.Errorf("%s: got (%d,%v), want (%d,%v)", c.src, n, fixed, c.n, c.fixed)
		}
	}
}

func TestFixedTripCountWhile(t *testing.T) {
	prog := minic.MustParse(`void f(int n) { while (n > 0) { n--; } }`)
	loop := query.LoopsIn(prog.MustFunc("f"))[0]
	if _, fixed := query.FixedTripCount(loop); fixed {
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
	assigned := query.IdentsAssigned(fn.Body)
	for _, name := range []string{"s", "i"} {
		if !assigned[name] {
			t.Errorf("IdentsAssigned missing %q", name)
		}
	}
	if assigned["a"] || assigned["c"] {
		t.Error("array writes must not count as scalar assignment")
	}
	written := query.ArraysWritten(fn.Body)
	if !written["c"] || written["a"] || written["b"] {
		t.Errorf("ArraysWritten = %v", written)
	}
	read := query.ArraysRead(fn.Body)
	if !read["a"] || !read["b"] {
		t.Errorf("ArraysRead = %v, want a and b", read)
	}
	if !read["c"] {
		t.Errorf("c[i] += reads c; ArraysRead = %v", read)
	}
}

func TestArraysReadPlainStoreNotRead(t *testing.T) {
	prog := minic.MustParse(`void f(double *a, double *b) { a[0] = b[0]; }`)
	read := query.ArraysRead(prog.MustFunc("f").Body)
	if read["a"] {
		t.Error("plain store target must not count as read")
	}
	if !read["b"] {
		t.Error("b should be read")
	}
}

func TestWhileIsLoopNotFor(t *testing.T) {
	prog := minic.MustParse(`void f(int n) { while (n > 0) { n--; } }`)
	loop := query.LoopsIn(prog.MustFunc("f"))[0]
	if !query.IsLoop(loop) || query.IsForStmt(loop) {
		t.Error("while: IsLoop true, IsForStmt false expected")
	}
	if !query.IsOutermostLoop(prog.MustFunc("f"), loop) {
		t.Error("single while should be outermost")
	}
}

func TestLoopVarNonCanonicalShapes(t *testing.T) {
	// Assignment-style init.
	prog := minic.MustParse(`void f(int n, int *a) {
        int i;
        for (i = 0; i < n; i++) { a[i] = 0; }
    }`)
	loop := query.LoopsIn(prog.MustFunc("f"))[0].(*minic.ForStmt)
	if query.LoopVar(loop) != "i" {
		t.Errorf("assignment-init var = %q", query.LoopVar(loop))
	}
	// Post-only recognition (no init at all).
	prog2 := minic.MustParse(`void f(int n, int *a) {
        int j;
        j = 0;
        for (; j < n; j++) { a[j] = 0; }
    }`)
	loop2 := query.LoopsIn(prog2.MustFunc("f"))[0].(*minic.ForStmt)
	if query.LoopVar(loop2) != "j" {
		t.Errorf("post-only var = %q", query.LoopVar(loop2))
	}
	// Compound-step post.
	prog3 := minic.MustParse(`void f(int n, int *a) {
        int k;
        for (k = 0; k < n; k += 4) { a[k] = 0; }
    }`)
	loop3 := query.LoopsIn(prog3.MustFunc("f"))[0].(*minic.ForStmt)
	if query.LoopVar(loop3) != "k" {
		t.Errorf("compound-step var = %q", query.LoopVar(loop3))
	}
}

func TestSelectAllForStatements(t *testing.T) {
	prog := minic.MustParse(nestedSrc)
	fors := query.Select(prog, query.IsForStmt)
	if len(fors) != 3 {
		t.Fatalf("for statements = %d, want 3", len(fors))
	}
	whiles := query.Select(prog, func(n minic.Node) bool {
		return query.IsLoop(n) && !query.IsForStmt(n)
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
// initializer that reads the name it shadows. Parse rejects a read of an
// undefined name, so the source reads u where the statement reads hidden,
// later and undefined_name, and the reads are renamed after parsing.
func TestFreeVars(t *testing.T) {
	prog := minic.MustParse(`
void f(int n, const double *in, double *out, float scale) {
    double tmp[4];
    int k = 2;
    if (n > 0) { int hidden = 1; out[0] = (double)hidden; }
    for (int i = 0; i < n; i++) {
        out[i] = in[i] * scale + tmp[i % 4];
        int k2 = k;
        int u = 0;
        {
            double scale = 2.0;
            int n = n + 1;
            out[i] = out[i] * scale + (double)(n + u + u + u);
        }
        int k = k + k2;
        out[i] = out[i] + (double)k;
    }
    int later = 3;
    out[0] = out[0] + (double)later;
}`)
	fn := prog.MustFunc("f")
	unresolved := []string{"hidden", "later", "undefined_name"}
	minic.Walk(fn, func(n minic.Node) bool {
		if id, ok := n.(*minic.Ident); ok && id.Name == "u" {
			id.Name, unresolved = unresolved[0], unresolved[1:]
		}
		return true
	})
	loop := query.OutermostLoops(fn)[0]
	want := []query.FreeVar{
		{"n", minic.Type{Kind: minic.Int}},
		{"out", minic.Type{Kind: minic.Double, Ptr: true}},
		{"in", minic.Type{Kind: minic.Double, Ptr: true, Const: true}},
		{"scale", minic.Type{Kind: minic.Float}},
		{"tmp", minic.Type{Kind: minic.Double, Ptr: true}},
		{"k", minic.Type{Kind: minic.Int}},
	}
	got := query.FreeVars(fn, loop)
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("FreeVars[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The whole body as the statement: only parameters are outside it.
	if all := query.FreeVars(fn, fn.Body); len(all) != 4 || all[0].Name != "n" || all[3].Name != "scale" {
		t.Errorf("FreeVars of the body = %+v, want the four parameters", all)
	}
}

// TestStructuralRelationsOnBundledPrograms checks the structural relations
// and the pruned OutermostLoops walk against an ancestor stack kept while
// recursing with minic.EachChild, for every loop of every bundled program.
func TestStructuralRelationsOnBundledPrograms(t *testing.T) {
	for _, b := range bench.All() {
		prog := b.Parse()
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
					if !query.Encloses(a, n) || query.Encloses(n, a) {
						t.Errorf("%s: loop #%d: Encloses disagrees about ancestor %T #%d", b.Name, n.ID(), a, a.ID())
					}
				}
				if query.Encloses(n, n) {
					t.Errorf("%s: loop #%d encloses itself", b.Name, n.ID())
				}
				if got := query.EnclosingFunc(prog, n); got != fn {
					t.Errorf("%s: loop #%d: EnclosingFunc = %v, want %s", b.Name, n.ID(), got, fn.Name)
				}
				if got := query.IsOutermostLoop(fn, n); got != (depth == 1) {
					t.Errorf("%s: loop #%d: IsOutermostLoop = %t at depth %d", b.Name, n.ID(), got, depth)
				}
				if depth == 1 {
					outermost[fn] = append(outermost[fn], n.(minic.Stmt))
				}
			}
			stack = append(stack, n)
			minic.EachChild(n, rec)
			stack = stack[:len(stack)-1]
		}
		rec(prog)
		if loops == 0 {
			t.Fatalf("%s: no loops", b.Name)
		}
		for _, fn := range prog.Funcs {
			got, want := query.OutermostLoops(fn), outermost[fn]
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
