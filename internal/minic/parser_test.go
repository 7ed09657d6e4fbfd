package minic

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleSrc = `
void saxpy(int n, float a, const float *x, float *y) {
    for (int i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
    }
}

double dot(int n, const double *x, const double *y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}
`

func TestParseSample(t *testing.T) {
	prog, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("got %d funcs, want 2", len(prog.Funcs))
	}
	saxpy := prog.Func("saxpy")
	if saxpy == nil {
		t.Fatal("saxpy not found")
	}
	if len(saxpy.Params) != 4 {
		t.Fatalf("saxpy params = %d, want 4", len(saxpy.Params))
	}
	if !saxpy.Params[2].Type.Ptr || !saxpy.Params[2].Type.Const {
		t.Errorf("param x should be const pointer, got %v", saxpy.Params[2].Type)
	}
	if saxpy.Ret.Kind != Void {
		t.Errorf("saxpy ret = %v, want void", saxpy.Ret)
	}
	if prog.Func("dot").Ret.Kind != Double {
		t.Errorf("dot ret kind wrong")
	}
	if prog.Func("missing") != nil {
		t.Error("Func(missing) should be nil")
	}
}

func TestParseForLoopStructure(t *testing.T) {
	prog := MustParse(sampleSrc)
	body := prog.Func("saxpy").Body
	if len(body.Stmts) != 1 {
		t.Fatalf("saxpy body stmts = %d, want 1", len(body.Stmts))
	}
	loop, ok := body.Stmts[0].(*ForStmt)
	if !ok {
		t.Fatalf("stmt is %T, want *ForStmt", body.Stmts[0])
	}
	if _, ok := loop.Init.(*DeclStmt); !ok {
		t.Errorf("loop init is %T, want *DeclStmt", loop.Init)
	}
	cond, ok := loop.Cond.(*BinaryExpr)
	if !ok || cond.Op != TokLt {
		t.Errorf("loop cond wrong: %v", FormatExpr(loop.Cond))
	}
	if _, ok := loop.Post.(*IncDecExpr); !ok {
		t.Errorf("loop post is %T, want *IncDecExpr", loop.Post)
	}
}

func TestParsePragmaAttachment(t *testing.T) {
	src := `
void k(int n, float *a) {
    #pragma unroll 8
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0f;
    }
    #pragma standalone
    int x = 1;
    x = x + 1;
}
`
	prog := MustParse(src)
	body := prog.Func("k").Body
	loop := body.Stmts[0].(*ForStmt)
	if len(loop.Pragmas) != 1 || loop.Pragmas[0] != "unroll 8" {
		t.Fatalf("loop pragmas = %v, want [unroll 8]", loop.Pragmas)
	}
	if _, ok := body.Stmts[1].(*PragmaStmt); !ok {
		t.Fatalf("stmt 1 is %T, want *PragmaStmt", body.Stmts[1])
	}
}

func TestParseMultiplePragmasBeforeLoop(t *testing.T) {
	src := `
void k(int n, float *a) {
    #pragma omp parallel for
    #pragma unroll 2
    for (int i = 0; i < n; i++) { a[i] = 0.0f; }
}
`
	prog := MustParse(src)
	loop := prog.Func("k").Body.Stmts[0].(*ForStmt)
	if len(loop.Pragmas) != 2 {
		t.Fatalf("pragmas = %v, want 2 entries", loop.Pragmas)
	}
	if loop.Pragmas[0] != "omp parallel for" || loop.Pragmas[1] != "unroll 2" {
		t.Fatalf("pragmas = %v", loop.Pragmas)
	}
}

func TestParseIfElseChain(t *testing.T) {
	src := `
int sign(double x) {
    if (x > 0.0) {
        return 1;
    } else if (x < 0.0) {
        return -1;
    } else {
        return 0;
    }
}
`
	prog := MustParse(src)
	ifs, ok := prog.Func("sign").Body.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatal("expected IfStmt")
	}
	elseIf, ok := ifs.Else.(*IfStmt)
	if !ok {
		t.Fatalf("else is %T, want *IfStmt", ifs.Else)
	}
	if _, ok := elseIf.Else.(*Block); !ok {
		t.Fatalf("final else is %T, want *Block", elseIf.Else)
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `int f() { return 1 + 2 * 3 - 4 / 2; }`
	prog := MustParse(src)
	ret := prog.Func("f").Body.Stmts[0].(*ReturnStmt)
	// Expect ((1 + (2*3)) - (4/2))
	top, ok := ret.X.(*BinaryExpr)
	if !ok || top.Op != TokMinus {
		t.Fatalf("top op = %v", FormatExpr(ret.X))
	}
	l := top.L.(*BinaryExpr)
	if l.Op != TokPlus {
		t.Fatalf("left op wrong: %v", FormatExpr(l))
	}
	if l.R.(*BinaryExpr).Op != TokStar {
		t.Fatal("2*3 should bind tighter than +")
	}
	if top.R.(*BinaryExpr).Op != TokSlash {
		t.Fatal("4/2 should bind tighter than -")
	}
}

func TestParseLogicalPrecedence(t *testing.T) {
	src := `bool f(int a, int b, int c) { return a < b && b < c || a == c; }`
	prog := MustParse(src)
	ret := prog.Func("f").Body.Stmts[0].(*ReturnStmt)
	top := ret.X.(*BinaryExpr)
	if top.Op != TokOrOr {
		t.Fatalf("top should be ||, got %s", top.Op)
	}
	if top.L.(*BinaryExpr).Op != TokAndAnd {
		t.Fatal("&& should bind tighter than ||")
	}
}

func TestParseCast(t *testing.T) {
	src := `float f(int x) { return (float)x / 2.0f; }`
	prog := MustParse(src)
	ret := prog.Func("f").Body.Stmts[0].(*ReturnStmt)
	div := ret.X.(*BinaryExpr)
	cast, ok := div.L.(*CastExpr)
	if !ok {
		t.Fatalf("lhs is %T, want *CastExpr", div.L)
	}
	if cast.To.Kind != Float {
		t.Errorf("cast to %v, want float", cast.To)
	}
}

func TestParseAssignOps(t *testing.T) {
	src := `void f(float *a, int i) { a[i] += 1.0f; a[i] -= 2.0f; a[i] *= 3.0f; a[i] /= 4.0f; }`
	prog := MustParse(src)
	stmts := prog.Func("f").Body.Stmts
	wantOps := []TokKind{TokPlusEq, TokMinusEq, TokStarEq, TokSlashEq}
	for i, w := range wantOps {
		a := stmts[i].(*ExprStmt).X.(*AssignExpr)
		if a.Op != w {
			t.Errorf("stmt %d op = %s, want %s", i, a.Op, w)
		}
		if _, ok := a.LHS.(*IndexExpr); !ok {
			t.Errorf("stmt %d lhs is %T", i, a.LHS)
		}
	}
}

func TestParseLocalArray(t *testing.T) {
	src := `void f() { double acc[16]; acc[0] = 1.0; }`
	prog := MustParse(src)
	d := prog.Func("f").Body.Stmts[0].(*DeclStmt)
	if d.ArrayLen == nil {
		t.Fatal("expected array length")
	}
	if d.ArrayLen.(*IntLit).Val != 16 {
		t.Errorf("array len = %v", FormatExpr(d.ArrayLen))
	}
}

func TestParseWhileBreakContinue(t *testing.T) {
	src := `
void f(int n) {
    int i = 0;
    while (i < n) {
        i++;
        if (i == 3) { continue; }
        if (i > 10) { break; }
    }
}
`
	prog := MustParse(src)
	ws, ok := prog.Func("f").Body.Stmts[1].(*WhileStmt)
	if !ok {
		t.Fatal("expected WhileStmt")
	}
	if len(ws.Body.Stmts) != 3 {
		t.Fatalf("while body stmts = %d", len(ws.Body.Stmts))
	}
}

func TestParseSingleStmtBodies(t *testing.T) {
	src := `void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = 0; if (n > 0) a[0] = 1; else a[0] = 2; }`
	prog := MustParse(src)
	loop := prog.Func("f").Body.Stmts[0].(*ForStmt)
	if len(loop.Body.Stmts) != 1 {
		t.Fatalf("single-stmt body not wrapped: %d stmts", len(loop.Body.Stmts))
	}
}

func TestParseCallArgs(t *testing.T) {
	src := `double f(double x) { return pow(sqrt(x), 2.0) + exp(0.0); }`
	prog := MustParse(src)
	ret := prog.Func("f").Body.Stmts[0].(*ReturnStmt)
	add := ret.X.(*BinaryExpr)
	call := add.L.(*CallExpr)
	if call.Fun != "pow" || len(call.Args) != 2 {
		t.Fatalf("call = %v", FormatExpr(call))
	}
	if inner := call.Args[0].(*CallExpr); inner.Fun != "sqrt" {
		t.Fatalf("inner call = %v", FormatExpr(inner))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"void f( {",
		"void f() { int; }",
		"void f() { 1 + ; }",
		"void f() { x = ; }",
		"void f() { for (;;) }",
		"void f() { 3 = x; }",
		"void f() { (x+1)++; }",
		"int f() { return 1 }",
		"void f() { if x { } }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseEmptyStatement(t *testing.T) {
	prog := MustParse("void f() { ;; int x = 1; ; }")
	if n := len(prog.Func("f").Body.Stmts); n != 1 {
		t.Fatalf("empty statements not skipped: %d stmts", n)
	}
}

func TestAssignIDsDense(t *testing.T) {
	prog := MustParse(sampleSrc)
	seen := map[int]bool{}
	max := 0
	Walk(prog, func(n Node) bool {
		id := n.ID()
		if id <= 0 {
			t.Fatalf("node %T has non-positive ID %d", n, id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d on %T", id, n)
		}
		seen[id] = true
		if id > max {
			max = id
		}
		return true
	})
	if len(seen) != max {
		t.Errorf("IDs not dense: %d nodes, max ID %d", len(seen), max)
	}
}

func TestCloneIndependence(t *testing.T) {
	prog := MustParse(sampleSrc)
	clone := prog.Clone()
	if Print(prog) != Print(clone) {
		t.Fatal("clone prints differently")
	}
	// Mutate the clone; original must be untouched.
	clone.Func("saxpy").Body.Stmts[0].(*ForStmt).Pragmas = []string{"unroll 4"}
	clone.Func("dot").Name = "dot2"
	if strings.Contains(Print(prog), "unroll 4") {
		t.Error("mutating clone affected original pragmas")
	}
	if prog.Func("dot") == nil {
		t.Error("mutating clone affected original function name")
	}
}

func TestMustFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFunc should panic for missing function")
		}
	}()
	MustParse("void f() { }").MustFunc("g")
}

// TestQuickParserNeverPanics: arbitrary byte soup must yield an error or a
// program, never a panic — the robustness property the meta-programming
// layer needs when fed unvetted sources.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Targeted nasties.
	for _, src := range []string{
		"", "void", "void f(", "}{", "#pragma", "#pragma x\n#pragma y",
		"void f() { for (;;) { } }", "void f() { a[[]]; }",
		"int f() { return ((((1)))); }", "\x00\x01\x02",
		"void f() { x++++; }", "void f(int a, ) { }",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}
