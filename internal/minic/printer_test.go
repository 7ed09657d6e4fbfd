package minic

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// roundTrip asserts Parse(Print(Parse(src))) prints identically.
func roundTrip(t *testing.T, src string) {
	t.Helper()
	p1, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	out1 := Print(p1)
	p2, err := Parse(out1)
	if err != nil {
		t.Fatalf("reparse: %v\nprinted:\n%s", err, out1)
	}
	out2 := Print(p2)
	if out1 != out2 {
		t.Fatalf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
}

func TestPrintRoundTripSample(t *testing.T) { roundTrip(t, sampleSrc) }

func TestPrintRoundTripConstructs(t *testing.T) {
	cases := []string{
		`void f() { }`,
		`int f() { return -1; }`,
		`void f(int n) { while (n > 0) { n--; } }`,
		`void f(int n, double *a) {
			#pragma unroll 4
			for (int i = 0; i < n; i++) { a[i] = (double)i; }
		}`,
		`double f(double x) { return x < 0.0 ? 0.0 : x; }`, // ternary unsupported: expect failure below
	}
	for _, src := range cases[:4] {
		roundTrip(t, src)
	}
	if _, err := Parse(cases[4]); err == nil {
		t.Error("ternary should be rejected (unsupported construct)")
	}
}

func TestPrintParenthesization(t *testing.T) {
	cases := []struct{ src, wantExpr string }{
		{`int f(int a, int b, int c) { return a * (b + c); }`, "a * (b + c)"},
		{`int f(int a, int b, int c) { return a - (b - c); }`, "a - (b - c)"},
		{`int f(int a, int b, int c) { return (a - b) - c; }`, "a - b - c"},
		{`int f(int a, int b) { return -(a + b); }`, "-(a + b)"},
		{`bool f(bool a, bool b, bool c) { return (a || b) && c; }`, "(a || b) && c"},
		{`int f(int a, int b) { return a / (b * 2); }`, "a / (b * 2)"},
	}
	for _, c := range cases {
		prog := MustParse(c.src)
		ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
		got := FormatExpr(ret.X)
		if got != c.wantExpr {
			t.Errorf("FormatExpr = %q, want %q", got, c.wantExpr)
		}
		roundTrip(t, c.src)
	}
}

func TestPrintPragmas(t *testing.T) {
	src := `void k(int n, float *a) {
    #pragma omp parallel for num_threads(32)
    for (int i = 0; i < n; i++) { a[i] = 0.0f; }
}`
	out := Print(MustParse(src))
	if !strings.Contains(out, "#pragma omp parallel for num_threads(32)") {
		t.Fatalf("pragma lost:\n%s", out)
	}
}

func TestPrintFloatSuffix(t *testing.T) {
	src := `void f(float *a) { a[0] = 1.5f; a[1] = 2.5; }`
	out := Print(MustParse(src))
	if !strings.Contains(out, "1.5f") {
		t.Errorf("single suffix lost:\n%s", out)
	}
	if !strings.Contains(out, "2.5;") {
		t.Errorf("double literal altered:\n%s", out)
	}
}

func TestPrintFloatSingleToggle(t *testing.T) {
	fl := &FloatLit{Val: 2.5, Text: "2.5", Single: true}
	if got := FormatExpr(fl); got != "2.5f" {
		t.Errorf("toggled single prints %q, want 2.5f", got)
	}
	fl2 := &FloatLit{Val: 2.5, Text: "2.5f", Single: false}
	if got := FormatExpr(fl2); got != "2.5" {
		t.Errorf("toggled double prints %q, want 2.5", got)
	}
	fl3 := &FloatLit{Val: 3.0}
	if got := FormatExpr(fl3); got != "3.0" {
		t.Errorf("synthesized literal prints %q, want 3.0", got)
	}
}

// TestCountLOC: CountLOC agrees with its definition spelled the obvious
// way — the lines strings.TrimSpace leaves something of — on line-ending
// and white-space corners, Unicode spaces and invalid UTF-8 included, on a
// string and on the same bytes.
func TestCountLOC(t *testing.T) {
	reference := func(src string) int {
		n := 0
		for _, line := range strings.Split(src, "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		src  string
		want int
	}{
		{"", 0},
		{"\n", 0},
		{"\n\n\n", 0},
		{"a", 1},
		{"a\n\nb\n  \nc\n", 3},
		{"a\nb", 2},
		{"a\r\n\r\nb\r\n", 2},
		{"\t\t\n\t x\t\n", 1},
		{"\v\f\r\n", 0},
		{"\u00a0", 0},
		{"\u00a0x\u00a0\n", 1},
		{"\u2028", 0},
		{"\u2028\u2029\u3000\u0085\n\u1680", 0},
		{"\u200b", 1},
		{"\xff\n\xc2\n", 2},
		{"  }\n{", 2},
	} {
		if got, ref := CountLOC(c.src), reference(c.src); got != ref || got != c.want {
			t.Errorf("CountLOC(%q) = %d, reference %d, want %d", c.src, got, ref, c.want)
		}
		if got := CountLOC([]byte(c.src)); got != c.want {
			t.Errorf("CountLOC([]byte(%q)) = %d, want %d", c.src, got, c.want)
		}
	}
}

// genExpr builds a random well-formed expression tree for the round-trip
// property test.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return &Ident{Name: string(rune('a' + r.Intn(4)))}
		case 1:
			return &IntLit{Val: int64(r.Intn(100))}
		default:
			return &FloatLit{Val: float64(r.Intn(100)) / 4, Single: r.Intn(2) == 0}
		}
	}
	ops := []TokKind{TokPlus, TokMinus, TokStar, TokSlash, TokLt, TokGt, TokEqEq, TokAndAnd, TokOrOr}
	switch r.Intn(5) {
	case 0:
		return &UnaryExpr{Op: TokMinus, X: genExpr(r, depth-1)}
	case 1:
		return &IndexExpr{Base: &Ident{Name: "arr"}, Index: genExpr(r, depth-1)}
	case 2:
		return &CallExpr{Fun: "fn", Args: []Expr{genExpr(r, depth-1), genExpr(r, depth-1)}}
	default:
		return &BinaryExpr{Op: ops[r.Intn(len(ops))], L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	}
}

// TestQuickExprRoundTrip: printing a random expression and re-parsing it
// yields a structurally identical print. This is the printer/parser
// consistency invariant the meta-programming layer depends on.
func TestQuickExprRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 4)
		src := "double fn(double x, double y) { return x; }\n" +
			"int probe(int a, int b, int c, int d, int *arr) { return " + FormatExpr(e) + "; }"
		p1, err := Parse(src)
		if err != nil {
			t.Logf("parse failed for %q: %v", src, err)
			return false
		}
		out1 := Print(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Logf("reparse failed: %v", err)
			return false
		}
		return Print(p2) == out1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneEqualPrint: Clone always prints identically to the
// original and has the same node count.
func TestQuickCloneEqualPrint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 5)
		src := "double fn(double x, double y) { return x; }\n" +
			"double probe(double a, double b, double c, double d, double *arr) {\n" +
			"    double acc = 0.0;\n" +
			"    for (int i = 0; i < 10; i++) { acc += " + FormatExpr(e) + "; }\n" +
			"    return acc;\n}"
		p, err := Parse(src)
		if err != nil {
			// Random expressions are always parseable here; treat failure as bug.
			t.Logf("parse failed: %v", err)
			return false
		}
		c := p.Clone()
		n1, n2 := 0, 0
		Walk(p, func(Node) bool { n1++; return true })
		Walk(c, func(Node) bool { n2++; return true })
		return Print(p) == Print(c) && n1 == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatStmt(t *testing.T) {
	prog := MustParse("void f() { int x = 3; if (x > 1) { x = 1; } }")
	got := AppendStmts([]byte("//\n"), prog.Funcs[0].Body.Stmts, 2)
	want := "//\n        int x = 3;\n        if (x > 1) {\n            x = 1;\n        }\n"
	if string(got) != want {
		t.Errorf("AppendStmts = %q, want %q", got, want)
	}
}

// TestPrintScratchCapped prints a program whose text is larger than
// maxScratch and checks that printScratch hands out no buffer above it:
// one outsized program must not leave its text in the pool.
func TestPrintScratchCapped(t *testing.T) {
	var b strings.Builder
	b.WriteString("void big(double *a) {\n")
	for i := 0; b.Len() <= 2*maxScratch; i++ {
		b.WriteString("    a[" + strconv.Itoa(i) + "] = a[" + strconv.Itoa(i+1) + "] + 1.0;\n")
	}
	b.WriteString("}\n")
	p := MustParse(b.String())
	if n := len(Print(p)); n <= maxScratch {
		t.Fatalf("printed %d bytes, want more than %d", n, maxScratch)
	}
	ProgramLOC(p)
	var held []*[]byte
	for range 4 {
		buf := printScratch.Get().(*[]byte)
		if cap(*buf) > maxScratch {
			t.Errorf("printScratch handed out a buffer of capacity %d, want at most %d", cap(*buf), maxScratch)
		}
		held = append(held, buf)
	}
	for _, buf := range held {
		putScratch(buf)
	}
}
