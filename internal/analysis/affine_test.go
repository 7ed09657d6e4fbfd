package analysis

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"psaflow/internal/minic"
)

func exprOf(t *testing.T, src string) minic.Expr {
	t.Helper()
	prog := minic.MustParse("int f(int i, int ii, int j, int m, int n) { return " + src + "; }")
	return prog.Funcs[0].Body.Stmts[0].(*minic.ReturnStmt).X
}

// coeff returns the coefficient of a's term with the given key (0 when a
// has no such term).
func coeff(a Affine, key string) int64 {
	for _, t := range a.Terms {
		if t.Key == key {
			return t.C
		}
	}
	return 0
}

func TestAffineForms(t *testing.T) {
	cases := []struct {
		src   string
		want  string
		ok    bool
		cnst  int64
		coefI int64
	}{
		{"5", "5", true, 5, 0},
		{"i", "i", true, 0, 1},
		{"i + 1", "i + 1", true, 1, 1},
		{"i - 1", "i + -1", true, -1, 1},
		{"2 * i", "2*i", true, 0, 2},
		{"i * 3", "3*i", true, 0, 3},
		{"i * m", "i*m", true, 0, 0},
		{"(i + 1) * m", "i*m + m", true, 0, 0},
		{"i * 3 + j", "3*i + j", true, 0, 3},
		{"-i", "-i", true, 0, -1},
		{"i + i", "2*i", true, 0, 2},
		{"i - i", "0", true, 0, 0},
		{"(i + 1) * 4", "4*i + 4", true, 4, 4},
		{"i / 2", "", false, 0, 0},
		{"i % 4", "", false, 0, 0},
	}
	for _, c := range cases {
		a := AffineOf(exprOf(t, c.src))
		if a.OK != c.ok {
			t.Errorf("%s: OK=%v, want %v", c.src, a.OK, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if a.String() != c.want {
			t.Errorf("%s: String=%q, want %q", c.src, a.String(), c.want)
		}
		if a.Const != c.cnst || coeff(a, "i") != c.coefI {
			t.Errorf("%s: const=%d coefI=%d, want %d/%d", c.src, a.Const, coeff(a, "i"), c.cnst, c.coefI)
		}
	}
}

func TestAffineEqual(t *testing.T) {
	a := AffineOf(exprOf(t, "i * 3 + j + 1"))
	b := AffineOf(exprOf(t, "3 * i + j + 1"))
	c := AffineOf(exprOf(t, "i * 3 + j + 2"))
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) {
		t.Error("a must not equal c")
	}
}

func TestAffineEqualModulo(t *testing.T) {
	a := AffineOf(exprOf(t, "i * 4 + j"))
	b := AffineOf(exprOf(t, "i * 7 + j"))
	if !a.EqualModulo(b, "i") {
		t.Error("forms differing only in i must be EqualModulo i")
	}
	c := AffineOf(exprOf(t, "i * 4 + 2 * j"))
	if a.EqualModulo(c, "i") {
		t.Error("forms differing in j must not be EqualModulo i")
	}
}

func TestAffineNonAffineString(t *testing.T) {
	a := AffineOf(exprOf(t, "i % m"))
	if a.String() != "<non-affine>" {
		t.Errorf("got %q", a.String())
	}
}

func TestAffineDependsOn(t *testing.T) {
	a := AffineOf(exprOf(t, "i * m + j"))
	if !a.DependsOn("i") || !a.DependsOn("m") || !a.DependsOn("j") {
		t.Errorf("DependsOn failed for %s", a)
	}
	if a.DependsOn("n") {
		t.Error("must not depend on n")
	}
	if !a.DependsOn("i") {
		t.Error("composite term i*m must depend on i")
	}
}

// TestQuickAffineEvaluation: the recognized linear form evaluates to the
// same value as the interpreted expression for random variable values.
func TestQuickAffineEvaluation(t *testing.T) {
	e := exprOf(t, "3 * i - 2 * j + (i + 7) * 4")
	a := AffineOf(e)
	if !a.OK {
		t.Fatal("expression should be affine")
	}
	f := func(i, j int16) bool {
		want := 3*int64(i) - 2*int64(j) + (int64(i)+7)*4
		got := a.Const + coeff(a, "i")*int64(i) + coeff(a, "j")*int64(j)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// affineAgrees reports how got differs from the map-based reference form:
// in OK, Const, String() or any coefficient; and whether got keeps its
// terms sorted by key without a zero coefficient.
func affineAgrees(got Affine, want refAffine) error {
	if got.OK != want.OK {
		return fmt.Errorf("OK = %v, want %v", got.OK, want.OK)
	}
	if !got.OK {
		return nil
	}
	if got.Const != want.Const {
		return fmt.Errorf("Const = %d, want %d", got.Const, want.Const)
	}
	if g, w := got.String(), want.String(); g != w {
		return fmt.Errorf("String() = %q, want %q", g, w)
	}
	if len(got.Terms) != len(want.Coeff) {
		return fmt.Errorf("%d terms %v, want %d %v", len(got.Terms), got.Terms, len(want.Coeff), want.Coeff)
	}
	for i, t := range got.Terms {
		if t.C == 0 || i > 0 && got.Terms[i-1].Key >= t.Key {
			return fmt.Errorf("terms %v not sorted by key without zeros", got.Terms)
		}
		if want.Coeff[t.Key] != t.C {
			return fmt.Errorf("coefficient of %s = %d, want %d", t.Key, t.C, want.Coeff[t.Key])
		}
	}
	return nil // as many distinct keys as the reference, each agreeing
}

// randAffineExpr renders a random index expression over i, ii, j, m:
// sums, differences, negations and casts of randSubscript output and
// literals; products of two non-constant sides such as (i + 1) * m;
// differences of an expression with itself, whose terms cancel; and the
// odd division or modulo, which is not affine. It counts the
// self-differences in *cancels.
func randAffineExpr(r *rand.Rand, depth int, cancels *int) string {
	if depth == 0 || r.Intn(5) == 0 {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("(%d)", r.Intn(9)-4)
		case 1:
			return []string{"i", "ii", "j", "m"}[r.Intn(4)]
		}
		return "(" + randSubscript(r) + ")"
	}
	x := randAffineExpr(r, depth-1, cancels)
	switch r.Intn(9) {
	case 0:
		return "-(" + x + ")"
	case 1:
		return "(int)(" + x + ")"
	case 2:
		*cancels++
		return fmt.Sprintf("(%s) - (%s)", x, x)
	case 3, 4:
		return fmt.Sprintf("(%s + %d) * (%s)", x, r.Intn(5)-2, randAffineExpr(r, depth-1, cancels))
	case 5:
		if r.Intn(4) == 0 {
			return "(" + x + []string{") / 2", ") % 3"}[r.Intn(2)]
		}
	}
	return fmt.Sprintf("(%s) %s (%s)", x, []string{"+", "-", "*"}[r.Intn(3)], randAffineExpr(r, depth-1, cancels))
}

// TestAffineOfMatchesReferenceRandom: on random index expressions, and on
// the shapes the sorted-run arithmetic special-cases, AffineOf returns the
// map-based reference's form.
func TestAffineOfMatchesReferenceRandom(t *testing.T) {
	srcs := []string{
		"(i + 1) * m", "m * (i + 1)", "(i + m) * (i - m)", "(i + 1) * (j - 1) - i * j",
		"2 * i - i * 2", "-(i * m) + m * i", "i * m * j - j * (m * i)", "(i - i) * m",
		"0 * i + m", "(int)(i * 3) + (int)j", "(i * m) * (j * ii)", "-(-(i))",
	}
	r := rand.New(rand.NewSource(23))
	cancels := 0
	for len(srcs) < 3000 {
		if r.Intn(3) == 0 {
			srcs = append(srcs, randSubscript(r))
		} else {
			srcs = append(srcs, randAffineExpr(r, 1+r.Intn(4), &cancels))
		}
	}
	nonAffine, products := 0, 0
	for _, src := range srcs {
		e := exprOf(t, src)
		got, want := AffineOf(e), refAffineOf(e)
		if err := affineAgrees(got, want); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !got.OK {
			nonAffine++
		}
		for _, tm := range got.Terms {
			if strings.Contains(tm.Key, "*") {
				products++
				break
			}
		}
	}
	// Every shape the sorted-run arithmetic special-cases must have been
	// reached, or the agreement above says little.
	if products < 200 || cancels < 100 || nonAffine < 20 {
		t.Errorf("differential reached too few shapes: %d forms with a product term, %d self-differences, %d non-affine", products, cancels, nonAffine)
	}
}

// indexExprOf parses src as the subscript of a[...] in a MiniC function
// over i, ii, j, m and n (randSubscript's names) and c, d, g and k (the
// dependence fixture's), and reports false unless it parses and checks
// to exactly that.
func indexExprOf(src string) (minic.Expr, bool) {
	prog, err := minic.Parse("int f(int *a, int i, int ii, int j, int m, int n, int c, int d, int g, int k) { return a[" + src + "]; }")
	if err != nil || len(prog.Funcs) != 1 || len(prog.Funcs[0].Body.Stmts) != 1 {
		return nil, false
	}
	ret, ok := prog.Funcs[0].Body.Stmts[0].(*minic.ReturnStmt)
	if !ok {
		return nil, false
	}
	ix, ok := ret.X.(*minic.IndexExpr)
	if !ok {
		return nil, false
	}
	if base, ok := ix.Base.(*minic.Ident); !ok || base.Name != "a" {
		return nil, false
	}
	return ix.Index, true
}

// fixtureSubscripts are the subscripts the dependence fixture's detail
// strings print.
var fixtureSubscripts = regexp.MustCompile(`write subscript (.+) invariant in|subscripts (.+) and (.+) (?:differ in|conflict across)`)

// FuzzAffine: AffineOf never panics on an index expression and returns
// the map-based reference's form. Seeds are the dependence fixture's
// subscripts and randSubscript output.
func FuzzAffine(f *testing.F) {
	golden, err := os.ReadFile("testdata/loopdeps.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range fixtureSubscripts.FindAllStringSubmatch(string(golden), -1) {
		for _, sub := range m[1:] {
			if sub == "" {
				continue
			}
			if _, ok := indexExprOf(sub); !ok {
				f.Fatalf("fixture subscript %q does not parse as a subscript", sub)
			}
			f.Add(sub)
		}
	}
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 32; k++ {
		f.Add(randSubscript(r))
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, ok := indexExprOf(src)
		if !ok {
			t.Skip()
		}
		if err := affineAgrees(AffineOf(e), refAffineOf(e)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	})
}
