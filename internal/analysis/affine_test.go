package analysis

import (
	"testing"
	"testing/quick"

	"psaflow/internal/minic"
)

func exprOf(t *testing.T, src string) minic.Expr {
	t.Helper()
	prog := minic.MustParse("int f(int i, int ii, int j, int m, int n) { return " + src + "; }")
	return prog.Funcs[0].Body.Stmts[0].(*minic.ReturnStmt).X
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
		if a.Const != c.cnst || a.Coeff["i"] != c.coefI {
			t.Errorf("%s: const=%d coefI=%d, want %d/%d", c.src, a.Const, a.Coeff["i"], c.cnst, c.coefI)
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
		got := a.Const + a.Coeff["i"]*int64(i) + a.Coeff["j"]*int64(j)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
