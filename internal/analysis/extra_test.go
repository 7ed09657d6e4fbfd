package analysis

import (
	"testing"

	"psaflow/internal/minic"
	"psaflow/internal/query"
)

func TestHeavySpecialFraction(t *testing.T) {
	cases := []struct {
		src  string
		lo   float64
		hi   float64
		name string
	}{
		{`void k(double *a) { a[0] = exp(a[1]); }`, 0.99, 1.01, "pure exp"},
		{`void k(double *a) { a[0] = sqrt(a[1]); }`, -0.01, 0.01, "pure sqrt"},
		{`void k(double *a) { a[0] = exp(a[1]) + sqrt(a[2]) + sqrt(a[3]); }`, 0.4, 0.6, "mixed"},
		{`void k(double *a) { a[0] = a[1] * 2.0; }`, -0.01, 0.01, "no specials"},
		{`void k(float *a) { a[0] = __expf(a[1]) + erff(a[2]); }`, 0.99, 1.01, "intrinsics count as heavy"},
		{`void k(double *a) { a[0] = pow(a[1], 2.0); }`, -0.01, 0.01, "pow is a fast path"},
	}
	for _, c := range cases {
		prog := minic.MustParse(c.src)
		got := HeavySpecialFraction(prog.MustFunc("k"))
		if got < c.lo || got > c.hi {
			t.Errorf("%s: fraction = %v, want [%v,%v]", c.name, got, c.lo, c.hi)
		}
	}
}

func TestHeavySpecialFractionScalesWithFixedLoops(t *testing.T) {
	// A heavy call inside a fixed loop dominates a single light call.
	prog := minic.MustParse(`void k(double *a) {
        a[0] = sqrt(a[1]);
        for (int i = 0; i < 32; i++) { a[i] += exp(a[i]); }
    }`)
	got := HeavySpecialFraction(prog.MustFunc("k"))
	if got < 0.9 {
		t.Errorf("fraction = %v, want near 1 (32 weighted exps vs 1 sqrt)", got)
	}
}

func TestHasDPSpecialCalls(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`void k(double *a) { a[0] = exp(a[1]); }`, true},
		{`void k(float *a) { a[0] = expf(a[1]); }`, false},
		{`void k(double *a) { a[0] = erf(a[1]) + expf(a[2]); }`, true},
		{`void k(double *a) { a[0] = a[1] + 1.0; }`, false},
		{`void k(float *a) { a[0] = __expf(a[1]) + sqrtf(a[2]); }`, false},
	}
	for _, c := range cases {
		prog := minic.MustParse(c.src)
		if got := HasDPSpecialCalls(prog.MustFunc("k")); got != c.want {
			t.Errorf("%s: got %v, want %v", c.src, got, c.want)
		}
	}
}

func TestLoopMarkedRolled(t *testing.T) {
	prog := minic.MustParse(`void k(int n, double *a) {
        #pragma unroll 1
        for (int i = 0; i < 4; i++) { a[i] = 0.0; }
        #pragma unroll 4
        for (int j = 0; j < 4; j++) { a[j] = 1.0; }
        for (int m = 0; m < 4; m++) { a[m] = 2.0; }
    }`)
	loops := query.LoopsIn(prog.MustFunc("k"))
	if !LoopMarkedRolled(loops[0]) {
		t.Error("unroll 1 loop should be rolled")
	}
	if LoopMarkedRolled(loops[1]) {
		t.Error("unroll 4 loop is not rolled")
	}
	if LoopMarkedRolled(loops[2]) {
		t.Error("unannotated loop is not rolled")
	}
}

func TestWeightedOpsRespectsRolledPragma(t *testing.T) {
	spatial := minic.MustParse(`void k(double *a, const double *b) {
        for (int i = 0; i < 16; i++) { a[i] = b[i] + 1.0; }
    }`)
	rolled := minic.MustParse(`void k(double *a, const double *b) {
        #pragma unroll 1
        for (int i = 0; i < 16; i++) { a[i] = b[i] + 1.0; }
    }`)
	s := WeightedOps(spatial.MustFunc("k"))
	r := WeightedOps(rolled.MustFunc("k"))
	if s.AddSub != 16 {
		t.Errorf("spatial addsub = %v, want 16", s.AddSub)
	}
	if r.AddSub != 1 {
		t.Errorf("rolled addsub = %v, want 1", r.AddSub)
	}
}

func TestDepKindStrings(t *testing.T) {
	want := map[DepKind]string{
		DepScalar: "scalar", DepArrayFlow: "array-flow",
		DepArrayOutput: "array-output", DepUnknown: "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestIsIntExprCases(t *testing.T) {
	prog := minic.MustParse(`void k(int n, int *idx, double *a, float f) {
        int i = 2;
        a[0] = (double)(n + i * 3);
        a[1] = a[0] + 1.0;
        idx[0] = abs(n) + min(i, n) % 2;
        a[2] = (double)idx[0];
    }`)
	fn := prog.MustFunc("k")
	ops := CountOps(fn.Body, fn)
	// n + i*3, abs+min stuff, and % are int ops; only FP add counts flops.
	if ops.IntOps < 3 {
		t.Errorf("int ops = %v, want >= 3", ops.IntOps)
	}
	if ops.FlopsW < 1 {
		t.Errorf("flops = %v", ops.FlopsW)
	}
}

func TestAffineHelpers(t *testing.T) {
	a := AffineOf(exprOf(t, "7"))
	if !a.isConst() {
		t.Error("7 should be constant")
	}
	b := AffineOf(exprOf(t, "i + 7"))
	if b.isConst() {
		t.Error("i+7 is not constant")
	}
	if AffineOf(exprOf(t, "i % 2")).OK {
		t.Error("modulo is not affine")
	}
	// EqualModulo with a non-affine side is false.
	bad := AffineOf(exprOf(t, "i % 2"))
	if b.EqualModulo(bad, "i") || bad.EqualModulo(b, "i") {
		t.Error("EqualModulo must reject non-affine forms")
	}
}
