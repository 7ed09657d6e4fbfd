package interp

import (
	"strings"
	"testing"

	"psaflow/internal/minic"
)

func TestValueConversions(t *testing.T) {
	cases := []struct {
		v     Value
		asF   float64
		asI   int64
		asB   bool
		isNum bool
	}{
		{IntVal(5), 5, 5, true, true},
		{IntVal(0), 0, 0, false, true},
		{DoubleVal(2.9), 2.9, 2, true, true},
		{DoubleVal(-2.9), -2.9, -2, true, true}, // truncation toward zero
		{FloatVal(1.5), 1.5, 1, true, true},
		{BoolVal(true), 1, 1, true, true},
		{BoolVal(false), 0, 0, false, true},
	}
	for _, c := range cases {
		if got := c.v.AsFloat(); got != c.asF {
			t.Errorf("%v.AsFloat() = %v, want %v", c.v, got, c.asF)
		}
		if got := c.v.AsInt(); got != c.asI {
			t.Errorf("%v.AsInt() = %v, want %v", c.v, got, c.asI)
		}
		if got := c.v.AsBool(); got != c.asB {
			t.Errorf("%v.AsBool() = %v, want %v", c.v, got, c.asB)
		}
		if got := c.v.IsNumeric(); got != c.isNum {
			t.Errorf("%v.IsNumeric() = %v", c.v, got)
		}
	}
	buf := BufVal(NewFloatBuffer("a", minic.Double, []float64{1}))
	if buf.IsNumeric() {
		t.Error("buffers are not numeric")
	}
}

func TestValueStrings(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(7), "7"},
		{DoubleVal(2.5), "2.5"},
		{BoolVal(true), "true"},
		{Value{K: KVoid}, "void"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	b := BufVal(NewFloatBuffer("xs", minic.Double, make([]float64, 3)))
	if got := b.String(); !strings.Contains(got, "xs") || !strings.Contains(got, "3") {
		t.Errorf("buffer string = %q", got)
	}
}

func TestValKindStrings(t *testing.T) {
	want := map[ValKind]string{
		KVoid: "void", KBool: "bool", KInt: "int",
		KFloat: "float", KDouble: "double", KBuf: "buffer",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestBuiltinsAreTheCatalog: the runtime table holds exactly minic's
// intrinsics; each returns its Result kind and runs at its arity on both
// engines, with the same output.
func TestBuiltinsAreTheCatalog(t *testing.T) {
	all := minic.Intrinsics()
	if len(builtins) != len(all) {
		t.Errorf("%d builtins, %d intrinsics", len(builtins), len(all))
	}
	kind := map[minic.BasicKind]ValKind{minic.Int: KInt, minic.Float: KFloat, minic.Double: KDouble}
	for _, in := range all {
		bi, ok := builtins[in.Name]
		if !ok {
			t.Errorf("intrinsic %s has no builtin", in.Name)
			continue
		}
		args := []Value{DoubleVal(2.7), DoubleVal(1.3)}[:in.Arity]
		if bi.arity != in.Arity || bi.flops != in.Flops || bi.fn(args).K != kind[in.Result] {
			t.Errorf("%s: arity %d, flops %d, result %s; want %d, %d, %s",
				in.Name, bi.arity, bi.flops, bi.fn(args).K, in.Arity, in.Flops, kind[in.Result])
		}
		call := in.Name + "(x)"
		if in.Arity == 2 {
			call = in.Name + "(x, y)"
		}
		prog := minic.MustParse("void k(double x, double y) { printf(\"%f\", " + call + "); }")
		var outs [2]string
		for i, walk := range []bool{false, true} {
			res, err := Run(prog, Config{Entry: "k", Args: []Value{DoubleVal(2.7), DoubleVal(1.3)}, TreeWalk: walk})
			if err != nil {
				t.Fatalf("%s (tree-walk %t): %v", in.Name, walk, err)
			}
			outs[i] = strings.Join(res.Output, "|")
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: VM printed %q, tree-walker %q", in.Name, outs[0], outs[1])
		}
	}
}

func TestFloatValRounding(t *testing.T) {
	v := FloatVal(1.0 / 3.0)
	if v.F != float64(float32(1.0/3.0)) {
		t.Error("FloatVal must round through float32")
	}
}

func TestSinglePrecisionBuiltins(t *testing.T) {
	// sqrtf returns a KFloat rounded value; sqrt returns KDouble.
	prog := minic.MustParse(`
float f32(float x) { return sqrtf(x); }
double f64(double x) { return sqrt(x); }
`)
	r32, err := Run(prog, Config{Entry: "f32", Args: []Value{FloatVal(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if r32.Ret.K != KFloat {
		t.Errorf("sqrtf kind = %v", r32.Ret.K)
	}
	r64, err := Run(prog, Config{Entry: "f64", Args: []Value{DoubleVal(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if r64.Ret.K != KDouble {
		t.Errorf("sqrt kind = %v", r64.Ret.K)
	}
	if r32.Ret.F == r64.Ret.F {
		t.Error("single-precision sqrt should differ from double in low bits")
	}
}

func TestAvgTripsZeroEntries(t *testing.T) {
	lp := &LoopProfile{}
	if lp.AvgTrips() != 0 {
		t.Error("zero entries should yield 0 average")
	}
}

func TestSpecialFlopsTracking(t *testing.T) {
	prog := minic.MustParse(`
void k(int n, double *a) {
    for (int i = 0; i < n; i++) {
        a[i] = exp(a[i]) + a[i] * 2.0;
    }
}
`)
	buf := NewFloatBuffer("a", minic.Double, make([]float64, 8))
	res, err := Run(prog, Config{Entry: "k", Args: []Value{IntVal(8), BufVal(buf)}})
	if err != nil {
		t.Fatal(err)
	}
	// 8 exps at weight 8 = 64 special flops; total adds mul+add.
	if res.Prof.WatchSpecialFlops != 64 {
		t.Errorf("special flops = %d, want 64", res.Prof.WatchSpecialFlops)
	}
	if res.Prof.WatchFlops <= res.Prof.WatchSpecialFlops {
		t.Errorf("total flops %d must exceed special %d", res.Prof.WatchFlops, res.Prof.WatchSpecialFlops)
	}
}
