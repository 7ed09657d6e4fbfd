package interp

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"psaflow/internal/minic"
)

func run(t *testing.T, src, entry string, args ...Value) *Result {
	t.Helper()
	prog := minic.MustParse(src)
	res, err := Run(prog, Config{Entry: entry, Args: args})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"7 / 2", 3},   // integer division
		{"7 % 3", 1},   // modulo
		{"-4 + 1", -3}, // unary minus
		{"10 - 3 - 2", 5},
	}
	for _, c := range cases {
		res := run(t, "int f() { return "+c.expr+"; }", "f")
		if got := res.Ret.AsFloat(); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestFloatingArithmetic(t *testing.T) {
	res := run(t, "double f() { return 7.0 / 2.0; }", "f")
	if res.Ret.AsFloat() != 3.5 {
		t.Errorf("7.0/2.0 = %v", res.Ret.AsFloat())
	}
	res = run(t, "double f() { return 1.0 / 3.0; }", "f")
	if math.Abs(res.Ret.AsFloat()-1.0/3.0) > 1e-15 {
		t.Errorf("1.0/3.0 = %v", res.Ret.AsFloat())
	}
}

func TestSinglePrecisionRounding(t *testing.T) {
	// float arithmetic must round through float32.
	res := run(t, "float f() { return 1.0f / 3.0f; }", "f")
	want := float64(float32(1.0) / float32(3.0))
	if res.Ret.AsFloat() != want {
		t.Errorf("1.0f/3.0f = %v, want %v", res.Ret.AsFloat(), want)
	}
	if res.Ret.K != KFloat {
		t.Errorf("kind = %v, want float", res.Ret.K)
	}
	// Mixed float/double promotes to double.
	res = run(t, "double f() { return 1.0f + 2.0; }", "f")
	if res.Ret.K != KDouble {
		t.Errorf("promotion kind = %v, want double", res.Ret.K)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"1 < 2", true}, {"2 <= 2", true}, {"3 > 4", false},
		{"4 >= 5", false}, {"2 == 2", true}, {"2 != 2", false},
		{"true && false", false}, {"true || false", true},
		{"!true", false},
		{"1 < 2 && 2 < 3", true},
	}
	for _, c := range cases {
		res := run(t, "bool f() { return "+c.expr+"; }", "f")
		if got := res.Ret.AsBool(); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Division by zero on the RHS must not execute when short-circuited.
	src := `bool f(int x) { return x == 0 || 10 / x > 2; }`
	res := run(t, src, "f", IntVal(0))
	if !res.Ret.AsBool() {
		t.Error("short-circuit || failed")
	}
	src2 := `bool f(int x) { return x != 0 && 10 / x > 2; }`
	res = run(t, src2, "f", IntVal(0))
	if res.Ret.AsBool() {
		t.Error("short-circuit && failed")
	}
}

func TestLoopsAndArrays(t *testing.T) {
	src := `
double sum(int n, const double *a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    return s;
}
`
	buf := NewFloatBuffer("a", minic.Double, []float64{1, 2, 3, 4.5})
	res := run(t, src, "sum", IntVal(4), BufVal(buf))
	if res.Ret.AsFloat() != 10.5 {
		t.Errorf("sum = %v, want 10.5", res.Ret.AsFloat())
	}
}

func TestWriteThroughPointer(t *testing.T) {
	src := `
void scale(int n, double *a, double k) {
    for (int i = 0; i < n; i++) {
        a[i] *= k;
    }
}
`
	buf := NewFloatBuffer("a", minic.Double, []float64{1, 2, 3})
	run(t, src, "scale", IntVal(3), BufVal(buf), DoubleVal(2))
	want := []float64{2, 4, 6}
	for i, w := range want {
		if buf.F[i] != w {
			t.Errorf("a[%d] = %v, want %v", i, buf.F[i], w)
		}
	}
}

func TestLocalArray(t *testing.T) {
	src := `
int f() {
    int hist[4];
    for (int i = 0; i < 10; i++) {
        hist[i % 4] += 1;
    }
    return hist[0] + hist[1] * 10 + hist[2] * 100 + hist[3] * 1000;
}
`
	res := run(t, src, "f")
	if res.Ret.AsInt() != 2233 { // 3,3,2,2
		t.Errorf("hist encoding = %d, want 2233", res.Ret.AsInt())
	}
}

func TestWhileBreakContinue(t *testing.T) {
	src := `
int f() {
    int i = 0;
    int s = 0;
    while (true) {
        i++;
        if (i > 100) { break; }
        if (i % 2 == 0) { continue; }
        s += i;
    }
    return s;
}
`
	res := run(t, src, "f")
	if res.Ret.AsInt() != 2500 { // sum of odd numbers 1..99
		t.Errorf("s = %d, want 2500", res.Ret.AsInt())
	}
}

func TestNestedFunctionCalls(t *testing.T) {
	src := `
double sq(double x) { return x * x; }
double hyp(double a, double b) { return sqrt(sq(a) + sq(b)); }
`
	res := run(t, src, "hyp", DoubleVal(3), DoubleVal(4))
	if res.Ret.AsFloat() != 5 {
		t.Errorf("hyp = %v, want 5", res.Ret.AsFloat())
	}
}

func TestRecursion(t *testing.T) {
	src := `int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }`
	res := run(t, src, "fib", IntVal(12))
	if res.Ret.AsInt() != 144 {
		t.Errorf("fib(12) = %d, want 144", res.Ret.AsInt())
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"sqrt(16.0)", 4},
		{"fabs(-2.5)", 2.5},
		{"fmin(2.0, 3.0)", 2},
		{"fmax(2.0, 3.0)", 3},
		{"pow(2.0, 10.0)", 1024},
		{"floor(2.9)", 2},
		{"exp(0.0)", 1},
		{"log(1.0)", 0},
	}
	for _, c := range cases {
		res := run(t, "double f() { return "+c.expr+"; }", "f")
		if got := res.Ret.AsFloat(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestIntBuiltins(t *testing.T) {
	res := run(t, "int f() { return abs(-3) + min(1, 2) + max(1, 2); }", "f")
	if res.Ret.AsInt() != 6 {
		t.Errorf("got %d, want 6", res.Ret.AsInt())
	}
}

func TestCast(t *testing.T) {
	res := run(t, "int f() { return (int)3.9; }", "f")
	if res.Ret.AsInt() != 3 {
		t.Errorf("(int)3.9 = %d", res.Ret.AsInt())
	}
	res = run(t, "double f(int n) { return (double)n / 4.0; }", "f", IntVal(3))
	if res.Ret.AsFloat() != 0.75 {
		t.Errorf("cast division = %v", res.Ret.AsFloat())
	}
}

func TestPrintfCapture(t *testing.T) {
	src := `void f() { printf("x = %d\n", 42); printf("done\n"); }`
	res := run(t, src, "f")
	if len(res.Output) != 1 || !strings.Contains(res.Output[0], "42") {
		t.Errorf("output = %v", res.Output)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		args []Value
		want string
	}{
		{`int f() { return 1 / 0; }`, nil, "division by zero"},
		{`int f() { return 1 % 0; }`, nil, "modulo by zero"},
		{`double f() { return 1.0 / 0.0; }`, nil, "division by zero"},
		{`void f(double *a) { a[5] = 1.0; }`,
			[]Value{BufVal(NewFloatBuffer("a", minic.Double, make([]float64, 3)))},
			"out of range"},
		{`void f(double *a) { a[-1] = 1.0; }`,
			[]Value{BufVal(NewFloatBuffer("a", minic.Double, make([]float64, 3)))},
			"out of range"},
	}
	for _, c := range cases {
		prog := minic.MustParse(c.src)
		_, err := Run(prog, Config{Entry: "f", Args: c.args})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestStepBudget(t *testing.T) {
	prog := minic.MustParse(`void f() { while (true) { } }`)
	_, err := Run(prog, Config{Entry: "f", MaxSteps: 10000})
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("err = %v, want step budget exceeded", err)
	}
}

func TestMissingEntry(t *testing.T) {
	prog := minic.MustParse(`void f() { }`)
	if _, err := Run(prog, Config{Entry: "g"}); err == nil {
		t.Fatal("expected error for missing entry")
	}
}

func TestArgCountMismatch(t *testing.T) {
	prog := minic.MustParse(`void f(int a, int b) { }`)
	if _, err := Run(prog, Config{Entry: "f", Args: []Value{IntVal(1)}}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestBufferKindMismatch(t *testing.T) {
	prog := minic.MustParse(`void f(double *a) { }`)
	buf := NewIntBuffer("a", make([]int64, 4))
	if _, err := Run(prog, Config{Entry: "f", Args: []Value{BufVal(buf)}}); err == nil {
		t.Fatal("expected element-kind mismatch error")
	}
}

func TestScoping(t *testing.T) {
	src := `
int f() {
    int x = 1;
    for (int i = 0; i < 3; i++) {
        int x = 10;
        x += i;
    }
    return x;
}
`
	res := run(t, src, "f")
	if res.Ret.AsInt() != 1 {
		t.Errorf("outer x = %d, want 1 (inner shadow must not leak)", res.Ret.AsInt())
	}
}

func TestScalarKindPreservedOnAssign(t *testing.T) {
	// Assigning a double into an int variable truncates (C semantics).
	res := run(t, `int f() { int x = 0; x = 3; x += 1; return x; }`, "f")
	if res.Ret.AsInt() != 4 {
		t.Errorf("x = %d", res.Ret.AsInt())
	}
	res = run(t, `int f() { int x = 0; x = (int)3.7; return x; }`, "f")
	if res.Ret.AsInt() != 3 {
		t.Errorf("x = %d, want 3", res.Ret.AsInt())
	}
}

func TestIncDecPostfixValue(t *testing.T) {
	res := run(t, `int f() { int x = 5; int y = x++; return y * 100 + x; }`, "f")
	if res.Ret.AsInt() != 506 {
		t.Errorf("got %d, want 506", res.Ret.AsInt())
	}
	res = run(t, `int f() { int x = 5; int y = x--; return y * 100 + x; }`, "f")
	if res.Ret.AsInt() != 504 {
		t.Errorf("got %d, want 504", res.Ret.AsInt())
	}
}

func TestArrayElemIncDec(t *testing.T) {
	src := `void f(int *a) { a[0]++; a[1]--; }`
	buf := NewIntBuffer("a", []int64{10, 10})
	run(t, src, "f", BufVal(buf))
	if buf.I[0] != 11 || buf.I[1] != 9 {
		t.Errorf("a = %v", buf.I)
	}
}

func TestFloatBufferRounding(t *testing.T) {
	// Stores into float buffers round to float32 precision.
	src := `void f(float *a) { a[0] = 1.0 / 3.0; }`
	buf := NewFloatBuffer("a", minic.Float, make([]float64, 1))
	run(t, src, "f", BufVal(buf))
	if buf.F[0] != float64(float32(1.0/3.0)) {
		t.Errorf("a[0] = %v not rounded to float32", buf.F[0])
	}
}

// TestQuickIntArithmeticMatchesGo: interpreter integer semantics agree
// with Go for a fixed expression over random inputs.
func TestQuickIntArithmeticMatchesGo(t *testing.T) {
	prog := minic.MustParse(`int f(int a, int b) { return a * 3 + b * b - a / (b * b + 1); }`)
	f := func(a, b int16) bool {
		ai, bi := int64(a), int64(b)
		want := ai*3 + bi*bi - ai/(bi*bi+1)
		res, err := Run(prog, Config{Entry: "f", Args: []Value{IntVal(ai), IntVal(bi)}})
		if err != nil {
			return false
		}
		return res.Ret.AsInt() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: two runs of the same program produce identical
// results, cycle counts, and profiles — the property dynamic analyses
// depend on.
func TestQuickDeterminism(t *testing.T) {
	src := `
double work(int n, double *a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += sqrt(a[i] * a[i] + 1.0);
    }
    return s;
}
`
	prog := minic.MustParse(src)
	f := func(seed uint8) bool {
		n := int(seed%32) + 1
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) * 1.25
		}
		r1, err1 := Run(prog, Config{Entry: "work", Args: []Value{IntVal(int64(n)), BufVal(NewFloatBuffer("a", minic.Double, append([]float64(nil), data...)))}})
		r2, err2 := Run(prog, Config{Entry: "work", Args: []Value{IntVal(int64(n)), BufVal(NewFloatBuffer("a", minic.Double, append([]float64(nil), data...)))}})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Ret == r2.Ret && r1.Prof.Cycles == r2.Prof.Cycles &&
			r1.Prof.Flops == r2.Prof.Flops && r1.Steps == r2.Steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDoubleArithmeticMatchesGo: double-precision expression
// evaluation agrees bit-for-bit with Go's float64 semantics.
func TestQuickDoubleArithmeticMatchesGo(t *testing.T) {
	prog := minic.MustParse(`double f(double a, double b) {
        return (a * b + a - b) / (b * b + 1.5) + a * 0.25;
    }`)
	f := func(a, b float64) bool {
		if a != a || b != b || a > 1e150 || a < -1e150 || b > 1e150 || b < -1e150 {
			return true // skip NaN/overflow corner inputs
		}
		want := (a*b+a-b)/(b*b+1.5) + a*0.25
		res, err := Run(prog, Config{Entry: "f", Args: []Value{DoubleVal(a), DoubleVal(b)}})
		if err != nil {
			return false
		}
		got := res.Ret.AsFloat()
		return got == want || (got != got && want != want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type counterMap map[string]int64

func (m counterMap) Add(name string, delta int64) { m[name] += delta }

// TestLoweringFailureFallsBackToTreeWalk drives the VM's defensive arm: a
// fingerprint whose lowering is latched as failed must still run — on the
// tree-walker, bit-for-bit — and be counted in interp.bytecode.fallbacks.
func TestLoweringFailureFallsBackToTreeWalk(t *testing.T) {
	const src = `int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }`
	prog := minic.MustParse(src)
	const fp = 42
	pc := NewProgramCache()
	failed := &progEntry{}
	failed.once.Do(func() {}) // what a lowering that panicked leaves: no image
	pc.entries[fp] = failed
	ctrs := counterMap{}
	got, err := Run(prog, Config{Entry: "f", Args: []Value{IntVal(10)}, Progs: pc, Fingerprint: fp, Counters: ctrs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(prog, Config{Entry: "f", Args: []Value{IntVal(10)}, TreeWalk: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ret != want.Ret || got.Steps != want.Steps || got.Prof.Cycles != want.Prof.Cycles {
		t.Errorf("fallback run = (%v, %d steps, %v cycles), tree-walk = (%v, %d steps, %v cycles)",
			got.Ret, got.Steps, got.Prof.Cycles, want.Ret, want.Steps, want.Prof.Cycles)
	}
	if ctrs[CounterBCFallbacks] != 1 || ctrs[CounterBCInstrs] != 0 || ctrs[CounterBCLowerings] != 0 {
		t.Errorf("counters = %v, want one fallback and no VM dispatch or lowering", ctrs)
	}
}

// TestProgramCacheImageRunsLikeFresh pins that a lowering is a function
// of the program alone: the image a run of entry a lowered, served from
// the cache to a run of entry b, must dispatch exactly what an uncached
// lowering of the same program dispatches.
func TestProgramCacheImageRunsLikeFresh(t *testing.T) {
	const src = `
int a(int n) { return n; }
int b(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }`
	prog := minic.MustParse(src)
	const fp = 7
	pc := NewProgramCache()
	if _, err := Run(prog, Config{Entry: "a", Args: []Value{IntVal(3)}, Progs: pc, Fingerprint: fp}); err != nil {
		t.Fatal(err)
	}
	cached, fresh := counterMap{}, counterMap{}
	got, err := Run(prog, Config{Entry: "b", Args: []Value{IntVal(100)}, Progs: pc, Fingerprint: fp, Counters: cached})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(prog, Config{Entry: "b", Args: []Value{IntVal(100)}, Counters: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if cached[CounterBCLowerings] != 0 || cached[CounterBCProgHits] != 1 {
		t.Fatalf("cached run counters = %v, want one program-cache hit and no lowering", cached)
	}
	if got.Ret != want.Ret || got.Steps != want.Steps || !reflect.DeepEqual(got.Prof, want.Prof) {
		t.Errorf("cached image ran (%v, %d steps, %+v), fresh lowering (%v, %d steps, %+v)",
			got.Ret, got.Steps, got.Prof, want.Ret, want.Steps, want.Prof)
	}
	for _, name := range []string{CounterBCInstrs, CounterBCFused} {
		if cached[name] != fresh[name] || fresh[name] == 0 {
			t.Errorf("%s: cached image %d, fresh lowering %d (want equal and non-zero)", name, cached[name], fresh[name])
		}
	}
}
