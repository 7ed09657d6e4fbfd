package interp_test

// Coverage for lowering-time specialisation (specialise.go, exprKind in
// bytecode.go): specialised opcodes must be bit-for-bit equivalent to the
// generic arms and to the tree-walker on results, profiles, buffers, AND
// error paths (an index out of bounds or a zero divisor runs the generic
// arm, which raises the identical error); the static kind rules must hold
// where a kind is not simply the declared type; and one immutable image
// must serve concurrent runs. scripts/ci.sh runs this file under -race.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// quickenerRewrites is what the runtime quickener this lowering replaced
// rewrote in one run of each app (watch "", default threshold): static
// specialisation must cover at least as much.
var quickenerRewrites = map[string]int{"nbody": 89, "kmeans": 34, "adpredictor": 50, "rushlarsen": 47, "bezier": 83}

// TestQuickenEquivalenceBenchmarks runs every bundled benchmark lowered
// generic and specialised and asserts the entire observable surface
// matches bit-for-bit — watching the entry function, so that every
// specialised access is attributed to a parameter, and watching nothing,
// so that the hotspot loop's scope opens and closes around specialised
// code — and that the lowering specialises at least what the quickener
// rewrote.
func TestQuickenEquivalenceBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog := b.Parse()
			n := 0
			for _, c := range interp.Specialised(prog) {
				n += c
			}
			if n < quickenerRewrites[b.Name] {
				t.Errorf("%d instructions specialised, want at least %d", n, quickenerRewrites[b.Name])
			}
			t.Logf("%d instructions specialised; the quickener rewrote %d", n, quickenerRewrites[b.Name])
			for _, watch := range []string{b.Entry, ""} {
				var res [2]*interp.Result
				var bufs [2][]*interp.Buffer
				for i, vm := range engineVariants {
					args := b.MakeArgs()
					ctrs := mapCounters{}
					r, err := interp.Run(prog, vm.cfg(interp.Config{Entry: b.Entry, Args: args, Watch: watch, Counters: ctrs}))
					if err != nil {
						t.Fatalf("%s: %v", vm.name, err)
					}
					if ctrs[interp.CounterBCFallbacks] != 0 {
						t.Errorf("%s: VM fell back to the tree-walker", vm.name)
					}
					res[i], bufs[i] = r, bufferArgs(args)
				}
				label := fmt.Sprintf("%s/watch=%q", b.Name, watch)
				assertResultsEqual(t, label, res[1], res[0])
				for i := range bufs[0] {
					if !reflect.DeepEqual(bufs[0][i].I, bufs[1][i].I) || !sameFloats(bufs[0][i].F, bufs[1][i].F) {
						t.Errorf("%s: buffer %s contents differ from the generic run", label, bufs[0][i].Name)
					}
				}
			}
		})
	}
}

// TestQuickenErrorEquivalence drives specialised instructions into runtime
// errors after they have run specialised for a while — the check misses,
// the generic arm runs, and it must raise the byte-identical error the
// generic VM and the tree-walker produce.
func TestQuickenErrorEquivalence(t *testing.T) {
	mkBuf := func(n int) func() []interp.Value {
		return func() []interp.Value {
			return []interp.Value{interp.BufVal(interp.NewFloatBuffer("a", minic.Double, make([]float64, n)))}
		}
	}
	cases := []struct {
		name string
		src  string
		args func() []interp.Value
		max  int64
		want string
	}{
		// a[i] runs specialised while i < 32, then i = 32 is out of bounds.
		{"store-oob-after-quicken",
			`void f(double *a) { for (int i = 0; i < 64; i++) { a[i] = 1.0; } }`,
			mkBuf(32), 0, "index 32 out of range"},
		{"load-oob-after-quicken",
			`void f(double *a) { double s = 0.0; for (int i = 0; i < 64; i++) { s = s + a[i]; } }`,
			mkBuf(32), 0, "index 32 out of range"},
		{"budget-in-quickened-loop",
			`void f(double *a) { double s = 0.0; for (int i = 0; i < 1000000; i++) { s = s + a[i % 8]; } }`,
			mkBuf(8), 9000, "step budget exceeded"},
		// The divisor reaches zero on the fourth trip.
		{"int-div-zero-after-specialising",
			`void f(double *a) { int s = 0; for (int i = 0; i < 8; i++) { int d = 3 - i; s += 100 / d; } }`,
			mkBuf(1), 0, "integer division by zero"},
		{"float-div-zero-after-specialising",
			`void f(double *a) { double s = 0.0; for (int i = 0; i < 8; i++) { double d = a[0] - i; s = s + 1.0 / d; } }`,
			func() []interp.Value {
				return []interp.Value{interp.BufVal(interp.NewFloatBuffer("a", minic.Double, []float64{3}))}
			}, 0, "floating division by zero"},
		{"mod-zero-after-specialising",
			`void f(double *a) { int s = 0; for (int i = 0; i < 8; i++) { int d = 3 - i; s += 7 % d; } }`,
			mkBuf(1), 0, "modulo by zero"},
		{"div-assign-zero-after-specialising",
			`void f(double *a) { double x = 1.0; for (int i = 0; i < 8; i++) { double d = 3.0 * a[0] - i; x /= d * 2.0; } }`,
			func() []interp.Value {
				return []interp.Value{interp.BufVal(interp.NewFloatBuffer("a", minic.Double, []float64{1}))}
			}, 0, "division by zero in /="},
		{"store-div-assign-zero-after-specialising",
			`void f(double *a) { for (int i = 0; i < 8; i++) { double d = 3.0 - i; a[0] /= d; } }`,
			mkBuf(1), 0, "division by zero in /="},
		{"int-div-assign-zero-after-specialising",
			`void f(double *a) { int x = 1000; for (int i = 0; i < 8; i++) { x /= 3 - i; } }`,
			mkBuf(1), 0, "division by zero in /="},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog := minic.MustParse(c.src)
			if interp.Specialised(prog)["f"] == 0 {
				t.Fatal("nothing in f specialised; the row tests the generic arm only")
			}
			_, twErr := interp.Run(prog, interp.Config{Entry: "f", Args: c.args(), MaxSteps: c.max, TreeWalk: true})
			if twErr == nil || !strings.Contains(twErr.Error(), c.want) {
				t.Fatalf("tree-walker error %v, want one containing %q", twErr, c.want)
			}
			for _, vm := range engineVariants {
				_, err := interp.Run(prog, vm.cfg(interp.Config{Entry: "f", Args: c.args(), MaxSteps: c.max}))
				if err == nil || err.Error() != twErr.Error() {
					t.Errorf("%s: error %v\ntree-walker:  %v", vm.name, err, twErr)
				}
			}
		})
	}
}

// TestStaticKindRules covers the cases where an operand's static kind is
// not simply a declared type, each as a function f whose lowering
// specialises want instructions: the VM must equal the tree-walker, and
// the count shows which way each rule went.
func TestStaticKindRules(t *testing.T) {
	cases := []struct {
		name string
		src  string
		args []interp.Value
		want int
	}{
		// g(1) falls off its end and yields void: the sum is a run-time
		// error, so `g(n) + d` stays generic (a user call's result is not
		// static).
		{"user-call-falls-off-its-end",
			`int g(int n) { if (n > 2) { return n; } } double f(int n, double d) { return g(n) + d; }`,
			[]interp.Value{interp.IntVal(1), interp.DoubleVal(2)}, 0},
		// -b on a bool is a double: `-b * d` is a double multiply.
		{"unary-minus-on-bool",
			`double f(int n, double d) { bool b = n > 2; return -b * d; }`,
			[]interp.Value{interp.IntVal(3), interp.DoubleVal(2.5)}, 1},
		// An element store yields the stored value, not the element kind:
		// the double sum, times 2.0 (plus `double y = 0.0`).
		{"indexed-assign-value",
			`double f(int *p, double d) { double y = 0.0; y = (p[1] = p[0] + d) * 2.0; return y; }`,
			[]interp.Value{interp.BufVal(interp.NewIntBuffer("p", []int64{3, 0})), interp.DoubleVal(0.75)}, 2},
		// ... and a compound element store the promoted value.
		{"indexed-compound-assign-value",
			`double f(int *p, double d) { double y = 0.0; y = (p[1] += d) * 2.0; return y; }`,
			[]interp.Value{interp.BufVal(interp.NewIntBuffer("p", []int64{3, 5})), interp.DoubleVal(0.75)}, 2},
		// 1.5f is a float, 1.5 a double: both multiplies specialise, with
		// float and double results.
		{"float-vs-double-literal",
			`double f(float x) { float a = x * 1.5f; double b = x * 1.5; return a + b; }`,
			[]interp.Value{interp.FloatVal(0.1)}, 3},
		// A cast's kind is its target type: (double)n * d and
		// (float)a * b specialise, (int)d + d mixes kinds and does not
		// (both declarations do).
		{"casts",
			`double f(int n, double d) { double a = (double)n * d; double b = (int)d + d; return (float)a * b; }`,
			[]interp.Value{interp.IntVal(3), interp.DoubleVal(1.3)}, 4},
		// abs/min/max are int whatever their operands: abs(n) * max(n, 3)
		// and min(n, d) * n are int multiplies (and the two declarations
		// specialise); min(n, d) * d mixes kinds.
		{"int-intrinsics",
			`double f(int n, double d) { int a = abs(n) * max(n, 3); int b = min(n, d) * n; return min(n, d) * d + a + b; }`,
			[]interp.Value{interp.IntVal(-4), interp.DoubleVal(2.5)}, 4},
		// An int cell keeps its kind under a double right-hand side: the
		// compound assignment mixes kinds and stays generic (`int x = n`
		// specialises).
		{"int-cell-double-rhs",
			`int f(int n, double d) { int x = n; x += d * 2.0; x = d * 3.0; return x; }`,
			[]interp.Value{interp.IntVal(2), interp.DoubleVal(1.3)}, 1},
		// A pointer local declared from a parameter has the parameter's
		// element kind: the accumulate, the loop compare and the two
		// scalar declarations specialise.
		{"pointer-local-from-parameter",
			`double f(double *pd, int n) { double *q = pd; double s = 0.0; for (int i = 0; i < n; i++) { s += q[i] * 2.0; } return s; }`,
			[]interp.Value{interp.BufVal(interp.NewFloatBuffer("pd", minic.Double, []float64{1, 2.5, 4})), interp.IntVal(3)}, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog := minic.MustParse(c.src)
			if got := interp.Specialised(prog)["f"]; got != c.want {
				t.Errorf("f specialises %d instructions, want %d", got, c.want)
			}
			twArgs := cloneArgs(c.args)
			tw, twErr := interp.Run(prog, interp.Config{Entry: "f", Args: twArgs, Watch: "f", TreeWalk: true})
			for _, vm := range engineVariants {
				args := cloneArgs(c.args)
				res, err := interp.Run(prog, vm.cfg(interp.Config{Entry: "f", Args: args, Watch: "f"}))
				assertSameOutcome(t, vm.name, res, err, args, tw, twErr, twArgs)
			}
		})
	}
}

// cloneArgs copies args with fresh buffers, so each run starts alike.
func cloneArgs(args []interp.Value) []interp.Value {
	out := append([]interp.Value(nil), args...)
	for i, a := range out {
		if a.K == interp.KBuf {
			out[i] = interp.BufVal(a.Buf.Clone())
		}
	}
	return out
}

// TestProgramCacheSharedImage runs one program-cache image from many
// goroutines at once: the image is immutable after lowering, so every
// run must equal the tree-walker's. Run under -race by scripts/ci.sh.
func TestProgramCacheSharedImage(t *testing.T) {
	src := `
double f(double *a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s + a[i] * a[i] + sqrt(a[i]) / (a[i] + 1.0);
        a[i] += s * 0.5;
    }
    return s;
}
`
	prog := minic.MustParse(src)
	mkArgs := func() []interp.Value {
		data := make([]float64, 256)
		for i := range data {
			data[i] = float64(i%7) + 0.5
		}
		return []interp.Value{
			interp.BufVal(interp.NewFloatBuffer("a", minic.Double, data)),
			interp.IntVal(int64(len(data))),
		}
	}
	refArgs := mkArgs()
	ref, err := interp.Run(prog, interp.Config{Entry: "f", Args: refArgs, TreeWalk: true})
	if err != nil {
		t.Fatal(err)
	}

	progs := interp.NewProgramCache()
	fp := minic.Fingerprint(prog)
	const workers, runsPer = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runsPer; r++ {
				args := mkArgs()
				res, err := interp.Run(prog, interp.Config{Entry: "f", Args: args, Progs: progs, Fingerprint: fp})
				label := fmt.Sprintf("worker %d run %d", w, r)
				assertSameOutcome(t, label, res, err, args, ref, nil, refArgs)
			}
		}(w)
	}
	wg.Wait()
	if progs.Len() != 1 {
		t.Errorf("program cache holds %d entries, want 1", progs.Len())
	}
}
