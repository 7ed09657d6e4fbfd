package hls_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/hls"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/transform"
)

// intrinsicsFixture holds, for each builtin of docs/MINIC.md, what every
// consumer of the builtin table derived from a kernel that calls it once,
// as the commit before the table moved into internal/minic computed it. It
// is frozen: a change to it is a change to the interpreter, the rewrites or
// a cost model, made by hand.
const intrinsicsFixture = "testdata/intrinsics.golden"

// fixtureBuiltins lists every builtin of docs/MINIC.md with its arity.
var fixtureBuiltins = []struct {
	name  string
	arity int
}{
	{"sqrt", 1}, {"sqrtf", 1}, {"exp", 1}, {"expf", 1}, {"log", 1}, {"logf", 1},
	{"pow", 2}, {"powf", 2}, {"sin", 1}, {"sinf", 1}, {"cos", 1}, {"cosf", 1},
	{"tanh", 1}, {"tanhf", 1}, {"erf", 1}, {"erff", 1}, {"fabs", 1}, {"fabsf", 1},
	{"floor", 1}, {"floorf", 1}, {"fmin", 2}, {"fminf", 2}, {"fmax", 2}, {"fmaxf", 2},
	{"abs", 1}, {"min", 2}, {"max", 2},
	{"__expf", 1}, {"__logf", 1}, {"__powf", 2}, {"__sinf", 1}, {"__cosf", 1}, {"__fsqrt_rn", 1},
}

// intrinsicRow renders one fixture line: the kernel
//
//	void k(double x, double y, int n) { printf("%f\n", NAME(x[, y]) * n); }
//
// run on x = 2.7, y = 1.3, n = 1 by each engine (cycles, FLOPs, output),
// its calls after SinglePrecisionFns and then SpecialisedMathFns, its
// WeightedOps, HasDPSpecialCalls and HeavySpecialFraction, and its
// CostDatapath.
func intrinsicRow(name string, arity int) (string, error) {
	args := "x"
	if arity == 2 {
		args = "x, y"
	}
	src := fmt.Sprintf("void k(double x, double y, int n) { printf(\"%%f\\n\", %s(%s) * n); }", name, args)
	prog, err := minic.Parse(src)
	if err != nil {
		return "", err
	}
	fn := prog.MustFunc("k")
	var sb strings.Builder
	sb.WriteString(name)
	for _, walk := range []bool{true, false} {
		res, err := interp.Run(prog, interp.Config{Entry: "k", TreeWalk: walk,
			Args: []interp.Value{interp.DoubleVal(2.7), interp.DoubleVal(1.3), interp.IntVal(1)}})
		if err != nil {
			return "", err
		}
		engine := "vm"
		if walk {
			engine = "walk"
		}
		fmt.Fprintf(&sb, " %s{cycles:%v flops:%d out:%q}", engine, res.Prof.Cycles, res.Prof.Flops, res.Output)
	}
	rewritten := minic.CloneFunc(fn)
	sp := transform.SinglePrecisionFns(rewritten)
	fmt.Fprintf(&sb, " sp:%d:%s", sp, calleeOf(rewritten))
	fast := transform.SpecialisedMathFns(rewritten)
	fmt.Fprintf(&sb, " fast:%d:%s", fast, calleeOf(rewritten))
	fmt.Fprintf(&sb, " ops:%+v dpspecial:%t heavy:%v", *analysis.WeightedOps(fn),
		analysis.HasDPSpecialCalls(fn), analysis.HeavySpecialFraction(fn))
	dp := hls.CostDatapath(fn)
	fmt.Fprintf(&sb, " alms:%d dsps:%d singleprec:%t\n", dp.ALMs, dp.DSPs, dp.SinglePrec)
	return sb.String(), nil
}

// calleeOf names the one builtin fn calls besides printf.
func calleeOf(fn *minic.FuncDecl) string {
	name := ""
	minic.Walk(fn, func(n minic.Node) bool {
		if c, ok := n.(*minic.CallExpr); ok && c.Fun != "printf" {
			name = c.Fun
		}
		return true
	})
	return name
}

// TestIntrinsicsFixture: every builtin's one-call kernel reads the same on
// both engines, in both rewrites, in the operation counts and in the HLS
// datapath cost as in the fixture, exactly.
func TestIntrinsicsFixture(t *testing.T) {
	var sb strings.Builder
	for _, b := range fixtureBuiltins {
		row, err := intrinsicRow(b.name, b.arity)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		sb.WriteString(row)
	}
	want, err := os.ReadFile(intrinsicsFixture)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %q\nwant %q", intrinsicsFixture, i+1, g, w)
		}
	}
}
