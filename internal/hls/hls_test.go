package hls

import (
	"strings"
	"testing"
	"testing/quick"

	"psaflow/internal/analysis"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/transform"
)

const smallKernel = `
void k(int n, const float *a, float *b) {
    for (int i = 0; i < n; i++) {
        b[i] = a[i] * 2.0f + 1.0f;
    }
}
`

const heavyKernel = `
void k(int n, const double *a, double *b) {
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        acc += exp(a[i]) + exp(a[i] * 2.0) + exp(a[i] * 3.0);
        acc += exp(a[i] * 4.0) + exp(a[i] * 5.0) + exp(a[i] * 6.0);
        acc += exp(a[i] * 7.0) + exp(a[i] * 8.0) + exp(a[i] * 9.0);
        acc += pow(a[i], 3.0) + pow(a[i], 4.0) + pow(a[i], 5.0);
        acc += erf(a[i]) + erf(a[i] * 2.0) + tanh(a[i]);
        b[i] = acc / (1.0 + exp(a[i] * 10.0));
    }
}
`

func kfn(t *testing.T, src string) (*minic.Program, *minic.FuncDecl) {
	t.Helper()
	prog := minic.MustParse(src)
	return prog, prog.MustFunc("k")
}

func TestEstimateSmallKernelFits(t *testing.T) {
	prog, fn := kfn(t, smallKernel)
	rep := Estimate(prog, fn, platform.Arria10, 1000)
	if !rep.Fits {
		t.Fatalf("small kernel should fit: %s", rep)
	}
	if rep.Unroll != 1 {
		t.Errorf("unroll = %d, want 1", rep.Unroll)
	}
	if rep.II != 1 {
		t.Errorf("II = %d, want 1 for a parallel pipeline loop", rep.II)
	}
	if !rep.SinglePrec {
		t.Error("kernel with only f-suffixed literals should be single precision")
	}
	if rep.PipelinedTrips != 1000 {
		t.Errorf("pipelined trips = %v", rep.PipelinedTrips)
	}
	if rep.LUTUtil <= 0 || rep.LUTUtil > 0.5 {
		t.Errorf("LUT util = %v, want small", rep.LUTUtil)
	}
}

func TestEstimateMonotoneInUnroll(t *testing.T) {
	prev := 0
	for n := 1; n <= 64; n *= 2 {
		prog, fn := kfn(t, smallKernel)
		q := firstLoop(prog, fn)
		transform.RemoveLoopPragmas(q, "unroll")
		if err := transform.InsertLoopPragma(q, pragma(n)); err != nil {
			t.Fatal(err)
		}
		rep := Estimate(prog, fn, platform.Arria10, 0)
		if rep.Unroll != n {
			t.Fatalf("unroll pragma %d not picked up: %d", n, rep.Unroll)
		}
		if rep.ALMs <= prev {
			t.Fatalf("resources not monotone at unroll %d: %d <= %d", n, rep.ALMs, prev)
		}
		prev = rep.ALMs
	}
}

// TestQuickUnrollMonotone is the property form: doubling unroll never
// reduces resources and eventually overmaps the device (the invariant the
// unroll-until-overmap DSE relies on).
func TestQuickUnrollMonotone(t *testing.T) {
	f := func(steps uint8) bool {
		n := 1 << (steps % 12)
		prog, fn := kfn(t, smallKernel)
		loop := firstLoop(prog, fn)
		if err := transform.InsertLoopPragma(loop, pragma(n)); err != nil {
			return false
		}
		rep1 := Estimate(prog, fn, platform.Stratix10, 0)
		transform.RemoveLoopPragmas(loop, "unroll")
		if err := transform.InsertLoopPragma(loop, pragma(2*n)); err != nil {
			return false
		}
		rep2 := Estimate(prog, fn, platform.Stratix10, 0)
		return rep2.ALMs > rep1.ALMs && rep2.DSPs >= rep1.DSPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateHeavyKernelOvermapsArria(t *testing.T) {
	prog, fn := kfn(t, heavyKernel)
	rep := Estimate(prog, fn, platform.Arria10, 0)
	if rep.Fits {
		t.Fatalf("18 double-precision transcendental units should overmap an Arria 10: %s", rep)
	}
	if rep.SinglePrec {
		t.Error("kernel with bare double literals must not be single precision")
	}
}

func TestEstimateDPCostsExceedSP(t *testing.T) {
	progDP, fnDP := kfn(t, `void k(int n, const double *a, double *b) {
        for (int i = 0; i < n; i++) { b[i] = exp(a[i]) + sqrt(a[i]); }
    }`)
	progSP, fnSP := kfn(t, `void k(int n, const float *a, float *b) {
        for (int i = 0; i < n; i++) { b[i] = expf(a[i]) + sqrtf(a[i]); }
    }`)
	dp := Estimate(progDP, fnDP, platform.Stratix10, 0)
	sp := Estimate(progSP, fnSP, platform.Stratix10, 0)
	if dp.ALMs <= sp.ALMs {
		t.Fatalf("DP (%d ALMs) must cost more than SP (%d ALMs)", dp.ALMs, sp.ALMs)
	}
}

func TestEstimateIIReductionLoop(t *testing.T) {
	prog, fn := kfn(t, `void k(int n, int m, const double *a, double *b) {
        for (int i = 0; i < n; i++) {
            double acc = 0.0;
            for (int j = 0; j < m; j++) { acc += a[i * m + j]; }
            b[i] = acc;
        }
    }`)
	rep := Estimate(prog, fn, platform.Stratix10, 0)
	if rep.II != 8 {
		t.Errorf("II = %d, want 8 (carried accumulation in pipelined loop)", rep.II)
	}
}

func TestEstimateIIFixedInnerLoopSpatial(t *testing.T) {
	// Fixed inner loops are spatially unrolled: the remaining pipeline
	// loop is parallel, so II stays 1.
	prog, fn := kfn(t, `void k(int n, const double *a, double *b) {
        for (int i = 0; i < n; i++) {
            double acc = 0.0;
            for (int j = 0; j < 4; j++) { acc += a[i * 4 + j]; }
            b[i] = acc;
        }
    }`)
	rep := Estimate(prog, fn, platform.Stratix10, 0)
	if rep.II != 1 {
		t.Errorf("II = %d, want 1 (fixed inner loop is spatial)", rep.II)
	}
}

func TestFmaxDerating(t *testing.T) {
	prog, fn := kfn(t, smallKernel)
	low := Estimate(prog, fn, platform.Stratix10, 0)
	if low.FmaxHz != platform.Stratix10.ClockHz {
		t.Errorf("low-util fmax = %v, want full clock", low.FmaxHz)
	}
	// Unroll until utilisation exceeds the derating threshold.
	loop := firstLoop(prog, fn)
	if err := transform.InsertLoopPragma(loop, pragma(64)); err != nil {
		t.Fatal(err)
	}
	high := Estimate(prog, fn, platform.Stratix10, 0)
	if high.LUTUtil > 0.75 && high.FmaxHz >= platform.Stratix10.ClockHz {
		t.Errorf("high-util design should derate fmax: util=%v fmax=%v", high.LUTUtil, high.FmaxHz)
	}
}

func TestBRAMFromLocalArrays(t *testing.T) {
	prog, fn := kfn(t, `void k(int n, const double *a, double *b) {
        for (int i = 0; i < n; i++) {
            double buf[128];
            buf[0] = a[i];
            b[i] = buf[0];
        }
    }`)
	rep := Estimate(prog, fn, platform.Arria10, 0)
	if rep.BRAMBits != 128*64 {
		t.Errorf("BRAM = %d bits, want %d", rep.BRAMBits, 128*64)
	}
}

func TestUnrollPragmaFactorParsing(t *testing.T) {
	prog, fn := kfn(t, smallKernel)
	if got := unrollPragmaFactor(fn); got != 1 {
		t.Errorf("no pragma: factor = %d", got)
	}
	loop := firstLoop(prog, fn)
	if err := transform.InsertLoopPragma(loop, "unroll 16"); err != nil {
		t.Fatal(err)
	}
	if got := unrollPragmaFactor(fn); got != 16 {
		t.Errorf("factor = %d, want 16", got)
	}
}

func TestReportString(t *testing.T) {
	prog, fn := kfn(t, smallKernel)
	rep := Estimate(prog, fn, platform.Arria10, 0)
	s := rep.String()
	for _, want := range []string{"unroll=1", "LUT=", "fits=true"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q: %s", want, s)
		}
	}
	if !rep.Fits {
		t.Error("fitting report must not be overmapped")
	}
}

// helpers

func firstLoop(prog *minic.Program, fn *minic.FuncDecl) minic.Stmt {
	var loop minic.Stmt
	minic.Walk(fn, func(n minic.Node) bool {
		if loop != nil {
			return false
		}
		if fs, ok := n.(*minic.ForStmt); ok {
			loop = fs
			return false
		}
		return true
	})
	return loop
}

func pragma(n int) string {
	return "unroll " + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestSpecialFamiliesCosted: every special-function family of the
// intrinsic catalog has a double- and a single-precision operator cost.
func TestSpecialFamiliesCosted(t *testing.T) {
	for _, in := range minic.Intrinsics() {
		if !in.Special() {
			continue
		}
		if _, ok := specialDP[in.Family]; !ok {
			t.Errorf("%s: no specialDP row for family %s", in.Name, in.Family)
		}
		if _, ok := specialSP[in.Family]; !ok {
			t.Errorf("%s: no specialSP row for family %s", in.Name, in.Family)
		}
	}
}

// TestUserFunctionIsNoIntrinsic: a user function whose name looks like a
// libm or fast-math form is a user call, not a double-precision special
// function, so a kernel of single-precision literals that calls it is
// costed in single precision.
func TestUserFunctionIsNoIntrinsic(t *testing.T) {
	for _, helper := range []string{"__sin", "__exp_rn"} {
		prog := minic.MustParse(strings.ReplaceAll(`
float HELPER(float x) { return x * 2.0f; }
void k(int n, const float *a, float *b) {
    for (int i = 0; i < n; i++) {
        b[i] = HELPER(a[i]) * 0.5f + 1.0f;
    }
}
`, "HELPER", helper))
		fn := prog.MustFunc("k")
		if analysis.HasDPSpecialCalls(fn) {
			t.Errorf("%s: HasDPSpecialCalls = true, want false", helper)
		}
		if !CostDatapath(fn).SinglePrec {
			t.Errorf("%s: CostDatapath.SinglePrec = false, want true", helper)
		}
	}
}
