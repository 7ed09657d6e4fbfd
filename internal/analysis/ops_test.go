package analysis

import (
	"testing"

	"psaflow/internal/minic"
)

// TypesIn builds fn's type environment and drops it, for the external test
// that bounds what WeightedOps allocates beside it.
func TypesIn(fn *minic.FuncDecl) { typesIn(fn) }

func TestCountOpsBasic(t *testing.T) {
	prog := minic.MustParse(`void f(int n, double *a, const double *b) {
        for (int i = 0; i < n; i++) {
            a[i] = b[i] * 2.0 + sqrt(b[i]);
        }
    }`)
	fn := prog.Funcs[0]
	ops := CountOps(fn.Body, fn)
	if ops.Mul != 1 || ops.AddSub != 1 {
		t.Errorf("mul=%v addsub=%v, want 1/1", ops.Mul, ops.AddSub)
	}
	if ops.Special != 1 || ops.SpecialK["sqrt"] != 1 {
		t.Errorf("special=%v (%v)", ops.Special, ops.SpecialK)
	}
	if ops.Stores != 1 {
		t.Errorf("stores=%v, want 1", ops.Stores)
	}
	if ops.Loads != 2 {
		t.Errorf("loads=%v, want 2 (two reads of b[i])", ops.Loads)
	}
	// FLOPs: mul + add + sqrt(4) = 6.
	if ops.FlopsW != 6 {
		t.Errorf("flops=%v, want 6", ops.FlopsW)
	}
	// Bytes: 3 accesses * 8 bytes.
	if ops.BytesRW != 24 {
		t.Errorf("bytes=%v, want 24", ops.BytesRW)
	}
	if ai := ops.AI(); ai != 0.25 {
		t.Errorf("AI=%v, want 0.25", ai)
	}
}

// TestCountOpsCompoundAssign: an assignment's or ++/--'s indexed target is
// a store (and, compound, a load) and is not counted again as a read; the
// reads inside a target's index still are.
func TestCountOpsCompoundAssign(t *testing.T) {
	for _, c := range []struct {
		stmt                         string
		addSub, loads, stores, bytes float64
	}{
		// Compound: one add, load+store of a[0], load of b[1].
		{"a[0] += b[1];", 1, 2, 1, 24},
		{"a[i] = b[j];", 0, 1, 1, 16},
		{"a[i] += b[i];", 1, 2, 1, 24},
		{"a[i]++;", 1, 1, 1, 16},
		{"a[i] = b[j] = x;", 0, 0, 2, 16},
		{"a[idx[i]] = x;", 0, 1, 1, 12},
	} {
		prog := minic.MustParse(`void f(double *a, double *b, const int *idx, int i, int j, double x) {
        ` + c.stmt + `
    }`)
		fn := prog.Funcs[0]
		ops := CountOps(fn.Body, fn)
		if ops.AddSub != c.addSub || ops.Loads != c.loads || ops.Stores != c.stores || ops.BytesRW != c.bytes {
			t.Errorf("%s: addsub=%v loads=%v stores=%v bytes=%v, want %v %v %v %v", c.stmt,
				ops.AddSub, ops.Loads, ops.Stores, ops.BytesRW, c.addSub, c.loads, c.stores, c.bytes)
		}
	}
}

func TestCountOpsFloatWidths(t *testing.T) {
	prog := minic.MustParse(`void f(float *a, const float *b) {
        a[0] = b[0];
    }`)
	fn := prog.Funcs[0]
	ops := CountOps(fn.Body, fn)
	if ops.BytesRW != 8 { // two float accesses * 4 bytes
		t.Errorf("bytes=%v, want 8", ops.BytesRW)
	}
}

func TestWeightedOpsScalesFixedLoops(t *testing.T) {
	prog := minic.MustParse(`void f(double *a, const double *b) {
        for (int j = 0; j < 10; j++) {
            a[j] = b[j] + 1.0;
        }
    }`)
	fn := prog.Funcs[0]
	ops := WeightedOps(fn)
	if ops.AddSub < 10 {
		t.Errorf("weighted addsub=%v, want >= 10", ops.AddSub)
	}
	if ops.Stores != 10 {
		t.Errorf("weighted stores=%v, want 10", ops.Stores)
	}
}

func TestWeightedOpsUnknownLoopOnce(t *testing.T) {
	prog := minic.MustParse(`void f(int n, double *a) {
        for (int i = 0; i < n; i++) {
            a[i] = 1.0;
        }
    }`)
	fn := prog.Funcs[0]
	ops := WeightedOps(fn)
	if ops.Stores != 1 {
		t.Errorf("unknown-trip loop must count once: stores=%v", ops.Stores)
	}
}

func TestRegisterEstimateOrdering(t *testing.T) {
	simple := minic.MustParse(`void k(int n, float *a, const float *b) {
        for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0f; }
    }`).Funcs[0]
	heavy := minic.MustParse(`void k(int n, double *v) {
        for (int i = 0; i < n; i++) {
            double g1 = exp(v[i] * 0.1);
            double g2 = exp(v[i] * 0.2);
            double g3 = exp(g1 * g2 + sqrt(g1));
            double g4 = pow(g3, 2.0) + exp(g2);
            double g5 = exp(g4) + exp(g3) * exp(g1);
            double g6 = g5 * g4 + g3 * g2 + g1;
            double g7 = exp(g6) + pow(g5, g4);
            double g8 = g7 + exp(g6 * g5);
            double g9 = exp(g8) * exp(g7);
            double g10 = g9 + g8 * g7 + exp(g6);
            double g11 = exp(g10) + exp(g9);
            double g12 = g11 * g10 + exp(g8);
            double g13 = exp(g12) + g11;
            double g14 = exp(g13) * g12;
            double g15 = exp(g14) + g13;
            double g16 = exp(g15) * g14;
            double g17 = exp(g16) + g15;
            double g18 = exp(g17) * g16;
            double g19 = exp(g18) + g17;
            double g20 = exp(g19) * g18;
            v[i] = g20 + g19;
        }
    }`).Funcs[0]
	rs := RegisterEstimate(simple)
	rh := RegisterEstimate(heavy)
	if rs >= rh {
		t.Errorf("simple kernel regs (%d) must be below heavy kernel regs (%d)", rs, rh)
	}
	if rs > 64 {
		t.Errorf("streaming kernel estimate too high: %d", rs)
	}
	if rh > 255 {
		t.Errorf("estimate must clamp at 255: %d", rh)
	}
}

func TestOpCountsAIZeroWithoutTraffic(t *testing.T) {
	prog := minic.MustParse(`double f(double x) { return x * x + 1.0; }`)
	fn := prog.Funcs[0]
	ops := CountOps(fn.Body, fn)
	if ops.AI() != 0 {
		t.Errorf("AI without memory traffic = %v, want 0", ops.AI())
	}
	if ops.FlopsW != 2 {
		t.Errorf("flops = %v, want 2", ops.FlopsW)
	}
}
