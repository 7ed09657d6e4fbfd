package interp

import (
	"testing"

	"psaflow/internal/minic"
	"psaflow/internal/query"
)

const profSrc = `
void kernel(int n, const double *in, double *out) {
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int j = 0; j < 8; j++) {
            acc += in[i] * (double)j;
        }
        out[i] = acc;
    }
}

void app(int n, const double *in, double *out) {
    for (int r = 0; r < 2; r++) {
        kernel(n, in, out);
    }
    for (int i = 0; i < n; i++) {
        out[i] = out[i] + 1.0;
    }
}
`

func runProf(t *testing.T, watch string) (*Result, *minic.Program) {
	t.Helper()
	prog := minic.MustParse(profSrc)
	n := 16
	in := NewFloatBuffer("in", minic.Double, make([]float64, n))
	out := NewFloatBuffer("out", minic.Double, make([]float64, n))
	for i := 0; i < n; i++ {
		in.F[i] = float64(i)
	}
	res, err := Run(prog, Config{
		Entry: "app",
		Args:  []Value{IntVal(int64(n)), BufVal(in), BufVal(out)},
		Watch: watch,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, prog
}

func TestLoopProfileTripsAndEntries(t *testing.T) {
	res, prog := runProf(t, "kernel")
	kernel := prog.MustFunc("kernel")
	outer := query.OutermostLoops(kernel)[0]
	inner := query.InnerLoops(outer)[0]

	lpOuter := res.Prof.Loops[outer.ID()]
	if lpOuter == nil {
		t.Fatal("no profile for outer loop")
	}
	// kernel is called twice with n=16.
	if lpOuter.Entries != 2 || lpOuter.Trips != 32 {
		t.Errorf("outer: entries=%d trips=%d, want 2/32", lpOuter.Entries, lpOuter.Trips)
	}
	if lpOuter.AvgTrips() != 16 {
		t.Errorf("outer avg trips = %v, want 16", lpOuter.AvgTrips())
	}
	lpInner := res.Prof.Loops[inner.ID()]
	if lpInner.Entries != 32 || lpInner.Trips != 256 {
		t.Errorf("inner: entries=%d trips=%d, want 32/256", lpInner.Entries, lpInner.Trips)
	}
	if lpOuter.Depth != 1 || lpInner.Depth != 2 {
		t.Errorf("depths = %d,%d, want 1,2", lpOuter.Depth, lpInner.Depth)
	}
	if lpOuter.Func != "kernel" {
		t.Errorf("outer func = %q", lpOuter.Func)
	}
}

func TestLoopCyclesInclusive(t *testing.T) {
	res, prog := runProf(t, "kernel")
	kernel := prog.MustFunc("kernel")
	outer := query.OutermostLoops(kernel)[0]
	inner := query.InnerLoops(outer)[0]
	lpOuter := res.Prof.Loops[outer.ID()]
	lpInner := res.Prof.Loops[inner.ID()]
	if lpOuter.Cycles <= lpInner.Cycles {
		t.Errorf("outer cycles (%v) must exceed inner (%v): inclusive accounting", lpOuter.Cycles, lpInner.Cycles)
	}
	if lpOuter.Cycles >= res.Prof.Cycles {
		t.Errorf("loop cycles (%v) must be below total (%v)", lpOuter.Cycles, res.Prof.Cycles)
	}
}

func TestHotspotDetection(t *testing.T) {
	res, prog := runProf(t, "app")
	hs, share := res.Prof.Hotspot()
	if hs == nil {
		t.Fatal("no hotspot")
	}
	// The hottest outermost loop is app's first loop (calls kernel twice).
	appLoops := query.OutermostLoops(prog.MustFunc("app"))
	if hs.ID != appLoops[0].ID() {
		t.Errorf("hotspot ID = %d, want loop at %v", hs.ID, appLoops[0].NodePos())
	}
	if share <= 0.5 || share > 1.0 {
		t.Errorf("hotspot share = %v, want (0.5, 1]", share)
	}
}

func TestParamTraffic(t *testing.T) {
	res, _ := runProf(t, "kernel")
	traffic := res.Prof.ParamTraffic
	in := traffic["in"]
	out := traffic["out"]
	if in == nil || out == nil {
		t.Fatalf("missing traffic entries: %v", traffic)
	}
	// in is read 8 times per i (16 i's, 2 calls): 256 reads * 8 bytes.
	if in.BytesIn != 256*8 {
		t.Errorf("in.BytesIn = %d, want %d", in.BytesIn, 256*8)
	}
	if in.BytesOut != 0 {
		t.Errorf("in.BytesOut = %d, want 0", in.BytesOut)
	}
	// out is written once per i: 32 writes * 8 bytes.
	if out.BytesOut != 32*8 {
		t.Errorf("out.BytesOut = %d, want %d", out.BytesOut, 32*8)
	}
	if out.BytesIn != 0 {
		t.Errorf("out.BytesIn = %d, want 0 (plain stores)", out.BytesIn)
	}
}

func TestWatchCallsAndFlops(t *testing.T) {
	res, _ := runProf(t, "kernel")
	if res.Prof.WatchCalls != 2 {
		t.Errorf("WatchCalls = %d, want 2", res.Prof.WatchCalls)
	}
	if res.Prof.WatchFlops <= 0 || res.Prof.WatchFlops > res.Prof.Flops {
		t.Errorf("WatchFlops = %d (total %d)", res.Prof.WatchFlops, res.Prof.Flops)
	}
	if res.Prof.WatchCycles <= 0 || res.Prof.WatchCycles > res.Prof.Cycles {
		t.Errorf("WatchCycles = %v (total %v)", res.Prof.WatchCycles, res.Prof.Cycles)
	}
}

func TestAliasObservation(t *testing.T) {
	prog := minic.MustParse(`
void k(int n, double *a, double *b) {
    for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0; }
}
void app(int n, double *x, double *y) {
    k(n, x, y);
    k(n, x, x);
}
`)
	x := NewFloatBuffer("x", minic.Double, make([]float64, 4))
	y := NewFloatBuffer("y", minic.Double, make([]float64, 4))
	res, err := Run(prog, Config{Entry: "app",
		Args:  []Value{IntVal(4), BufVal(x), BufVal(y)},
		Watch: "k"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	pairs := res.Prof.AliasPairs()
	if len(pairs) != 1 || pairs[0] != [2]string{"a", "b"} {
		t.Fatalf("alias pairs = %v, want [[a b]]", pairs)
	}
	if len(res.Prof.Bindings) != 2 {
		t.Errorf("bindings = %d, want 2", len(res.Prof.Bindings))
	}
}

func TestNoAliasWhenDistinct(t *testing.T) {
	prog := minic.MustParse(`
void k(int n, double *a, double *b) {
    for (int i = 0; i < n; i++) { a[i] = b[i]; }
}
`)
	x := NewFloatBuffer("x", minic.Double, make([]float64, 4))
	y := NewFloatBuffer("y", minic.Double, make([]float64, 4))
	res, err := Run(prog, Config{Entry: "k",
		Args: []Value{IntVal(4), BufVal(x), BufVal(y)}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pairs := res.Prof.AliasPairs(); len(pairs) != 0 {
		t.Errorf("alias pairs = %v, want none", pairs)
	}
}

func TestBufferCloneIndependent(t *testing.T) {
	b := NewFloatBuffer("a", minic.Double, []float64{1, 2, 3})
	c := b.Clone()
	c.F[0] = 99
	if b.F[0] != 1 {
		t.Error("clone shares storage")
	}
	ib := NewIntBuffer("i", []int64{5})
	ic := ib.Clone()
	ic.I[0] = 7
	if ib.I[0] != 5 {
		t.Error("int clone shares storage")
	}
}

func TestElemBytes(t *testing.T) {
	if NewFloatBuffer("d", minic.Double, nil).ElemBytes() != 8 {
		t.Error("double elem bytes != 8")
	}
	if NewFloatBuffer("f", minic.Float, nil).ElemBytes() != 4 {
		t.Error("float elem bytes != 4")
	}
	if NewIntBuffer("i", nil).ElemBytes() != 4 {
		t.Error("int elem bytes != 4")
	}
}
