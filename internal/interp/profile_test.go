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

// loopMetaCases are programs whose loops sit at every kind of place a
// running engine could lose count of its open loops.
var loopMetaCases = []struct{ name, src string }{
	{"while-in-for-in-for", `
int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) {
            int k = 0;
            while (k < 2) { s = s + 1; k++; }
        }
    }
    return s;
}`},
	{"helper-called-in-loop", `
int helper(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s = s + i; }
    return s;
}
int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) { s = s + helper(j); }
    }
    return s;
}`},
	{"recursive", `
int rec(int n) {
    if (n == 0) { return 1; }
    int s = 0;
    for (int i = 0; i < 2; i++) {
        while (s < 100) { s = s + rec(n - 1); break; }
    }
    return s;
}
int main() { return rec(3); }`},
	{"after-break-and-return", `
int find(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            if (i * j == 2) { return j; }
        }
    }
    return 0;
}
int main() {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        while (s < 100) { s = s + 1; if (s > i) { break; } }
        s = s + find(3);
        for (int j = 0; j < 2; j++) { s = s + j; }
    }
    while (s > 0) { s = s - 7; }
    return s;
}`},
}

// loopMetaFail fails with an index out of range two loops deep.
const loopMetaFail = `
int main() {
    int a[4];
    int s = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 8; j++) { s = s + a[j]; }
    }
    return s;
}`

// TestLoopProfileMetadata: on the tree-walker, the VM and a ProgramCache
// image, every loop's profile names the function that holds it and its
// static nesting depth there, also in a run right after one that failed
// inside a nested loop (the VM's frames, loop stacks included, are pooled).
func TestLoopProfileMetadata(t *testing.T) {
	type meta struct {
		fn    string
		depth int
	}
	fail := minic.MustParse(loopMetaFail)
	progs := NewProgramCache()
	engines := []struct {
		name string
		cfg  func(*minic.Program) Config
	}{
		{"tree-walker", func(*minic.Program) Config { return Config{Entry: "main", TreeWalk: true} }},
		{"vm", func(*minic.Program) Config { return Config{Entry: "main"} }},
		{"program-cache", func(p *minic.Program) Config {
			return Config{Entry: "main", Progs: progs, Fingerprint: minic.Fingerprint(p)}
		}},
	}
	for _, c := range loopMetaCases {
		prog := minic.MustParse(c.src)
		want := map[int]meta{}
		for _, fn := range prog.Funcs {
			var walk func(n minic.Node, depth int)
			walk = func(n minic.Node, depth int) {
				if query.IsLoop(n) {
					depth++
					want[n.ID()] = meta{fn.Name, depth}
				}
				minic.EachChild(n, func(ch minic.Node) { walk(ch, depth) })
			}
			walk(fn, 0)
		}
		for _, e := range engines {
			if _, err := Run(fail, e.cfg(fail)); err == nil {
				t.Fatalf("%s: the failing program ran without an error", e.name)
			}
			for run := range 2 { // the second run of a cached image skips lowering
				res, err := Run(prog, e.cfg(prog))
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, e.name, err)
				}
				if len(res.Prof.Loops) != len(want) {
					t.Errorf("%s %s run %d: %d loops profiled, want all %d", c.name, e.name, run, len(res.Prof.Loops), len(want))
				}
				for id, lp := range res.Prof.Loops {
					if got := (meta{lp.Func, lp.Depth}); got != want[id] {
						t.Errorf("%s %s run %d: loop at %s is %+v, want %+v", c.name, e.name, run, lp.Pos, got, want[id])
					}
				}
			}
		}
	}
}
