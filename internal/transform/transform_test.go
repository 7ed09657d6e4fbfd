package transform

import (
	"slices"
	"strings"
	"testing"

	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/query"
)

const hostSrc = `
void app(int n, const double *in, double *out) {
    double bias = 0.5;
    for (int i = 0; i < n; i++) {
        out[i] = in[i] * 2.0 + bias;
    }
    out[0] = out[0] + 1.0;
}
`

// runApp executes the app function and returns the out buffer contents.
func runApp(t *testing.T, prog *minic.Program) []float64 {
	t.Helper()
	n := 8
	in := interp.NewFloatBuffer("in", minic.Double, make([]float64, n))
	out := interp.NewFloatBuffer("out", minic.Double, make([]float64, n))
	for i := 0; i < n; i++ {
		in.F[i] = float64(i) * 1.5
	}
	_, err := interp.Run(prog, interp.Config{
		Entry: "app",
		Args:  []interp.Value{interp.IntVal(int64(n)), interp.BufVal(in), interp.BufVal(out)},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return append([]float64(nil), out.F...)
}

func TestExtractHotspot(t *testing.T) {
	ref := minic.MustParse(hostSrc)
	want := runApp(t, ref)

	prog := minic.MustParse(hostSrc)
	host := prog.MustFunc("app")
	loop := query.OutermostLoops(host)[0]
	kernel, err := ExtractHotspot(prog, host, loop, "app_hotspot")
	if err != nil {
		t.Fatalf("ExtractHotspot: %v", err)
	}
	if kernel.Name != "app_hotspot" || prog.Func("app_hotspot") == nil {
		t.Fatal("kernel not registered")
	}
	if kernel.Body.Stmts[0] != loop {
		t.Error("the kernel holds a copy of the loop, not the host's loop moved")
	}
	// Parameters: n, in, out, bias (first-use order: i<n, in[i], bias, out[i]... ).
	names := map[string]bool{}
	for _, p := range kernel.Params {
		names[p.Name] = true
	}
	for _, want := range []string{"n", "in", "out", "bias"} {
		if !names[want] {
			t.Errorf("kernel params missing %q: %v", want, names)
		}
	}
	// Functional equivalence.
	got := runApp(t, prog)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The host now calls the kernel instead of looping.
	src := minic.Print(prog)
	if !strings.Contains(src, "app_hotspot(n, in, out, bias);") &&
		!strings.Contains(src, "app_hotspot(") {
		t.Errorf("host does not call kernel:\n%s", src)
	}
	if len(query.LoopsIn(prog.MustFunc("app"))) != 0 {
		t.Error("host should have no loops after extraction")
	}
}

func TestExtractHotspotLiveOutScalar(t *testing.T) {
	src := `
void app(int n, double *out) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += out[i];
    }
    out[0] = s;
}
`
	prog := minic.MustParse(src)
	host := prog.MustFunc("app")
	loop := query.OutermostLoops(host)[0]
	if _, err := ExtractHotspot(prog, host, loop, "k"); err == nil {
		t.Fatal("expected live-out scalar error")
	} else if !strings.Contains(err.Error(), "live-out") {
		t.Fatalf("err = %v", err)
	}
}

// TestExtractHotspotReturnEscapes: a return inside the loop would, once
// cloned into the void kernel, return from the kernel while the host runs
// on — `return 7` with a[0] doubled as written, `return 1` with a[0] == -1
// after outlining. Refused like a live-out scalar; break and continue bind
// inside the cloned loop and stay legal.
func TestExtractHotspotReturnEscapes(t *testing.T) {
	run := func(prog *minic.Program) (int64, float64) {
		t.Helper()
		a := interp.NewFloatBuffer("a", minic.Double, make([]float64, 1000))
		res, err := interp.Run(prog, interp.Config{Entry: "app",
			Args: []interp.Value{interp.IntVal(1000), interp.BufVal(a)}})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Ret.I, a.F[0]
	}
	cases := []struct {
		name, src string
		refused   string // "" when outlining is legal
	}{
		{"return in the hotspot loop", `
int app(int n, double *a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0 + 1.0;
        if (i == 500) { return 7; }
    }
    a[0] = -1.0;
    return 1;
}`, "transform ExtractHotspot: return at 5:25 leaves the hotspot loop"},
		{"return in a nested loop of the hotspot", `
int app(int n, double *a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 2; j++) {
            a[i] = a[i] * 2.0 + 1.0;
            while (a[i] > 100.0) { return 7; }
        }
    }
    a[0] = -1.0;
    return 1;
}`, "transform ExtractHotspot: return at 6:36 leaves the hotspot loop"},
		{"break and continue inside the hotspot", `
int app(int n, double *a) {
    for (int i = 0; i < n; i++) {
        if (i == 3) { continue; }
        for (int j = 0; j < 8; j++) {
            if (j == 2) { break; }
            a[i] = a[i] * 2.0 + 1.0;
        }
        if (i == 500) { break; }
    }
    a[0] = -1.0;
    return 1;
}`, ""},
	}
	for _, c := range cases {
		wantRet, wantA0 := run(minic.MustParse(c.src))
		prog := minic.MustParse(c.src)
		host := prog.MustFunc("app")
		_, err := ExtractHotspot(prog, host, query.OutermostLoops(host)[0], "k")
		if c.refused != "" {
			if err == nil || err.Error() != c.refused {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.refused)
			}
			if prog.Func("k") != nil || minic.Print(prog) != minic.Print(minic.MustParse(c.src)) {
				t.Errorf("%s: a refused outlining changed the program", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if ret, a0 := run(prog); ret != wantRet || a0 != wantA0 {
			t.Errorf("%s: outlined program returns %d with a[0]=%v, as written %d with %v", c.name, ret, a0, wantRet, wantA0)
		}
	}
}

func TestExtractHotspotNameCollision(t *testing.T) {
	prog := minic.MustParse(hostSrc)
	host := prog.MustFunc("app")
	loop := query.OutermostLoops(host)[0]
	if _, err := ExtractHotspot(prog, host, loop, "app"); err == nil {
		t.Fatal("expected name collision error")
	}
}

func TestInsertAndRemoveLoopPragma(t *testing.T) {
	prog := minic.MustParse(hostSrc)
	loop := query.OutermostLoops(prog.MustFunc("app"))[0]
	if err := InsertLoopPragma(loop, "unroll 4"); err != nil {
		t.Fatalf("InsertLoopPragma: %v", err)
	}
	if err := InsertLoopPragma(loop, "omp parallel for"); err != nil {
		t.Fatalf("InsertLoopPragma: %v", err)
	}
	out := minic.Print(prog)
	if !strings.Contains(out, "#pragma unroll 4") || !strings.Contains(out, "#pragma omp parallel for") {
		t.Fatalf("pragmas missing:\n%s", out)
	}
	RemoveLoopPragmas(loop, "unroll")
	out = minic.Print(prog)
	if strings.Contains(out, "#pragma unroll") {
		t.Fatalf("unroll pragma not removed:\n%s", out)
	}
	if !strings.Contains(out, "#pragma omp parallel for") {
		t.Fatalf("unrelated pragma removed:\n%s", out)
	}
}

func TestInsertLoopPragmaNonLoop(t *testing.T) {
	prog := minic.MustParse(hostSrc)
	stmt := prog.MustFunc("app").Body.Stmts[0]
	if err := InsertLoopPragma(stmt, "unroll"); err == nil {
		t.Fatal("expected error for non-loop")
	}
}

const unrollSrc = `
void k(const double *w, double *out) {
    for (int i = 0; i < 3; i++) {
        out[i] = w[i] * 2.0;
    }
}
`

func TestUnrollFixedLoops(t *testing.T) {
	prog := minic.MustParse(unrollSrc)
	fn := prog.MustFunc("k")
	n, err := UnrollFixedLoops(prog, fn, 16)
	if err != nil {
		t.Fatalf("UnrollFixedLoops: %v", err)
	}
	if n != 1 {
		t.Fatalf("unrolled %d loops, want 1", n)
	}
	out := minic.Print(prog)
	for _, want := range []string{"out[0] = w[0] * 2.0;", "out[1] = w[1] * 2.0;", "out[2] = w[2] * 2.0;"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "for (") {
		t.Errorf("loop should be gone:\n%s", out)
	}
}

func TestUnrollFixedLoopsEquivalence(t *testing.T) {
	src := `
void k(int n, const double *w, double *out) {
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int j = 0; j < 4; j++) {
            acc += w[j] * (double)(j + 1);
        }
        out[i] = acc + (double)i;
    }
}
`
	mk := func() ([]interp.Value, *interp.Buffer) {
		w := interp.NewFloatBuffer("w", minic.Double, []float64{1, 2, 3, 4})
		out := interp.NewFloatBuffer("out", minic.Double, make([]float64, 5))
		return []interp.Value{interp.IntVal(5), interp.BufVal(w), interp.BufVal(out)}, out
	}
	ref := minic.MustParse(src)
	argsRef, outRef := mk()
	if _, err := interp.Run(ref, interp.Config{Entry: "k", Args: argsRef}); err != nil {
		t.Fatal(err)
	}
	prog := minic.MustParse(src)
	if n, err := UnrollFixedLoops(prog, prog.MustFunc("k"), 8); err != nil || n != 1 {
		t.Fatalf("unroll: n=%d err=%v", n, err)
	}
	argsNew, outNew := mk()
	if _, err := interp.Run(prog, interp.Config{Entry: "k", Args: argsNew}); err != nil {
		t.Fatalf("unrolled program failed: %v\n%s", err, minic.Print(prog))
	}
	for i := range outRef.F {
		if outRef.F[i] != outNew.F[i] {
			t.Fatalf("out[%d]: %v != %v", i, outRef.F[i], outNew.F[i])
		}
	}
}

func TestUnrollNestedFixedLoops(t *testing.T) {
	src := `
void k(double *out) {
    for (int i = 0; i < 2; i++) {
        for (int j = 0; j < 2; j++) {
            out[i * 2 + j] = (double)(i * 10 + j);
        }
    }
}
`
	prog := minic.MustParse(src)
	n, err := UnrollFixedLoops(prog, prog.MustFunc("k"), 4)
	if err != nil {
		t.Fatalf("UnrollFixedLoops: %v", err)
	}
	if n != 2 {
		t.Fatalf("unrolled %d, want 2 (inner then outer)", n)
	}
	out := interp.NewFloatBuffer("out", minic.Double, make([]float64, 4))
	if _, err := interp.Run(prog, interp.Config{Entry: "k", Args: []interp.Value{interp.BufVal(out)}}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 10, 11}
	for i := range want {
		if out.F[i] != want[i] {
			t.Fatalf("out = %v, want %v", out.F, want)
		}
	}
}

func TestUnrollRespectsLimit(t *testing.T) {
	prog := minic.MustParse(`void k(double *out) { for (int i = 0; i < 100; i++) { out[i] = 0.0; } }`)
	n, err := UnrollFixedLoops(prog, prog.MustFunc("k"), 16)
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v, want 0 unrolls", n, err)
	}
}

func TestRemovePlusEqDep(t *testing.T) {
	src := `
void k(int n, int m, const double *w, double *out) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
            out[i] += w[i * m + j];
        }
    }
}
`
	mk := func() ([]interp.Value, *interp.Buffer) {
		w := interp.NewFloatBuffer("w", minic.Double, []float64{1, 2, 3, 4, 5, 6})
		out := interp.NewFloatBuffer("out", minic.Double, make([]float64, 2))
		return []interp.Value{interp.IntVal(2), interp.IntVal(3), interp.BufVal(w), interp.BufVal(out)}, out
	}
	ref := minic.MustParse(src)
	argsRef, outRef := mk()
	if _, err := interp.Run(ref, interp.Config{Entry: "k", Args: argsRef}); err != nil {
		t.Fatal(err)
	}

	prog := minic.MustParse(src)
	count, err := RemovePlusEqDep(prog, prog.MustFunc("k"))
	if err != nil {
		t.Fatalf("RemovePlusEqDep: %v", err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	out := minic.Print(prog)
	if !strings.Contains(out, "acc_out_0") {
		t.Fatalf("accumulator not introduced:\n%s", out)
	}
	// The inner loop body must no longer touch the array.
	if strings.Contains(out, "out[i] +=") {
		t.Fatalf("array += still present:\n%s", out)
	}
	argsNew, outNew := mk()
	if _, err := interp.Run(prog, interp.Config{Entry: "k", Args: argsNew}); err != nil {
		t.Fatalf("transformed program failed: %v\n%s", err, minic.Print(prog))
	}
	for i := range outRef.F {
		if outRef.F[i] != outNew.F[i] {
			t.Fatalf("out[%d]: %v != %v", i, outRef.F[i], outNew.F[i])
		}
	}
}

func TestRemovePlusEqDepSkipsVaryingSubscript(t *testing.T) {
	src := `
void k(int n, const double *w, double *out) {
    for (int j = 0; j < n; j++) {
        out[j] += w[j];
    }
}
`
	prog := minic.MustParse(src)
	count, err := RemovePlusEqDep(prog, prog.MustFunc("k"))
	if err != nil || count != 0 {
		t.Fatalf("count=%d err=%v, want 0 (subscript varies with loop)", count, err)
	}
}

// runBoth runs k(n, a, b) of prog on both engines, n = 5 and a and b
// arrays of their declared element kinds, and returns each engine's a and b.
func runBoth(t *testing.T, prog *minic.Program) [2][][]float64 {
	t.Helper()
	var out [2][][]float64
	for e, tree := range []bool{false, true} {
		args := []interp.Value{interp.IntVal(5)}
		var bufs []*interp.Buffer
		for _, p := range prog.MustFunc("k").Params[1:] {
			data := make([]float64, 5)
			for i := range data {
				data[i] = 0.1 * float64(i+1)
			}
			bufs = append(bufs, interp.NewFloatBuffer(p.Name, p.Type.Kind, data))
			args = append(args, interp.BufVal(bufs[len(bufs)-1]))
		}
		if _, err := interp.Run(prog, interp.Config{Entry: "k", Args: args, TreeWalk: tree}); err != nil {
			t.Fatalf("tree-walker %v: %v\n%s", tree, err, minic.Print(prog))
		}
		for _, b := range bufs {
			out[e] = append(out[e], b.F)
		}
	}
	return out
}

// TestRemovePlusEqDepKeepsResults: the rewrite must not change what a
// program computes. Each program is run before and after it on both
// engines; want is how many accumulations the rewrite may still take.
func TestRemovePlusEqDepKeepsResults(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      int
	}{
		{"array read elsewhere in the loop", `
void k(int n, double *a, double *b) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] += 1.0;
            b[j] = a[i];
        }
    }
}`, 0},
		{"subscript assigned in the loop", `
void k(int n, double *a, double *b) {
    int m = 0;
    for (int j = 0; j < n; j++) {
        m = j;
        a[m] += b[j];
    }
}`, 0},
		{"subscript reads an array written in the loop", `
void k(int n, double *a, double *b) {
    int at[1];
    at[0] = 0;
    for (int j = 0; j < n; j++) {
        at[0] = j;
        a[at[0]] += b[j];
    }
}`, 0},
		{"return inside the loop", `
void k(int n, double *a, double *b) {
    for (int j = 0; j < n; j++) {
        a[0] += b[j];
        if (j == 2) {
            return;
        }
    }
}`, 0},
		{"float array", `
void k(int n, float *a, double *b) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] += b[j] * 0.3;
        }
    }
}`, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := runBoth(t, minic.MustParse(c.src))
			prog := minic.MustParse(c.src)
			n, err := RemovePlusEqDep(prog, prog.MustFunc("k"))
			if err != nil {
				t.Fatal(err)
			}
			got := runBoth(t, prog)
			for e := range got {
				for i := range got[e] {
					if !slices.Equal(got[e][i], want[e][i]) {
						t.Fatalf("engine %d: array %d is %v after the rewrite, %v before:\n%s",
							e, i, got[e][i], want[e][i], minic.Print(prog))
					}
				}
			}
			if n != c.want {
				t.Errorf("rewrote %d accumulations, want %d:\n%s", n, c.want, minic.Print(prog))
			}
		})
	}
}

func TestSinglePrecisionFns(t *testing.T) {
	prog := minic.MustParse(`double k(double x) { return sqrt(x) + exp(x) * pow(x, 2.0) - fabs(x); }`)
	n := SinglePrecisionFns(prog.MustFunc("k"))
	if n != 4 {
		t.Fatalf("rewrote %d calls, want 4", n)
	}
	out := minic.Print(prog)
	for _, want := range []string{"sqrtf(", "expf(", "powf(", "fabsf("} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s:\n%s", want, out)
		}
	}
}

func TestSinglePrecisionLiterals(t *testing.T) {
	prog := minic.MustParse(`double k(double x) { return x * 2.5 + 0.5f - 1.0; }`)
	n := SinglePrecisionLiterals(prog.MustFunc("k"))
	if n != 2 {
		t.Fatalf("rewrote %d literals, want 2", n)
	}
	out := minic.Print(prog)
	if !strings.Contains(out, "2.5f") || !strings.Contains(out, "1.0f") {
		t.Fatalf("literals not converted:\n%s", out)
	}
}

func TestSpecialisedMathFns(t *testing.T) {
	prog := minic.MustParse(`float k(float x) { return expf(x) + sqrtf(x) * logf(x); }`)
	n := SpecialisedMathFns(prog.MustFunc("k"))
	if n != 3 {
		t.Fatalf("rewrote %d calls, want 3", n)
	}
	out := minic.Print(prog)
	for _, want := range []string{"__expf(", "__fsqrt_rn(", "__logf("} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s:\n%s", want, out)
		}
	}
}

func TestSPPipelineEquivalenceApprox(t *testing.T) {
	// SP demotion changes numerics slightly but must stay close.
	src := `
void k(int n, const double *in, double *out) {
    for (int i = 0; i < n; i++) {
        out[i] = sqrt(in[i] * 2.0 + 1.0);
    }
}
`
	mk := func() ([]interp.Value, *interp.Buffer) {
		n := 6
		in := interp.NewFloatBuffer("in", minic.Double, make([]float64, n))
		out := interp.NewFloatBuffer("out", minic.Double, make([]float64, n))
		for i := 0; i < n; i++ {
			in.F[i] = float64(i) * 0.7
		}
		return []interp.Value{interp.IntVal(int64(n)), interp.BufVal(in), interp.BufVal(out)}, out
	}
	ref := minic.MustParse(src)
	argsRef, outRef := mk()
	if _, err := interp.Run(ref, interp.Config{Entry: "k", Args: argsRef}); err != nil {
		t.Fatal(err)
	}
	prog := minic.MustParse(src)
	SinglePrecisionFns(prog.MustFunc("k"))
	SinglePrecisionLiterals(prog.MustFunc("k"))
	argsNew, outNew := mk()
	if _, err := interp.Run(prog, interp.Config{Entry: "k", Args: argsNew}); err != nil {
		t.Fatal(err)
	}
	for i := range outRef.F {
		rel := outRef.F[i] - outNew.F[i]
		if rel < 0 {
			rel = -rel
		}
		if outRef.F[i] != 0 && rel/outRef.F[i] > 1e-5 {
			t.Fatalf("out[%d] drifted: %v vs %v", i, outRef.F[i], outNew.F[i])
		}
	}
}
