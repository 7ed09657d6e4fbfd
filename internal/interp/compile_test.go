package interp_test

// Differential tests between the default engine (the bytecode VM, called
// "compiled" below) and the reference tree-walking evaluator. The contract is bit-for-bit
// equivalence: identical return values, step counts, captured output,
// cycle/FLOP accounting (float64 accumulation order included), loop
// profiles, memory traffic, alias observations, final buffer contents,
// and error messages. CI runs this file under -race (scripts/ci.sh).

import (
	"math"
	"reflect"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// runBoth executes prog twice — compiled and tree-walk — with args from
// the factory (fresh buffers per call, so runs cannot observe each other's
// writes) and returns both results.
func runBoth(t *testing.T, prog *minic.Program, entry, watch string, mkArgs func() []interp.Value) (compiled, walked *interp.Result) {
	t.Helper()
	var err error
	compiled, err = interp.Run(prog, interp.Config{Entry: entry, Args: mkArgs(), Watch: watch})
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	walked, err = interp.Run(prog, interp.Config{Entry: entry, Args: mkArgs(), Watch: watch, TreeWalk: true})
	if err != nil {
		t.Fatalf("tree-walk run: %v", err)
	}
	return compiled, walked
}

// sameFloats compares bit for bit, so that a NaN both engines computed is
// the same outcome (reflect.DeepEqual and == say it is not); generated
// programs overflow to Inf and multiply it by zero readily.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertResultsEqual checks the full observable surface of two results.
func assertResultsEqual(t *testing.T, name string, compiled, walked *interp.Result) {
	t.Helper()
	if cr, wr := compiled.Ret, walked.Ret; cr.K != wr.K || cr.I != wr.I || cr.Buf != wr.Buf || !sameFloats([]float64{cr.F}, []float64{wr.F}) {
		t.Errorf("%s: Ret compiled=%v walked=%v", name, compiled.Ret, walked.Ret)
	}
	if compiled.Steps != walked.Steps {
		t.Errorf("%s: Steps compiled=%d walked=%d", name, compiled.Steps, walked.Steps)
	}
	if !reflect.DeepEqual(compiled.Output, walked.Output) {
		t.Errorf("%s: Output compiled=%v walked=%v", name, compiled.Output, walked.Output)
	}
	cp, wp := compiled.Prof, walked.Prof
	if cp.Cycles != wp.Cycles {
		t.Errorf("%s: Cycles compiled=%v walked=%v", name, cp.Cycles, wp.Cycles)
	}
	if cp.Flops != wp.Flops || cp.IntOps != wp.IntOps {
		t.Errorf("%s: ops compiled=(%d flops, %d int) walked=(%d flops, %d int)",
			name, cp.Flops, cp.IntOps, wp.Flops, wp.IntOps)
	}
	if cp.LoadBytes != wp.LoadBytes || cp.StoreBytes != wp.StoreBytes {
		t.Errorf("%s: traffic compiled=(%d in, %d out) walked=(%d in, %d out)",
			name, cp.LoadBytes, cp.StoreBytes, wp.LoadBytes, wp.StoreBytes)
	}
	if cp.WatchFunc != wp.WatchFunc || cp.WatchLoop != wp.WatchLoop || cp.WatchCalls != wp.WatchCalls ||
		cp.WatchCycles != wp.WatchCycles || cp.WatchFlops != wp.WatchFlops ||
		cp.WatchLoadBytes != wp.WatchLoadBytes || cp.WatchStoreBytes != wp.WatchStoreBytes ||
		cp.WatchSpecialFlops != wp.WatchSpecialFlops {
		t.Errorf("%s: watch measurements differ:\ncompiled: %+v\nwalked:   %+v", name, *cp, *wp)
	}
	if !reflect.DeepEqual(cp.Loops, wp.Loops) {
		t.Errorf("%s: loop profiles differ:\ncompiled: %v\nwalked:   %v", name, cp.Loops, wp.Loops)
	}
	if !reflect.DeepEqual(cp.ParamTraffic, wp.ParamTraffic) {
		t.Errorf("%s: param traffic differs:\ncompiled: %v\nwalked:   %v", name, cp.ParamTraffic, wp.ParamTraffic)
	}
	if !reflect.DeepEqual(cp.Bufs, wp.Bufs) || !reflect.DeepEqual(cp.Bindings, wp.Bindings) {
		t.Errorf("%s: bindings differ:\ncompiled: %v %v\nwalked:   %v %v", name, cp.Bufs, cp.Bindings, wp.Bufs, wp.Bindings)
	}
	if !reflect.DeepEqual(cp.AliasPairs(), wp.AliasPairs()) {
		t.Errorf("%s: alias pairs compiled=%v walked=%v", name, cp.AliasPairs(), wp.AliasPairs())
	}
}

// bufferArgs extracts the buffer-valued arguments for content comparison.
func bufferArgs(args []interp.Value) []*interp.Buffer {
	var out []*interp.Buffer
	for _, a := range args {
		if a.K == interp.KBuf {
			out = append(out, a.Buf)
		}
	}
	return out
}

// TestCompiledTreeWalkEquivalenceBenchmarks pushes all five bundled
// benchmark applications through both execution paths, watched on their
// entry, and asserts the entire observable surface matches — including
// the final contents of every argument buffer.
func TestCompiledTreeWalkEquivalenceBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog := b.Parse()
			cArgs := b.MakeArgs()
			wArgs := b.MakeArgs()
			compiled, err := interp.Run(prog, interp.Config{Entry: b.Entry, Args: cArgs, Watch: b.Entry})
			if err != nil {
				t.Fatalf("compiled run: %v", err)
			}
			walked, err := interp.Run(prog, interp.Config{Entry: b.Entry, Args: wArgs, Watch: b.Entry, TreeWalk: true})
			if err != nil {
				t.Fatalf("tree-walk run: %v", err)
			}
			assertResultsEqual(t, b.Name, compiled, walked)
			cBufs, wBufs := bufferArgs(cArgs), bufferArgs(wArgs)
			for i := range cBufs {
				if !reflect.DeepEqual(cBufs[i].I, wBufs[i].I) || !reflect.DeepEqual(cBufs[i].F, wBufs[i].F) {
					t.Errorf("%s: final contents of buffer %s differ between paths", b.Name, cBufs[i].Name)
				}
			}
		})
	}
}

// TestCompiledTreeWalkEquivalenceErrors asserts the two paths fail with
// byte-identical error messages, including positions. What fails whatever
// the data, minic.Check rejects at parse; the rows with an edit take a
// program past the check by hand, as a caller that edits an AST may: the
// lowering panics on what the check rejects, and Run falls back to the
// tree-walker, which reports it (or, in dead code, runs past it).
func TestCompiledTreeWalkEquivalenceErrors(t *testing.T) {
	mkBuf := func() []interp.Value {
		return []interp.Value{interp.BufVal(interp.NewFloatBuffer("a", minic.Double, make([]float64, 3)))}
	}
	none := func() []interp.Value { return nil }
	dropParams := func(p *minic.Program) { p.MustFunc("f").Params = nil }
	edit := func(fn func(n minic.Node)) func(*minic.Program) {
		return func(p *minic.Program) { minic.Walk(p, func(n minic.Node) bool { fn(n); return true }) }
	}
	cases := []struct {
		name string
		src  string
		args func() []interp.Value
		max  int64
		edit func(*minic.Program)
	}{
		{"div-zero", `int f() { return 1 / 0; }`, none, 0, nil},
		{"mod-zero", `int f() { return 1 % 0; }`, none, 0, nil},
		{"fdiv-zero", `double f() { return 1.0 / 0.0; }`, none, 0, nil},
		{"undef-var", `int f(int x) { return x; }`, none, 0, dropParams},
		{"undef-var-assign", `int f(int x) { x = 3; return 0; }`, none, 0, dropParams},
		{"undef-fn", `int g() { return 0; } int f() { return g(); }`, none, 0,
			func(p *minic.Program) { p.Funcs = p.Funcs[1:] }},
		{"oob-high", `void f(double *a) { a[5] = 1.0; }`, mkBuf, 0, nil},
		{"oob-low", `void f(double *a) { a[-1] = 1.0; }`, mkBuf, 0, nil},
		{"builtin-arity", `int f() { return pow(1.0, 2.0); }`, none, 0, edit(func(n minic.Node) {
			if c, ok := n.(*minic.CallExpr); ok {
				c.Fun = "sqrt"
			}
		})},
		{"index-non-array", `int f() { int x[1]; return x[0]; }`, none, 0, edit(func(n minic.Node) {
			if d, ok := n.(*minic.DeclStmt); ok {
				d.ArrayLen = nil
			}
		})},
		{"step-budget", `void f() { while (true) { } }`, none, 10000, nil},
		{"dead-undef-ok", `int f(int zzz) { if (false) { return zzz; } return 7; }`, none, 0, dropParams},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog := minic.MustParse(c.src)
			if c.edit != nil {
				c.edit(prog)
				if minic.Check(prog) == nil {
					t.Fatal("the edit left a program the check accepts")
				}
			}
			_, cErr := prog, error(nil)
			_ = cErr
			rc, errC := interp.Run(prog, interp.Config{Entry: "f", Args: c.args(), MaxSteps: c.max})
			rw, errW := interp.Run(prog, interp.Config{Entry: "f", Args: c.args(), MaxSteps: c.max, TreeWalk: true})
			switch {
			case (errC == nil) != (errW == nil):
				t.Fatalf("error presence differs: compiled=%v walked=%v", errC, errW)
			case errC != nil && errC.Error() != errW.Error():
				t.Fatalf("error messages differ:\ncompiled: %v\nwalked:   %v", errC, errW)
			case errC == nil:
				assertResultsEqual(t, c.name, rc, rw)
			}
		})
	}
}

// TestShadowingAcrossNestedAndForInitScopes is the regression for
// frame.lookup's innermost-first resolution: the compiled resolver must
// bind every reference to the same declaration the scope-stack walk finds,
// across nested blocks and for-init scopes, in both execution paths.
func TestShadowingAcrossNestedAndForInitScopes(t *testing.T) {
	src := `
int f() {
    int x = 1;
    int i = 100;
    int seen = 0;
    {
        int x = 2;
        {
            int x = 3;
            x += 10;
            seen += x;
        }
        x += 1;
        seen += x * 100;
    }
    for (int i = 0; i < 3; i++) {
        int x = 50;
        x += i;
        seen += x * 10000;
    }
    for (int i = 5; i < 6; i++) {
        seen += i * 1000000;
    }
    return seen * 10 + x + i / 100;
}
`
	prog := minic.MustParse(src)
	none := func() []interp.Value { return nil }
	compiled, walked := runBoth(t, prog, "f", "", none)
	assertResultsEqual(t, "shadowing", compiled, walked)
	// seen = 13 + 300 + (50+51+52)*10000 + 5*1000000 = 6530313;
	// outer x and i survive untouched.
	if want := int64(6530313*10 + 1 + 1); compiled.Ret.AsInt() != want {
		t.Errorf("shadowing result = %d, want %d", compiled.Ret.AsInt(), want)
	}
}

// TestDeclInitSeesOuterBinding pins the declaration-order rule the
// compiler must preserve: an initializer referencing the declared name
// reads the outer (shadowed) binding, because the binding becomes visible
// only after its initializer evaluates.
func TestDeclInitSeesOuterBinding(t *testing.T) {
	src := `
int f() {
    int x = 2;
    {
        int x = x + 40;
        return x;
    }
}
`
	prog := minic.MustParse(src)
	none := func() []interp.Value { return nil }
	compiled, walked := runBoth(t, prog, "f", "", none)
	assertResultsEqual(t, "decl-init", compiled, walked)
	if compiled.Ret.AsInt() != 42 {
		t.Errorf("inner x = %d, want 42 (init must read outer binding)", compiled.Ret.AsInt())
	}
}

// TestCompiledWatchEquivalence watches a non-entry kernel with aliased
// buffers, checking watch accounting and alias detection agree when the
// watched function is entered mid-call-graph.
func TestCompiledWatchEquivalence(t *testing.T) {
	src := `
void kernel(int n, double *a, double *b) {
    for (int i = 0; i < n; i++) {
        a[i] += b[i] * 2.0;
    }
}
void main_fn(int n, double *a, double *b) {
    kernel(n, a, b);
    kernel(n, a, a);
}
`
	prog := minic.MustParse(src)
	mkArgs := func() []interp.Value {
		a := interp.NewFloatBuffer("a", minic.Double, []float64{1, 2, 3, 4})
		b := interp.NewFloatBuffer("b", minic.Double, []float64{5, 6, 7, 8})
		return []interp.Value{interp.IntVal(4), interp.BufVal(a), interp.BufVal(b)}
	}
	compiled, walked := runBoth(t, prog, "main_fn", "kernel", mkArgs)
	assertResultsEqual(t, "watch", compiled, walked)
	if pairs := compiled.Prof.AliasPairs(); len(pairs) != 1 {
		t.Errorf("alias pairs = %v, want exactly the a/b self-alias", pairs)
	}
}
