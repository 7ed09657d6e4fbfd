package interp_test

// Two-way differential suite for the register bytecode VM: the default
// engine must be bit-for-bit equivalent to the reference oracle — the
// tree-walking evaluator — across the bundled benchmark corpus, error
// paths, and fuzzed programs. It also checks the VM never takes its
// defensive tree-walk fallback on the corpus.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// engines enumerates the two execution paths by the Config flags that
// select them; the zero value is the default bytecode VM.
var engines = []struct {
	name string
	cfg  func(interp.Config) interp.Config
}{
	{"bytecode", func(c interp.Config) interp.Config { return c }},
	{"treewalk", func(c interp.Config) interp.Config { c.TreeWalk = true; return c }},
}

// mapCounters is a minimal interp.Counters sink for single-goroutine tests.
type mapCounters map[string]int64

func (m mapCounters) Add(name string, delta int64) { m[name] += delta }

// TestTwoWayEquivalenceBenchmarks pushes all five benchmark
// applications through both engines and asserts the entire observable
// surface — profile, output, steps, final buffer contents — matches the
// bytecode run.
func TestTwoWayEquivalenceBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog := b.Parse()
			type run struct {
				res  *interp.Result
				bufs []*interp.Buffer
			}
			runs := make(map[string]run, len(engines))
			for _, e := range engines {
				args := b.MakeArgs()
				res, err := interp.Run(prog, e.cfg(interp.Config{Entry: b.Entry, Args: args}))
				if err != nil {
					t.Fatalf("%s run: %v", e.name, err)
				}
				runs[e.name] = run{res: res, bufs: bufferArgs(args)}
			}
			ref := runs["bytecode"]
			for _, e := range engines[1:] {
				got := runs[e.name]
				assertResultsEqual(t, b.Name+"/"+e.name, ref.res, got.res)
				for i := range ref.bufs {
					if !reflect.DeepEqual(ref.bufs[i].I, got.bufs[i].I) ||
						!reflect.DeepEqual(ref.bufs[i].F, got.bufs[i].F) {
						t.Errorf("%s: buffer %s contents differ bytecode vs %s",
							b.Name, ref.bufs[i].Name, e.name)
					}
				}
			}
		})
	}
}

// TestTwoWayEquivalenceErrors asserts both engines fail with
// byte-identical error messages, positions included, on the failure modes
// a flow can hit mid-DSE: runtime faults, bounds violations, and the step
// budget. (What fails whatever the data, minic.Check rejects at parse.)
func TestTwoWayEquivalenceErrors(t *testing.T) {
	mkBuf := func() []interp.Value {
		return []interp.Value{interp.BufVal(interp.NewFloatBuffer("a", minic.Double, make([]float64, 3)))}
	}
	none := func() []interp.Value { return nil }
	cases := []struct {
		name string
		src  string
		args func() []interp.Value
		max  int64
	}{
		{"div-zero", `int f() { return 1 / 0; }`, none, 0},
		{"oob", `void f(double *a) { a[7] = 1.0; }`, mkBuf, 0},
		{"step-budget", `void f() { while (true) { } }`, none, 5000},
		{"step-budget-deep", `
int leaf(int x) { return x + 1; }
int f() { int s = 0; for (int i = 0; i < 1000000; i++) { s = leaf(s); } return s; }`, none, 5000},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog := minic.MustParse(c.src)
			errs := make(map[string]error, len(engines))
			for _, e := range engines {
				_, err := interp.Run(prog, e.cfg(interp.Config{Entry: "f", Args: c.args(), MaxSteps: c.max}))
				if err == nil {
					t.Fatalf("%s: expected an error", e.name)
				}
				errs[e.name] = err
			}
			for _, e := range engines[1:] {
				if errs["bytecode"].Error() != errs[e.name].Error() {
					t.Errorf("error messages differ:\nbytecode: %v\n%s: %v",
						errs["bytecode"], e.name, errs[e.name])
				}
			}
		})
	}
}

// TestBytecodeNoFallbackOnBenchmarks is the no-regression gate for the
// lowering: every bundled benchmark must execute on the bytecode VM
// proper — instructions dispatched, zero defensive fallbacks to the
// tree-walker. scripts/ci.sh fails the build when this trips.
func TestBytecodeNoFallbackOnBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ctrs := mapCounters{}
			if _, err := interp.Run(b.Parse(), interp.Config{
				Entry: b.Entry, Args: b.MakeArgs(), Counters: ctrs,
			}); err != nil {
				t.Fatal(err)
			}
			if n := ctrs[interp.CounterBCFallbacks]; n != 0 {
				t.Errorf("%s fell back to the tree-walker (%s=%d)",
					b.Name, interp.CounterBCFallbacks, n)
			}
			if ctrs[interp.CounterBCInstrs] == 0 {
				t.Errorf("%s dispatched no bytecode instructions (%s=0)",
					b.Name, interp.CounterBCInstrs)
			}
		})
	}
}

// assertSameOutcome requires a bytecode run to have ended as the
// tree-walker's did: the same result surface and final buffer contents,
// or the byte-identical error.
func assertSameOutcome(t *testing.T, label string, bcRes *interp.Result, bcErr error, bcArgs []interp.Value,
	twRes *interp.Result, twErr error, twArgs []interp.Value) {
	t.Helper()
	switch {
	case (bcErr == nil) != (twErr == nil):
		t.Errorf("%s: error presence differs: bytecode=%v treewalk=%v", label, bcErr, twErr)
	case bcErr != nil:
		if bcErr.Error() != twErr.Error() {
			t.Errorf("%s: errors differ:\nbytecode: %v\ntreewalk: %v", label, bcErr, twErr)
		}
	default:
		assertResultsEqual(t, label, bcRes, twRes)
		bcBufs, twBufs := bufferArgs(bcArgs), bufferArgs(twArgs)
		for i := range bcBufs {
			if !reflect.DeepEqual(bcBufs[i].I, twBufs[i].I) ||
				!sameFloats(bcBufs[i].F, twBufs[i].F) {
				t.Errorf("%s: buffer %s contents diverge", label, bcBufs[i].Name)
			}
		}
	}
}

// TestWatchBindings pins what a profile keeps of the watched calls'
// arguments: one shape per distinct buffer in first-appearance order, one
// binding per distinct parameter→buffer assignment in first-occurrence
// order with its repeat count, and no *Buffer — on both engines.
func TestWatchBindings(t *testing.T) {
	const kernel = `
void k(int n, double *a, double *b, int *c) {
    a[0] = b[0] + (double)c[0];
}
`
	x := interp.BufShape{Name: "x", Kind: minic.Double, Len: 4}
	y := interp.BufShape{Name: "y", Kind: minic.Double, Len: 6}
	idx := interp.BufShape{Name: "idx", Kind: minic.Int, Len: 2}
	cases := []struct {
		name, app string
		bufs      []interp.BufShape
		bindings  []interp.Binding
		aliases   [][2]string
	}{
		{
			name: "same arguments a thousand times",
			app:  `for (int i = 0; i < 1000; i++) { k(n, x, y, idx); }`,
			bufs: []interp.BufShape{x, y, idx},
			bindings: []interp.Binding{
				{Params: map[string]int{"a": 0, "b": 1, "c": 2}, Count: 1000},
			},
		},
		{
			name: "two argument sets alternating",
			app:  `for (int i = 0; i < 3; i++) { k(n, y, x, idx); k(n, x, y, idx); }`,
			bufs: []interp.BufShape{y, x, idx},
			bindings: []interp.Binding{
				{Params: map[string]int{"a": 0, "b": 1, "c": 2}, Count: 3},
				{Params: map[string]int{"a": 1, "b": 0, "c": 2}, Count: 3},
			},
		},
		{
			name: "two parameters on one buffer",
			app:  `k(n, x, y, idx); k(n, x, x, idx);`,
			bufs: []interp.BufShape{x, y, idx},
			bindings: []interp.Binding{
				{Params: map[string]int{"a": 0, "b": 1, "c": 2}, Count: 1},
				{Params: map[string]int{"a": 0, "b": 0, "c": 2}, Count: 1},
			},
			aliases: [][2]string{{"a", "b"}},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog := minic.MustParse(kernel + "void app(int n, double *x, double *y, int *idx) { " + c.app + " }")
			mkArgs := func() []interp.Value {
				return []interp.Value{
					interp.IntVal(4),
					interp.BufVal(interp.NewFloatBuffer("x", minic.Double, make([]float64, 4))),
					interp.BufVal(interp.NewFloatBuffer("y", minic.Double, make([]float64, 6))),
					interp.BufVal(interp.NewIntBuffer("idx", make([]int64, 2))),
				}
			}
			bcArgs, twArgs := mkArgs(), mkArgs()
			bc, bcErr := interp.Run(prog, interp.Config{Entry: "app", Args: bcArgs, Watch: "k"})
			tw, twErr := interp.Run(prog, interp.Config{Entry: "app", Args: twArgs, Watch: "k", TreeWalk: true})
			assertSameOutcome(t, c.name, bc, bcErr, bcArgs, tw, twErr, twArgs)
			if bcErr != nil {
				t.Fatalf("run: %v", bcErr)
			}
			p := bc.Prof
			if !reflect.DeepEqual(p.Bufs, c.bufs) {
				t.Errorf("Bufs = %+v, want %+v", p.Bufs, c.bufs)
			}
			if !reflect.DeepEqual(p.Bindings, c.bindings) {
				t.Errorf("Bindings = %+v, want %+v", p.Bindings, c.bindings)
			}
			if got := p.AliasPairs(); !reflect.DeepEqual(got, c.aliases) {
				t.Errorf("AliasPairs = %v, want %v", got, c.aliases)
			}
			if buf, ok := p.BoundBuf("b"); !ok || buf != c.bufs[c.bindings[0].Params["b"]] {
				t.Errorf("BoundBuf(b) = %+v %t, want the first binding's", buf, ok)
			}
			if _, ok := p.BoundBuf("n"); ok {
				t.Error("BoundBuf(n): a scalar parameter has no buffer")
			}
		})
	}
}

// fuzzArgs synthesizes deterministic arguments for fn: small buffers for
// pointer parameters, a matching small length for scalars. Returns false
// for signatures the corpus never uses (e.g. bool pointers).
func fuzzArgs(fn *minic.FuncDecl) ([]interp.Value, bool) {
	const n = 4
	args := make([]interp.Value, 0, len(fn.Params))
	for i, p := range fn.Params {
		switch {
		case p.Type.Ptr && p.Type.IsFloating():
			data := make([]float64, n)
			for j := range data {
				data[j] = float64(j+1) * 0.5
			}
			args = append(args, interp.BufVal(interp.NewFloatBuffer(fmt.Sprintf("b%d", i), p.Type.Kind, data)))
		case p.Type.Ptr && p.Type.Kind == minic.Int:
			args = append(args, interp.BufVal(interp.NewIntBuffer(fmt.Sprintf("b%d", i), []int64{3, 1, 4, 1})))
		case p.Type.Kind == minic.Int:
			args = append(args, interp.IntVal(n))
		case p.Type.Kind == minic.Float:
			args = append(args, interp.FloatVal(1.5))
		case p.Type.Kind == minic.Double:
			args = append(args, interp.DoubleVal(2.5))
		case p.Type.Kind == minic.Bool:
			args = append(args, interp.BoolVal(true))
		default:
			return nil, false
		}
	}
	return args, true
}

// FuzzBytecodeDiff is the lowering's differential fuzzer: any program the
// front end accepts must behave identically on the bytecode VM and the
// tree-walking reference — same result surface on success, byte-identical
// error otherwise, and never a panic or a tree-walk fallback — and the
// record a run publishes of its hotspot loop must be the outlined kernel's
// (loopwatch_test.go). Seeded with the benchmark corpus like minic's
// FuzzParse.
func FuzzBytecodeDiff(f *testing.F) {
	for _, b := range bench.All() {
		f.Add(b.Source)
	}
	f.Add("int f() { return 0; }")
	f.Add("int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i % 3; } return s; }")
	f.Add("double f(int n, const double *a, double *b) { double s = 0.0; for (int i = 0; i < n; i++) { b[i] = sqrt(a[i]); s += b[i]; } return s; }")
	f.Add("int f(int n) { if (n > 2) { return n * n; } return -n; }")
	f.Add("int f() { return 1 / 0; }")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minic.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			if fn.Body == nil {
				continue
			}
			bcArgs, ok := fuzzArgs(fn)
			if !ok {
				continue
			}
			twArgs, _ := fuzzArgs(fn)
			// Tight budget: fuzzed loops may spin; equivalence must hold
			// for the budget error too.
			const budget = 50_000
			ctrs := mapCounters{}
			bcRes, bcErr := interp.Run(prog, interp.Config{
				Entry: fn.Name, Args: bcArgs, MaxSteps: budget, Counters: ctrs,
			})
			twRes, twErr := interp.Run(prog, interp.Config{
				Entry: fn.Name, Args: twArgs, MaxSteps: budget, TreeWalk: true,
			})
			if ctrs[interp.CounterBCFallbacks] != 0 {
				t.Errorf("%s: lowering fell back to the tree-walker", fn.Name)
			}
			assertSameOutcome(t, fn.Name, bcRes, bcErr, bcArgs, twRes, twErr, twArgs)
			// Watch is empty, so the run watched its hotspot loop: where
			// outlining accepts that loop, the record must be what a run of
			// the outlined program that watches the kernel measures. (No
			// budget: the outlined program makes the steps of this one, which
			// stayed inside it, plus a call's worth per entry of the loop.)
			if bcErr == nil && bcRes.Prof.WatchLoop != 0 {
				args, _ := fuzzArgs(fn)
				want, err, accepted := outlinedRecord(t, src, interp.Config{Entry: fn.Name, Args: args, MaxSteps: 100 * budget}, bcRes.Prof.WatchLoop)
				if !accepted {
					continue
				}
				if got := publishedRecord(prog, bcRes.Prof); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: record of hotspot loop #%d differs from the kernel-watched run of the outlined program (error %v):\n got  %+v\n want %+v",
						fn.Name, bcRes.Prof.WatchLoop, err, got, want)
				}
			}
		}
	})
}

// consumerArgs builds fresh arguments for the generated consumer programs
// below: one buffer per element kind, so indexed operands of every kind
// generate watched traffic.
func consumerArgs() []interp.Value {
	return []interp.Value{
		interp.BufVal(interp.NewFloatBuffer("pd", minic.Double, []float64{1.5, -2.25, 3, 4.125, 5, 6.5, 7, 8, 9})),
		interp.BufVal(interp.NewFloatBuffer("pf", minic.Float, []float64{0.5, 2.5, -1.25, 3, 4, 5.75, 6, 7, 8})),
		interp.BufVal(interp.NewIntBuffer("pi", []int64{3, -1, 4, 1, 5, 9, 2, 6, 5})),
	}
}

// assertConsumerEquivalent runs src on the tree-walker and on the VM
// lowered without specialisation (the generic arm is what executes) and
// with it (the specialised arm where the shape bakes), and requires both
// VM runs to equal the tree-walker: same result surface and buffers, or
// the byte-identical error. It returns the tree-walker's error.
func assertConsumerEquivalent(t *testing.T, name, src string, maxSteps int64) error {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", name, err, src)
	}
	twArgs := consumerArgs()
	twRes, twErr := interp.Run(prog, interp.Config{Entry: "f", Args: twArgs, Watch: "f", MaxSteps: maxSteps, TreeWalk: true})
	for _, vm := range engineVariants {
		args := consumerArgs()
		res, err := interp.Run(prog, vm.cfg(interp.Config{Entry: "f", Args: args, Watch: "f", MaxSteps: maxSteps}))
		assertSameOutcome(t, name+"/"+vm.name, res, err, args, twRes, twErr, twArgs)
	}
	return twErr
}

// engineVariants are the two lowerings of the VM: generic, and
// specialised (the default).
var engineVariants = []struct {
	name string
	cfg  func(interp.Config) interp.Config
}{
	{"generic", interp.Generic},
	{"specialised", func(c interp.Config) interp.Config { return c }},
}

// TestGenericSuperinstructionConsumers covers the consumer half of the two
// superinstructions (`x op= a ⊗ b`, opBinAssignVar; `T x = a ⊗ b`,
// opBinDeclVar) and the plain declaration (`T z = a`, opDeclVar) over
// every cell kind, assignment operator, binary operator and operand
// shape. The bundled apps reach the generic opBinAssignVar arm a few
// hundred times per Fig. 5 sweep and always with the same kinds, so the
// corpus differentials alone leave most of these combinations unrun.
// The function is watched, so parameter traffic of the indexed operands is
// compared too.
func TestGenericSuperinstructionConsumers(t *testing.T) {
	const head = `(double *pd, float *pf, int *pi) {
    int vi = 7; int wi = -3; float vf = 2.5f; float wf = 0.75f; double vd = -1.75; double wd = 4.5;
`
	kinds := []struct{ typ, init string }{
		{"int", "5"}, {"float", "1.5f"}, {"double", "2.25"}, {"bool", "true"},
	}
	operands := [][2]string{
		{"vi", "3"}, {"vi", "wi"}, // int
		{"vf", "wf"}, {"0.5", "vd"}, // float, double
		{"vi", "vd"}, {"vf", "wd"}, {"wf", "2"}, // mixed
		{"pd[k]", "vd"}, {"pf[k+1]", "pf[k]"}, {"pi[k*2+1]", "vi"}, {"wi", "pf[k*2]"}, // indexed
	}
	// % takes two ints: minic.Check rejects it on any other pair.
	intPairs := map[[2]string]bool{{"vi", "3"}: true, {"vi", "wi"}: true, {"pi[k*2+1]", "vi"}: true}
	binops := []string{"+", "-", "*", "/", "%", "<"}
	assignOps := []string{"=", "+=", "-=", "*=", "/="}

	rows, failed := 0, 0
	for _, k := range kinds {
		for _, ab := range operands {
			for _, bop := range binops {
				if bop == "%" && !intPairs[ab] {
					continue
				}
				rhs := ab[0] + " " + bop + " " + ab[1]
				// Declarations: the binary superinstruction and the plain
				// single-operand form, each executed four times.
				src := k.typ + " f" + head +
					"    " + k.typ + " r = " + k.init + ";\n" +
					"    for (int k = 0; k < 4; k++) {\n" +
					"        " + k.typ + " y = " + rhs + ";\n" +
					"        " + k.typ + " z = " + ab[0] + ";\n" +
					"        printf(\"%g %g\\n\", y, z);\n" +
					"        r = y;\n" +
					"    }\n    return r;\n}\n"
				rows++
				if assertConsumerEquivalent(t, k.typ+" y = "+rhs, src, 0) != nil {
					failed++
				}
				for _, aop := range assignOps {
					// The assignment's own value is consumed too (r = x op= ...),
					// so the instruction writes a destination register.
					src := k.typ + " f" + head +
						"    " + k.typ + " x = " + k.init + ";\n" +
						"    " + k.typ + " r = " + k.init + ";\n" +
						"    for (int k = 0; k < 4; k++) {\n" +
						"        r = x " + aop + " " + rhs + ";\n" +
						"        printf(\"%g %g\\n\", x, r);\n" +
						"    }\n    return r;\n}\n"
					rows++
					if assertConsumerEquivalent(t, k.typ+" x "+aop+" "+rhs, src, 0) != nil {
						failed++
					}
				}
			}
		}
	}
	// The matrix is only a test of the consumers if most rows reach them:
	// `/=` by a false comparison is the row that errors before the store.
	if failed*2 > rows {
		t.Errorf("%d of %d generated rows ended in an error; the matrix no longer exercises the success paths", failed, rows)
	}

	// Error rows: each must fail, with the expected message, identically
	// on all three runs.
	errRows := []struct{ name, body, want string }{
		{"div-assign-by-zero", `int x = 3; x /= vi - 7; return x;`, "division by zero in /="},
		{"int-div-by-zero-decl", `int x = vi / 0; return x;`, "integer division by zero"},
		{"oob-operand", `double x = 0.0; x += pd[vi + 2] * vd; return x;`, "index 9 out of range [0,9) for pd"},
	}
	for _, r := range errRows {
		err := assertConsumerEquivalent(t, r.name, "double f"+head+"    "+r.body+"\n}\n", 0)
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: error %v, want one containing %q", r.name, err, r.want)
		}
	}
	// A pointer declared from a pointer succeeds and stays usable.
	if err := assertConsumerEquivalent(t, "declare-pointer-from-pointer",
		"double f"+head+"    double *q = pd; double x = q[1] + vi; return x;\n}\n", 0); err != nil {
		t.Errorf("declare-pointer-from-pointer: %v", err)
	}

	// Step budget: sweep every budget up to the program's step total, so
	// the crossing lands on every sub-step of both superinstructions (and
	// of the plain declaration), indexed operands included.
	budgetSrc := "double f" + head +
		"    double x = 0.0;\n" +
		"    for (int k = 0; k < 3; k++) {\n" +
		"        x += pd[k*2+1] * vd;\n" +
		"        float y = pf[k] - wf;\n" +
		"        int z = pi[k+1];\n" +
		"        x = y * z;\n" +
		"    }\n    return x;\n}\n"
	full, err := interp.Run(minic.MustParse(budgetSrc), interp.Config{Entry: "f", Args: consumerArgs(), TreeWalk: true})
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget <= full.Steps; budget++ {
		err := assertConsumerEquivalent(t, fmt.Sprintf("budget=%d", budget), budgetSrc, budget)
		if (err == nil) != (budget == full.Steps) {
			t.Errorf("budget %d of %d steps: error %v", budget, full.Steps, err)
		}
	}
}
