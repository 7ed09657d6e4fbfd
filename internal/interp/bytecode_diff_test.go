package interp_test

// Two-way differential suite for the register bytecode VM: the default
// engine must be bit-for-bit equivalent to the reference oracle — the
// tree-walking evaluator — across the bundled benchmark corpus, error
// paths, and fuzzed programs. It also checks the VM never takes its
// defensive tree-walk fallback on the corpus.

import (
	"fmt"
	"reflect"
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
// a flow can hit mid-DSE: runtime faults, unresolved names, bounds
// violations, and the step budget.
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
		{"undef-fn", `int f() { return g(); }`, none, 0},
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
// error otherwise, and never a panic or a tree-walk fallback. Seeded with
// the benchmark corpus like minic's FuzzParse.
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
			switch {
			case (bcErr == nil) != (twErr == nil):
				t.Fatalf("%s: error presence differs: bytecode=%v treewalk=%v", fn.Name, bcErr, twErr)
			case bcErr != nil:
				if bcErr.Error() != twErr.Error() {
					t.Fatalf("%s: errors differ:\nbytecode: %v\ntreewalk: %v", fn.Name, bcErr, twErr)
				}
			default:
				assertResultsEqual(t, fn.Name, bcRes, twRes)
				bcBufs, twBufs := bufferArgs(bcArgs), bufferArgs(twArgs)
				for i := range bcBufs {
					if !reflect.DeepEqual(bcBufs[i].I, twBufs[i].I) ||
						!reflect.DeepEqual(bcBufs[i].F, twBufs[i].F) {
						t.Errorf("%s: buffer %d contents diverge", fn.Name, i)
					}
				}
			}
		}
	})
}
