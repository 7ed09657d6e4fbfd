//go:build !race

// The race detector instruments allocation, so the pins below hold only
// without it: tier-1 (go test ./...) runs them, go test -race skips them.

package minic_test

import (
	"runtime"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
)

// TestWalkAllocatesNothing pins the traversal that every query, analysis
// and transform sits on: walking a program — the five bundled sources and
// every transformed form, which includes nbody after hotspot extraction and
// fixed-loop materialisation, the largest AST a job builds — makes no
// allocation at all.
func TestWalkAllocatesNothing(t *testing.T) {
	progs := transformedPrograms(t)
	for _, b := range bench.All() {
		progs[b.Name] = b.Parse()
	}
	for name, prog := range progs {
		nodes := 0
		allocs := testing.AllocsPerRun(10, func() {
			nodes = 0
			minic.Walk(prog, func(minic.Node) bool { nodes++; return true })
		})
		if allocs != 0 {
			t.Errorf("%s: Walk over %d nodes makes %.0f allocations, want 0", name, nodes, allocs)
		}
	}
}

// TestParseAllocations pins what parsing costs: every job parses its
// source at submit, so Parse's allocations are part of every job's. The
// lexer allocates nothing per token, so what is left is the AST's nodes
// and lists, its string and pragma literals, and the check's seven. The bounds are the five
// programs' counts when the pin was set; Parse may allocate less, never
// more.
func TestParseAllocations(t *testing.T) {
	bound := map[string]float64{"nbody": 709, "kmeans": 559, "adpredictor": 458, "rushlarsen": 625, "bezier": 592}
	for _, b := range bench.All() {
		allocs := testing.AllocsPerRun(10, func() { _, _ = minic.Parse(b.Source) })
		if allocs > bound[b.Name] {
			t.Errorf("%s: Parse makes %.0f allocations, want at most %.0f", b.Name, allocs, bound[b.Name])
		}
	}
}

// TestParseBytes pins the bytes a Parse allocates, within 10% of the
// five programs' figures when the pin was set. A per-byte or per-token
// cost that comes back — a copy of the source, a token slice — adds tens
// of kilobytes and shows here at once; a string per identifier adds a
// few hundred allocations, which TestParseAllocations counts.
func TestParseBytes(t *testing.T) {
	want := map[string]uint64{"nbody": 41829, "kmeans": 32573, "adpredictor": 27625, "rushlarsen": 37274, "bezier": 34864}
	const n = 50
	for _, b := range bench.All() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			if _, err := minic.Parse(b.Source); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perParse := (after.TotalAlloc - before.TotalAlloc) / n
		if bound := want[b.Name] * 11 / 10; perParse > bound {
			t.Errorf("%s: Parse allocates %d bytes, want at most %d", b.Name, perParse, bound)
		}
	}
}

// TestCheckAllocations pins what minic.Check costs, which every Parse pays:
// the checker, its scope stack (one slice of name and type pairs, reused
// across blocks and functions) and the index of its visible names, and one
// flag per function — seven allocations, not one per block or name.
func TestCheckAllocations(t *testing.T) {
	for _, b := range bench.All() {
		prog := b.Parse()
		if allocs := testing.AllocsPerRun(10, func() { _ = minic.Check(prog) }); allocs > 7 {
			t.Errorf("%s: Check makes %.0f allocations, want at most 7", b.Name, allocs)
		}
	}
}

// TestPrintAllocations pins what printing costs: every design the code
// generators render prints its program, so a per-node fmt call or string
// concatenation shows here at once. Print appends into pooled scratch and
// allocates its result only (11–13 per program while it wrote a
// strings.Builder); ProgramLOC counts the same scratch and allocates
// nothing.
func TestPrintAllocations(t *testing.T) {
	for _, b := range bench.All() {
		prog := b.Parse()
		if allocs := testing.AllocsPerRun(10, func() { _ = minic.Print(prog) }); allocs > 1 {
			t.Errorf("%s: Print makes %.0f allocations, want at most 1", b.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = minic.ProgramLOC(prog) }); allocs != 0 {
			t.Errorf("%s: ProgramLOC makes %.0f allocations, want 0", b.Name, allocs)
		}
	}
}

// TestTypeOfAllocatesNothing: typing every expression of every function
// (minic.TypeOf, under a map scope) and looking up every call's intrinsic
// makes no allocation, on the five bundled programs and on every
// transformed form a flow produces, whose kernels call the single-precision
// and fast-math forms.
func TestTypeOfAllocatesNothing(t *testing.T) {
	progs := transformedPrograms(t)
	for _, b := range bench.All() {
		progs[b.Name] = b.Parse()
	}
	for name, prog := range progs {
		for _, fn := range prog.Funcs {
			scope := scopeOf(fn)
			typed, calls := 0, 0
			allocs := testing.AllocsPerRun(10, func() {
				typed, calls = 0, 0
				minic.Walk(fn, func(n minic.Node) bool {
					if e, ok := n.(minic.Expr); ok {
						if _, ok := minic.TypeOf(e, scope); ok {
							typed++
						}
					}
					if c, ok := n.(*minic.CallExpr); ok {
						if _, ok := minic.LookupIntrinsic(c.Fun); ok {
							calls++
						}
					}
					return true
				})
			})
			if allocs != 0 {
				t.Errorf("%s %s: typing %d expressions and %d intrinsic calls makes %.0f allocations, want 0",
					name, fn.Name, typed, calls, allocs)
			}
		}
	}
}

// TestCloneFuncAllocationsIndependentOfSize: a copy takes its nodes from
// one slab per node kind, so copying a function whose loop body holds one
// statement allocates exactly as often as copying one whose body holds
// sixty-four of the same statement.
func TestCloneFuncAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(stmts int) float64 {
		f := minic.MustParse("void app(int n, double *a) {\n    for (int i = 0; i < n; i++) {\n" +
			strings.Repeat("        a[i] = sqrt(a[i] * 2.0) + 1.0;\n", stmts) + "    }\n}\n").Funcs[0]
		return testing.AllocsPerRun(20, func() { _ = minic.CloneFunc(f) })
	}
	one, many := allocs(1), allocs(64)
	t.Logf("CloneFunc: %.0f allocations on one statement, %.0f on sixty-four", one, many)
	if one != many {
		t.Errorf("CloneFunc allocates %.0f times on a body of one statement and %.0f on one of sixty-four: it allocates per node",
			one, many)
	}
}
