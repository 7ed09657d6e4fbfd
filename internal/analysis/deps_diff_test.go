package analysis_test

// The bundled-program half of the dependence differential (the randomized
// half and the reference itself live in deps_test.go): an external test
// package, because the flow that produces the later program stages imports
// analysis.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"psaflow/internal/analysis"
	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/tasks"
)

// stage is one program version a flow analyses on the way to a design.
type stage struct {
	name string
	prog *minic.Program
}

// stagesOf returns the benchmark's program as parsed, as extracted (the
// CPU path adds only pragmas to the extracted kernel) and at the end of
// the first GPU and FPGA paths of the uninformed flow, plus that FPGA
// design.
func stagesOf(t *testing.T, b *bench.Benchmark) (stages []stage, fpga *core.Design) {
	t.Helper()
	results, err := experiments.RunBenchmark(b, tasks.Uninformed, nil)
	if err != nil {
		t.Fatalf("%s: uninformed flow: %v", b.Name, err)
	}
	stages = []stage{{"parsed", b.Parse()}}
	names := map[platform.TargetKind]string{
		platform.TargetCPU: "extracted", platform.TargetGPU: "GPU-path", platform.TargetFPGA: "FPGA-path",
	}
	for _, r := range results {
		d := r.Design
		if name, want := names[d.Target]; want {
			delete(names, d.Target)
			stages = append(stages, stage{name, d.Prog})
			if d.Target == platform.TargetFPGA {
				fpga = d
			}
		}
	}
	if len(names) != 0 {
		t.Fatalf("%s: uninformed flow produced no design for %v", b.Name, names)
	}
	return stages, fpga
}

// bundledLoop is one loop of a bundled program at one stage.
type bundledLoop struct {
	where string // benchmark, stage and function
	loop  minic.Stmt
}

// bundledLoops returns every loop of every function of the five
// benchmarks at the four stages stagesOf generates.
func bundledLoops(t *testing.T) []bundledLoop {
	t.Helper()
	var loops []bundledLoop
	for _, b := range bench.All() {
		stages, _ := stagesOf(t, b)
		for _, st := range stages {
			for _, fn := range st.prog.Funcs {
				for _, l := range query.LoopsIn(fn) {
					loops = append(loops, bundledLoop{b.Name + " " + st.name + ": " + fn.Name, l})
				}
			}
		}
	}
	return loops
}

// splitDeps separates a result into its scalar half, sorted (the
// reference ranges over a map, so scalar order is not part of the
// contract), and its array half in the order AnalyzeLoop reported it.
func splitDeps(d *analysis.LoopDeps) (scalars []string, arrays analysis.LoopDeps) {
	arrays = analysis.LoopDeps{LoopID: d.LoopID, Var: d.Var}
	for _, c := range d.Carried {
		if c.Kind == analysis.DepScalar {
			scalars = append(scalars, "carried "+c.Name+": "+c.Detail())
		} else {
			arrays.Carried = append(arrays.Carried, c)
		}
	}
	for _, r := range d.Reductions {
		if r.Array {
			arrays.Reductions = append(arrays.Reductions, r)
		} else {
			scalars = append(scalars, "reduction "+r.Name+" "+r.Op.String())
		}
	}
	sort.Strings(scalars)
	return scalars, arrays
}

// TestAnalyzeLoopMatchesReferenceOnBundledPrograms: on every loop of the
// five benchmarks at four stages, the in-place subscript test reports the
// dependences — kinds, names, detail strings, order — of the map-based one.
func TestAnalyzeLoopMatchesReferenceOnBundledPrograms(t *testing.T) {
	loops, carried := bundledLoops(t), 0
	for _, bl := range loops {
		got, want := analysis.AnalyzeLoop(bl.loop), analysis.AnalyzeLoopRef(bl.loop)
		gotS, gotA := splitDeps(got)
		wantS, wantA := splitDeps(want)
		if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotA, wantA) {
			t.Errorf("%s loop %d:\n got %+v\nwant %+v", bl.where, bl.loop.ID(), got, want)
		}
		carried += len(gotA.Carried) + len(gotA.Reductions)
	}
	if len(loops) < 100 || carried < 20 {
		t.Errorf("differential covered %d loops with %d array dependences; the stages are not being generated", len(loops), carried)
	}
}

// TestAnalyzeLoopConcurrent: the loops of the bundled stages, analysed
// from eight goroutines at once on the pooled scratch, give exactly the
// sequential results, and those match the reference.
func TestAnalyzeLoopConcurrent(t *testing.T) {
	loops := bundledLoops(t)
	want := make([]*analysis.LoopDeps, len(loops))
	for i, bl := range loops {
		want[i] = analysis.AnalyzeLoop(bl.loop)
		gotS, gotA := splitDeps(want[i])
		refS, refA := splitDeps(analysis.AnalyzeLoopRef(bl.loop))
		if !reflect.DeepEqual(gotS, refS) || !reflect.DeepEqual(gotA, refA) {
			t.Fatalf("%s loop %d: sequential result %+v differs from the reference", bl.where, bl.loop.ID(), want[i])
		}
	}
	const workers = 8
	got := make([][]*analysis.LoopDeps, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := make([]*analysis.LoopDeps, len(loops))
			// Each worker starts at its own offset, so that different
			// loops share the pool at any moment.
			for k := range loops {
				i := (k + w*len(loops)/workers) % len(loops)
				res[i] = analysis.AnalyzeLoop(loops[i].loop)
			}
			got[w] = res
		}()
	}
	wg.Wait()
	for w, res := range got {
		for i, bl := range loops {
			if !reflect.DeepEqual(res[i], want[i]) {
				t.Errorf("worker %d: %s loop %d:\n got %+v\nwant %+v", w, bl.where, bl.loop.ID(), res[i], want[i])
			}
		}
	}
}

// renderDeps spells out every field of a result, details included, in
// fresh memory.
func renderDeps(d *analysis.LoopDeps) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %d var %q", d.LoopID, d.Var)
	for _, c := range d.Carried {
		sb.WriteString("; " + c.String())
	}
	for _, r := range d.Reductions {
		fmt.Fprintf(&sb, "; reduction %+v", r)
	}
	return sb.String()
}

// TestAnalyzeLoopResultOwnsItself: a result shares nothing with the
// pooled scratch — after every bundled loop has been analysed three more
// times, each kept result still deep-equals the copy taken when it was
// returned and renders the same text.
func TestAnalyzeLoopResultOwnsItself(t *testing.T) {
	loops := bundledLoops(t)
	kept := make([]*analysis.LoopDeps, len(loops))
	copies := make([]*analysis.LoopDeps, len(loops))
	texts := make([]string, len(loops))
	for i, bl := range loops {
		kept[i] = analysis.AnalyzeLoop(bl.loop)
		copies[i], texts[i] = kept[i].Clone(), renderDeps(kept[i])
	}
	for range 3 {
		for _, bl := range loops {
			analysis.AnalyzeLoop(bl.loop)
		}
	}
	for i, bl := range loops {
		if !reflect.DeepEqual(kept[i], copies[i]) || renderDeps(kept[i]) != texts[i] {
			t.Errorf("%s loop %d: kept result changed under later calls:\n now %s\nwas %s", bl.where, bl.loop.ID(), renderDeps(kept[i]), texts[i])
		}
	}
}

// parentKernelLoopAllocs is what AnalyzeLoop allocated on rushlarsen's
// FPGA-path kernel loop while the subscript test still built two or three
// maps per (write, access) pair.
const parentKernelLoopAllocs = 18226

// TestAnalyzeLoopAllocationBudget pins the point of the in-place test on
// the loop where the pairs are most numerous — rushlarsen's kernel loop
// once the FPGA path has unrolled its fixed inner loops: at most half the
// allocations it cost (measured: 1, the result; 22 before the walk's
// scratch was pooled and scalar details rendered when read).
func TestAnalyzeLoopAllocationBudget(t *testing.T) {
	b, err := bench.ByName("rushlarsen")
	if err != nil {
		t.Fatal(err)
	}
	_, fpga := stagesOf(t, b)
	outer := query.OutermostLoops(fpga.KernelFunc())
	if len(outer) == 0 {
		t.Fatal("rushlarsen kernel has no loop")
	}
	allocs := testing.AllocsPerRun(20, func() { analysis.AnalyzeLoop(outer[0]) })
	t.Logf("AnalyzeLoop on rushlarsen's FPGA-path kernel loop: %.0f allocations (parent %d)", allocs, parentKernelLoopAllocs)
	if allocs > parentKernelLoopAllocs/2 {
		t.Errorf("AnalyzeLoop allocates %.0f times on rushlarsen's FPGA-path kernel loop, want <= %d (half the parent's %d)",
			allocs, parentKernelLoopAllocs/2, parentKernelLoopAllocs)
	}
}
