package analysis_test

// The bundled-program half of the dependence differential (the randomized
// half and the reference itself live in deps_test.go): an external test
// package, because the flow that produces the later program stages imports
// analysis.

import (
	"reflect"
	"sort"
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

// splitDeps separates a result into its scalar half, sorted (scalarDeps
// ranges over a map, so its order is not part of the contract), and its
// array half in the order AnalyzeLoop reported it.
func splitDeps(d *analysis.LoopDeps) (scalars []string, arrays analysis.LoopDeps) {
	arrays = analysis.LoopDeps{LoopID: d.LoopID, Var: d.Var}
	for _, c := range d.Carried {
		if c.Kind == analysis.DepScalar {
			scalars = append(scalars, "carried "+c.Name+": "+c.Detail)
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
	loops, carried := 0, 0
	for _, b := range bench.All() {
		stages, _ := stagesOf(t, b)
		for _, st := range stages {
			for _, fn := range st.prog.Funcs {
				for _, l := range query.LoopsIn(fn) {
					got, want := analysis.AnalyzeLoop(l), analysis.AnalyzeLoopRef(l)
					gotS, gotA := splitDeps(got)
					wantS, wantA := splitDeps(want)
					if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotA, wantA) {
						t.Errorf("%s %s: %s loop %d:\n got %+v\nwant %+v", b.Name, st.name, fn.Name, l.ID(), got, want)
					}
					loops++
					carried += len(gotA.Carried) + len(gotA.Reductions)
				}
			}
		}
	}
	if loops < 100 || carried < 20 {
		t.Errorf("differential covered %d loops with %d array dependences; the stages are not being generated", loops, carried)
	}
}

// parentKernelLoopAllocs is what AnalyzeLoop allocated on rushlarsen's
// FPGA-path kernel loop while the subscript test still built two or three
// maps per (write, access) pair.
const parentKernelLoopAllocs = 18226

// TestAnalyzeLoopAllocationBudget pins the point of the in-place test on
// the loop where the pairs are most numerous — rushlarsen's kernel loop
// once the FPGA path has unrolled its fixed inner loops: at most half the
// allocations it cost (measured: 22).
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
	if allocs > parentKernelLoopAllocs/2 {
		t.Errorf("AnalyzeLoop allocates %.0f times on rushlarsen's FPGA-path kernel loop, want <= %d (half the parent's %d)",
			allocs, parentKernelLoopAllocs/2, parentKernelLoopAllocs)
	}
}
