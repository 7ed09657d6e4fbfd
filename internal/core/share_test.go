package core_test

// A fork shares its parent's functions; a writer copies what it writes
// (Design.EditFrom, Design.EditKernel, Design.EditLoop). These tests pin who holds what
// after each step, and GuardWrites checks every bundled flow keeps to it.

import (
	"context"
	"os"
	"slices"
	"sync"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
	"psaflow/internal/minic"
	"psaflow/internal/query"
	"psaflow/internal/tasks"
	"psaflow/internal/transform"
)

// frontRuns keeps the target-independent runs of the five applications
// across the tests of this file.
var frontRuns = core.NewRunCache()

// front runs the target-independent tasks on b: the design branch point A
// forks, its kernel extracted.
func front(t *testing.T, b *bench.Benchmark) *core.Design {
	t.Helper()
	f := &core.Flow{Name: "front"}
	for _, task := range tasks.TargetIndependent() {
		f.AddTask(task)
	}
	out, err := f.Run(&core.Context{Workload: bench.Workload{B: b}, Runs: frontRuns}, core.NewDesign(b.Name, b.Parse()))
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

func nbodyFront(t *testing.T) *core.Design {
	t.Helper()
	b, err := bench.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	return front(t, b)
}

// sharedWith returns the names of the functions a and b hold the same
// declaration of.
func sharedWith(a, b *core.Design) []string {
	var names []string
	for _, f := range a.Prog.Funcs {
		if slices.Contains(b.Prog.Funcs, f) {
			names = append(names, f.Name)
		}
	}
	return names
}

func funcNames(d *core.Design) []string {
	var names []string
	for _, f := range d.Prog.Funcs {
		names = append(names, f.Name)
	}
	return names
}

// others is every function name of d but its kernel's.
func others(d *core.Design) []string {
	return slices.DeleteFunc(funcNames(d), func(n string) bool { return n == d.Kernel })
}

func TestForkSharesFunctions(t *testing.T) {
	d := nbodyFront(t)
	f := d.Fork()
	if f.Prog == d.Prog {
		t.Fatal("the fork holds its parent's *Program: a slot one side replaces would change the other")
	}
	if got, want := sharedWith(f, d), funcNames(d); !slices.Equal(got, want) {
		t.Fatalf("fork shares %v, want every function %v", got, want)
	}
}

func TestEditKernelCopiesOnce(t *testing.T) {
	d := nbodyFront(t)
	orig := d.KernelFunc()
	before := minic.Print(d.Prog)
	f := d.Fork()
	k := f.EditKernel()
	if k == orig || f.KernelFunc() != k {
		t.Fatalf("EditKernel after Fork returned %p, the parent's %p; KernelFunc now %p", k, orig, f.KernelFunc())
	}
	if again := f.EditKernel(); again != k {
		t.Fatal("a second EditKernel copied the kernel again")
	}
	if got, want := sharedWith(f, d), others(d); !slices.Equal(got, want) {
		t.Fatalf("after EditKernel the fork shares %v, want every function but the kernel: %v", got, want)
	}
	if minic.Fingerprint(f.Prog) != minic.Fingerprint(d.Prog) {
		t.Fatal("the copied kernel is not the parent's: IDs or structure moved")
	}
	if err := transform.InsertLoopPragma(query.OutermostLoops(k)[0], "unroll 4"); err != nil {
		t.Fatal(err)
	}
	transform.SinglePrecisionLiterals(k)
	if d.KernelFunc() != orig || minic.Print(d.Prog) != before {
		t.Fatal("editing the fork's kernel changed the parent's")
	}
	// The parent shares too: its own edit copies.
	if pk := d.EditKernel(); pk == orig || pk == k {
		t.Fatal("the parent's EditKernel after a Fork did not copy")
	}
}

func TestForksRecopyOnNextEdit(t *testing.T) {
	d := nbodyFront(t)
	f := d.Fork()
	k := f.EditKernel()

	// A fork taken after an edit: both sides hold k until either edits.
	g := f.Fork()
	if g.KernelFunc() != k {
		t.Fatal("a fork taken after an edit does not share the edited kernel")
	}
	gk, fk := g.EditKernel(), f.EditKernel()
	if gk == k || fk == k || gk == fk {
		t.Fatalf("after the second Fork: fork's kernel %p, its parent's %p, shared %p — each must copy", gk, fk, k)
	}

	// A fork of a fork, before any edit, copies on its first.
	h := d.Fork().Fork()
	if hk := h.EditKernel(); hk == d.KernelFunc() {
		t.Fatal("a fork of a fork edits its grandparent's kernel")
	}
}

// TestEditLoopCopiesPathOnly: after a Fork, EditLoop installs a copy of the
// kernel's path down to the loop and returns the loop's copy, its body
// still shared. The parent and a sibling fork keep the kernel they held,
// and a later EditKernel copies the whole function, the path copy being
// only partly the design's.
func TestEditLoopCopiesPathOnly(t *testing.T) {
	d := nbodyFront(t)
	orig := d.KernelFunc()
	loop := query.OutermostLoops(orig)[0]
	before := minic.Print(d.Prog)
	f, g := d.Fork(), d.Fork()

	l := f.EditLoop(loop)
	k := f.KernelFunc()
	if l == loop || k == orig {
		t.Fatal("EditLoop after a Fork returned the shared loop or left the shared kernel installed")
	}
	if query.OutermostLoops(k)[0] != l {
		t.Fatal("the installed kernel does not hold the loop EditLoop returned")
	}
	if l.(*minic.ForStmt).Body != loop.(*minic.ForStmt).Body {
		t.Error("EditLoop copied the loop's body")
	}
	if got, want := sharedWith(f, d), others(d); !slices.Equal(got, want) {
		t.Errorf("after EditLoop the fork shares %v, want every function but the kernel: %v", got, want)
	}
	if err := transform.InsertLoopPragma(l, "unroll 4"); err != nil {
		t.Fatal(err)
	}
	if d.KernelFunc() != orig || minic.Print(d.Prog) != before {
		t.Fatal("writing the fork's loop changed the parent's program")
	}
	if g.KernelFunc() != orig || minic.Print(g.Prog) != before {
		t.Fatal("writing the fork's loop changed its sibling's program")
	}

	full := f.EditKernel()
	if full == k || full == orig {
		t.Fatal("EditKernel after EditLoop did not copy the kernel")
	}
	nodes := map[minic.Node]bool{}
	minic.Walk(orig, func(n minic.Node) bool { nodes[n] = true; return true })
	minic.Walk(full, func(n minic.Node) bool {
		if nodes[n] {
			t.Fatalf("EditKernel after EditLoop shares %T at %s with the parent's kernel", n, n.NodePos())
		}
		return true
	})
	if minic.Print(&minic.Program{Funcs: []*minic.FuncDecl{full}}) != minic.Print(&minic.Program{Funcs: []*minic.FuncDecl{k}}) {
		t.Error("EditKernel's copy does not hold the pragma written through EditLoop")
	}
	// The kernel is now the design's own: EditLoop writes it in place.
	fl := query.OutermostLoops(full)[0]
	if f.EditLoop(fl) != fl || f.KernelFunc() != full {
		t.Error("EditLoop on a kernel the design copied copied again")
	}
}

// TestEditFromCopiesTail: after a Fork, EditFrom copies the function it is
// given and every function after it, once, keeping every ID; the functions
// before it stay shared with the parent.
func TestEditFromCopiesTail(t *testing.T) {
	d := nbodyFront(t)
	f := d.Fork()
	k := f.EditKernel()
	i := slices.Index(funcNames(d), "nbody_step") // the host, second to last
	if i < 0 {
		t.Fatalf("nbody has no function nbody_step: %v", funcNames(d))
	}
	host := f.Prog.Funcs[i]
	h := f.EditFrom(host)
	if h == host || f.Prog.Funcs[i] != h {
		t.Fatalf("EditFrom after Fork returned %p, the parent's %p; the program holds %p", h, host, f.Prog.Funcs[i])
	}
	if got, want := sharedWith(f, d), funcNames(d)[:i]; !slices.Equal(got, want) {
		t.Fatalf("after EditFrom(%s) the fork shares %v, want the functions before it: %v", host.Name, got, want)
	}
	if f.KernelFunc() != k {
		t.Fatal("EditFrom copied the kernel EditKernel had copied already")
	}
	if minic.Fingerprint(f.Prog) != minic.Fingerprint(d.Prog) || !slices.Equal(ids(f.Prog), ids(d.Prog)) {
		t.Fatal("the copies are not the parent's functions: IDs or structure moved")
	}
	funcs := slices.Clone(f.Prog.Funcs)
	if f.EditFrom(h) != h || !slices.Equal(f.Prog.Funcs, funcs) {
		t.Fatal("a second EditFrom copied again")
	}
	if f.EditFrom(host) != nil {
		t.Fatal("EditFrom of a function the program no longer holds returned one")
	}
}

// ids lists the ID of every node under n in depth-first order.
func ids(n minic.Node) []int {
	var out []int
	minic.Walk(n, func(c minic.Node) bool {
		out = append(out, c.ID())
		return true
	})
	return out
}

func TestUnforkedDesignOwnsItsProgram(t *testing.T) {
	d := nbodyFront(t)
	prog, k := d.Prog, d.KernelFunc()
	loop := query.OutermostLoops(k)[0]
	funcs := slices.Clone(prog.Funcs)
	if d.EditLoop(loop) != loop || d.EditKernel() != k || d.EditFrom(funcs[0]) != funcs[0] ||
		d.Prog != prog || !slices.Equal(prog.Funcs, funcs) {
		t.Fatal("a design never forked copied on edit")
	}
	lit := &core.Design{Prog: prog, Kernel: d.Kernel}
	if lit.EditKernel() != k || lit.EditFrom(funcs[0]) != funcs[0] || !slices.Equal(prog.Funcs, funcs) {
		t.Fatal("a design built by literal copied on edit")
	}
}

// TestSharedFunctionsStayUnwritten: no task of a bundled flow writes a
// function without copying it first — GuardWrites checks each task as the
// first writer after a fork — and every task leaves IDs dense and a
// program minic.Check accepts. The flows:
// the built-in one informed and uninformed, with and without resource
// sharing, and paper.psa and faults.psa, each on the five applications,
// once from a parse of its own and once from one kept program per
// application started shared (core.SharedDesign, as the daemon starts a
// resubmitted program), which must print and fingerprint as parsed after
// them all; the ablation rows; one chaos seed.
func TestSharedFunctionsStayUnwritten(t *testing.T) {
	if testing.Short() {
		t.Skip("flow runs")
	}
	var mu sync.Mutex
	var failures []string
	uninstall := core.GuardWrites(func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if !slices.Contains(failures, err.Error()) {
			failures = append(failures, err.Error())
			t.Error(err)
		}
	})
	defer func() {
		n := uninstall()
		t.Logf("guard checked %d tasks", n)
		if n == 0 {
			t.Error("the guard checked no task")
		}
	}()

	runs := core.NewRunCache()
	type keptProgram struct {
		prog    *minic.Program
		printed string
		fp      uint64
	}
	kept := map[string]keptProgram{}
	for _, b := range bench.All() {
		prog := b.Parse()
		kept[b.Name] = keptProgram{prog, minic.Print(prog), minic.Fingerprint(prog)}
	}
	run := func(b *bench.Benchmark, opts tasks.FlowOptions, env experiments.JobEnv) {
		if _, err := experiments.RunBenchmarkEnv(context.Background(), b, nil, opts, env, nil, nil, runs); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		k := kept[b.Name]
		shared := core.SharedDesign(b.Name, k.prog, minic.CountLOC(k.printed))
		if _, err := experiments.RunDesignEnv(context.Background(), b, shared, opts, env, nil, nil, runs); err != nil {
			t.Errorf("%s from a shared start: %v", b.Name, err)
		}
	}
	for _, b := range bench.All() {
		for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
			for _, sharing := range []bool{false, true} {
				run(b, tasks.FlowOptions{Mode: mode, ResourceSharing: sharing}, experiments.JobEnv{})
			}
		}
	}
	for _, doc := range []string{"paper.psa", "faults.psa"} {
		src, err := os.ReadFile("../../examples/flows/" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
			opts := tasks.FlowOptions{Mode: mode}
			compiled, err := flowlang.CompileSource(string(src), opts)
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			env, err := experiments.ResolveEnv(experiments.Settings{}, compiled, experiments.Settings{})
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			for _, b := range bench.All() {
				run(b, opts, env)
			}
		}
	}
	for name, k := range kept {
		if minic.Print(k.prog) != k.printed || minic.Fingerprint(k.prog) != k.fp {
			t.Errorf("%s: the flows started shared on the kept program wrote it", name)
		}
	}
	if _, err := experiments.RunAblations(nil); err != nil {
		t.Error(err)
	}
	inj, err := faults.ParseSpec("seed=1,rate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if rep := experiments.RunChaos(tasks.Informed, inj, 1, faults.RetryPolicy{}, nil); rep.CompletionRate != 1 {
		t.Errorf("chaos seed 1 completed %.0f%% of its runs", rep.CompletionRate*100)
	}
}
