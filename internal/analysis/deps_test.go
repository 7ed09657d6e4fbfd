package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"psaflow/internal/minic"
	"psaflow/internal/query"
)

// loopOf parses src and returns the first outermost loop of function f.
func loopOf(t *testing.T, src string) minic.Stmt {
	t.Helper()
	prog := minic.MustParse(src)
	loops := query.OutermostLoops(prog.Funcs[0])
	if len(loops) == 0 {
		t.Fatal("no loops in source")
	}
	return loops[0]
}

func TestParallelElementwise(t *testing.T) {
	loop := loopOf(t, `void f(int n, double *a, const double *b) {
        for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0; }
    }`)
	d := AnalyzeLoop(loop)
	if !d.Parallel() {
		t.Fatalf("elementwise loop should be parallel: %+v", d)
	}
	if d.Var != "i" {
		t.Errorf("var = %q", d.Var)
	}
}

func TestParallelWithStride(t *testing.T) {
	loop := loopOf(t, `void f(int n, int m, double *a, const double *b) {
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < m; j++) {
                a[i * m + j] = b[i * m + j] + 1.0;
            }
        }
    }`)
	d := AnalyzeLoop(loop)
	if !d.Parallel() {
		t.Fatalf("outer loop of 2D elementwise should be parallel: %+v", d)
	}
}

func TestScalarReduction(t *testing.T) {
	loop := loopOf(t, `double f(int n, const double *a) {
        double s = 0.0;
        for (int i = 0; i < n; i++) { s += a[i]; }
        return s;
    }`)
	d := AnalyzeLoop(loop)
	if d.Parallel() {
		t.Fatal("reduction loop must not be fully parallel")
	}
	if !d.ParallelWithReduction() {
		t.Fatalf("should be reduction-parallel: %+v", d.Carried)
	}
	if len(d.Reductions) != 1 || d.Reductions[0].Name != "s" || d.Reductions[0].Array {
		t.Fatalf("reductions = %+v", d.Reductions)
	}
}

func TestScalarCarriedWhenReadElsewhere(t *testing.T) {
	loop := loopOf(t, `void f(int n, double *a) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            s += a[i];
            a[i] = s;
        }
    }`)
	d := AnalyzeLoop(loop)
	if d.ParallelWithReduction() {
		t.Fatalf("prefix-sum must be carried: %+v", d)
	}
	found := false
	for _, c := range d.Carried {
		if c.Kind == DepScalar && c.Name == "s" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected scalar dep on s: %+v", d.Carried)
	}
}

func TestLocalScalarNotCarried(t *testing.T) {
	loop := loopOf(t, `void f(int n, int m, const double *b, double *out) {
        for (int i = 0; i < n; i++) {
            double acc = 0.0;
            for (int j = 0; j < m; j++) { acc += b[j]; }
            out[i] = acc;
        }
    }`)
	d := AnalyzeLoop(loop)
	if !d.Parallel() {
		t.Fatalf("loop-local accumulator must not carry across outer iterations: %+v", d)
	}
}

func TestArrayFlowDepShiftedRead(t *testing.T) {
	loop := loopOf(t, `void f(int n, double *a) {
        for (int i = 1; i < n; i++) { a[i] = a[i - 1] * 0.5; }
    }`)
	d := AnalyzeLoop(loop)
	if d.ParallelWithReduction() {
		t.Fatalf("recurrence must be carried: %+v", d)
	}
}

func TestArrayOutputDepInvariantWrite(t *testing.T) {
	loop := loopOf(t, `void f(int n, double *a, const double *b) {
        for (int i = 0; i < n; i++) { a[0] = b[i]; }
    }`)
	d := AnalyzeLoop(loop)
	if len(d.Carried) == 0 {
		t.Fatalf("invariant write target must be carried: %+v", d)
	}
	if d.Carried[0].Kind != DepArrayOutput {
		t.Errorf("kind = %v, want array-output", d.Carried[0].Kind)
	}
}

func TestArrayReduction(t *testing.T) {
	loop := loopOf(t, `void f(int n, const int *label, double *hist, const double *w) {
        for (int i = 0; i < n; i++) { hist[label[i]] += w[i]; }
    }`)
	d := AnalyzeLoop(loop)
	if d.Parallel() {
		t.Fatal("histogram must not be fully parallel")
	}
	if !d.ParallelWithReduction() {
		t.Fatalf("histogram should be reduction-only: %+v", d.Carried)
	}
	if len(d.Reductions) != 1 || !d.Reductions[0].Array || d.Reductions[0].Name != "hist" {
		t.Fatalf("reductions = %+v", d.Reductions)
	}
}

func TestNonAffineSubscriptConservative(t *testing.T) {
	loop := loopOf(t, `void f(int n, int m, double *a) {
        for (int i = 0; i < n; i++) { a[i % m] = 1.0; }
    }`)
	d := AnalyzeLoop(loop)
	if d.Parallel() {
		t.Fatalf("non-affine write subscript must be conservative: %+v", d)
	}
}

func TestSymbolicStrideWriteParallel(t *testing.T) {
	// a[i*m] with symbolic stride m: parallel under the delinearization
	// assumption (distinct i touch distinct rows).
	loop := loopOf(t, `void f(int n, int m, double *a) {
        for (int i = 0; i < n; i++) { a[i * m] = 1.0; }
    }`)
	d := AnalyzeLoop(loop)
	if !d.Parallel() {
		t.Fatalf("symbolic stride write should be parallel: %+v", d)
	}
}

func TestReadOnlyArraysIgnored(t *testing.T) {
	loop := loopOf(t, `void f(int n, double *out, const double *table) {
        for (int i = 0; i < n; i++) { out[i] = table[0] + table[i] + table[n - i - 1]; }
    }`)
	d := AnalyzeLoop(loop)
	if !d.Parallel() {
		t.Fatalf("read-only gather must be parallel: %+v", d)
	}
}

func TestWhileLoopUnknown(t *testing.T) {
	loop := loopOf(t, `void f(int n) { while (n > 0) { n--; } }`)
	d := AnalyzeLoop(loop)
	if d.ParallelWithReduction() {
		t.Fatal("while loops must be conservatively carried")
	}
	if d.Carried[0].Kind != DepUnknown {
		t.Errorf("kind = %v", d.Carried[0].Kind)
	}
}

func TestInnerSequentialOuterParallel(t *testing.T) {
	// AdPredictor-like shape: outer parallel, inner fixed loop carries a
	// scalar dependence through a multiplicative accumulation.
	src := `void f(int n, const double *w, double *out) {
        for (int i = 0; i < n; i++) {
            double p = 1.0;
            for (int j = 0; j < 12; j++) {
                p = p * w[i * 12 + j] + 0.5;
            }
            out[i] = p;
        }
    }`
	prog := minic.MustParse(src)
	outer := query.OutermostLoops(prog.Funcs[0])[0]
	inner := query.InnerLoops(outer)[0]
	dOuter := AnalyzeLoop(outer)
	if !dOuter.Parallel() {
		t.Fatalf("outer must be parallel: %+v", dOuter)
	}
	dInner := AnalyzeLoop(inner)
	if dInner.ParallelWithReduction() {
		t.Fatalf("inner p = p*w + c must be carried (not a recognized reduction): %+v", dInner)
	}
}

func TestAnalyzeUnrollability(t *testing.T) {
	src := `void f(int n, int m, const double *w, double *out) {
        for (int i = 0; i < n; i++) {
            double p = 1.0;
            for (int j = 0; j < 12; j++) { p = p * w[j] + 0.5; }
            out[i] = p;
        }
    }`
	prog := minic.MustParse(src)
	outer := query.OutermostLoops(prog.Funcs[0])[0]
	u := AnalyzeUnrollability(outer, 64)
	if u.InnerLoopCount != 1 || u.InnerWithDeps != 1 {
		t.Fatalf("unrollability = %+v", u)
	}
	if !u.AllDepsFixed || u.MaxFixedTrip != 12 {
		t.Fatalf("inner fixed-12 dep loop should be fully unrollable: %+v", u)
	}
	// Same shape but runtime-bounded inner loop: not fully unrollable.
	src2 := `void f(int n, int m, const double *w, double *out) {
        for (int i = 0; i < n; i++) {
            double p = 1.0;
            for (int j = 0; j < m; j++) { p = p * w[j] + 0.5; }
            out[i] = p;
        }
    }`
	prog2 := minic.MustParse(src2)
	outer2 := query.OutermostLoops(prog2.Funcs[0])[0]
	u2 := AnalyzeUnrollability(outer2, 64)
	if u2.AllDepsFixed {
		t.Fatalf("runtime-bounded dep loop must not be fully unrollable: %+v", u2)
	}
	// Fixed bound above the limit: also not fully unrollable.
	src3 := `void f(int n, const double *w, double *out) {
        for (int i = 0; i < n; i++) {
            double p = 1.0;
            for (int j = 0; j < 500; j++) { p = p * w[j] + 0.5; }
            out[i] = p;
        }
    }`
	prog3 := minic.MustParse(src3)
	outer3 := query.OutermostLoops(prog3.Funcs[0])[0]
	if u3 := AnalyzeUnrollability(outer3, 64); u3.AllDepsFixed {
		t.Fatalf("500-trip dep loop above limit 64 must not be fully unrollable: %+v", u3)
	}
}

func TestLoopDepsClone(t *testing.T) {
	var nilDeps *LoopDeps
	if nilDeps.Clone() != nil {
		t.Error("nil clone must stay nil")
	}
	d := &LoopDeps{
		LoopID:     3,
		Var:        "i",
		Carried:    []Dependence{{Kind: DepScalar, Name: "s", detail: "x"}},
		Reductions: []Reduction{{Name: "acc"}},
	}
	c := d.Clone()
	c.Carried[0].Name = "mutated"
	c.Reductions[0].Name = "mutated"
	c.Carried = append(c.Carried, Dependence{Kind: DepUnknown})
	if d.Carried[0].Name != "s" || d.Reductions[0].Name != "acc" || len(d.Carried) != 1 {
		t.Errorf("clone shares slices with original: %+v", d)
	}
}

// ---- reference dependence analysis --------------------------------------
//
// The analysis as it was before affine forms became sorted term slices and
// a loop body was walked once: map-based forms (refAffine), four walks of
// the body (declarations, two for scalar uses, one for array accesses), a
// map grouping accesses by array, and a pairwise subscript test that
// builds the v-variant and v-invariant sub-forms of every (write, access)
// pair as fresh maps and splits every term into its factors. It shares no
// code with the production analysis beyond the result types and
// query.LoopVar, so the differential tests here and in deps_diff_test.go
// can catch a bug in any part of it.

// refAffine is the map-based multilinear form: c0 + Σ Coeff[t]·t.
type refAffine struct {
	Const int64
	Coeff map[string]int64
	OK    bool
}

func refAffineOf(e minic.Expr) refAffine {
	switch v := e.(type) {
	case *minic.IntLit:
		return refAffine{Const: v.Val, Coeff: map[string]int64{}, OK: true}
	case *minic.Ident:
		return refAffine{Coeff: map[string]int64{v.Name: 1}, OK: true}
	case *minic.UnaryExpr:
		if v.Op != minic.TokMinus {
			return refAffine{}
		}
		a := refAffineOf(v.X)
		if !a.OK {
			return refAffine{}
		}
		return a.scaleConst(-1)
	case *minic.BinaryExpr:
		l := refAffineOf(v.L)
		r := refAffineOf(v.R)
		if !l.OK || !r.OK {
			return refAffine{}
		}
		switch v.Op {
		case minic.TokPlus:
			return l.add(r, 1)
		case minic.TokMinus:
			return l.add(r, -1)
		case minic.TokStar:
			return l.mul(r)
		}
		return refAffine{}
	case *minic.CastExpr:
		return refAffineOf(v.X)
	}
	return refAffine{}
}

func (a refAffine) add(b refAffine, sign int64) refAffine {
	out := refAffine{Const: a.Const + sign*b.Const, Coeff: map[string]int64{}, OK: true}
	for k, v := range a.Coeff {
		out.Coeff[k] += v
	}
	for k, v := range b.Coeff {
		out.Coeff[k] += sign * v
	}
	out.normalize()
	return out
}

func (a refAffine) scaleConst(c int64) refAffine {
	out := refAffine{Const: a.Const * c, Coeff: map[string]int64{}, OK: true}
	for k, v := range a.Coeff {
		out.Coeff[k] = v * c
	}
	out.normalize()
	return out
}

func (a refAffine) mul(b refAffine) refAffine {
	out := refAffine{Const: a.Const * b.Const, Coeff: map[string]int64{}, OK: true}
	for k, v := range a.Coeff {
		out.Coeff[k] += v * b.Const
	}
	for k, v := range b.Coeff {
		out.Coeff[k] += v * a.Const
	}
	for ka, va := range a.Coeff {
		for kb, vb := range b.Coeff {
			fs := append(strings.Split(ka, "*"), strings.Split(kb, "*")...)
			sort.Strings(fs)
			out.Coeff[strings.Join(fs, "*")] += va * vb
		}
	}
	out.normalize()
	return out
}

func (a *refAffine) normalize() {
	for k, v := range a.Coeff {
		if v == 0 {
			delete(a.Coeff, k)
		}
	}
}

func (a refAffine) String() string {
	if !a.OK {
		return "<non-affine>"
	}
	var terms []string
	keys := make([]string, 0, len(a.Coeff))
	for k := range a.Coeff {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := a.Coeff[k]
		switch c {
		case 1:
			terms = append(terms, k)
		case -1:
			terms = append(terms, "-"+k)
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", c, k))
		}
	}
	if a.Const != 0 || len(terms) == 0 {
		terms = append(terms, fmt.Sprintf("%d", a.Const))
	}
	return strings.Join(terms, " + ")
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func termHasVarRef(term, v string) bool {
	for _, f := range strings.Split(term, "*") {
		if f == v {
			return true
		}
	}
	return false
}

// varPartRef is the sub-form of terms containing v; invPartRef the rest,
// with the constant under key "".
func varPartRef(a refAffine, v string) map[string]int64 {
	out := map[string]int64{}
	for k, c := range a.Coeff {
		if termHasVarRef(k, v) {
			out[k] = c
		}
	}
	return out
}

func invPartRef(a refAffine, v string) map[string]int64 {
	out := map[string]int64{"": a.Const}
	for k, c := range a.Coeff {
		if !termHasVarRef(k, v) {
			out[k] = c
		}
	}
	return out
}

func dependsOnRef(a refAffine, v string) bool {
	for k := range a.Coeff {
		if termHasVarRef(k, v) {
			return true
		}
	}
	return false
}

func pureCoeffRef(varPart map[string]int64, v string) (int64, bool) {
	if len(varPart) != 1 {
		return 0, false
	}
	c, ok := varPart[v]
	if !ok || c == 0 {
		return 0, false
	}
	return c, true
}

func invDiffersOnlyInConstRef(a, b refAffine, v string) bool {
	ai := invPartRef(a, v)
	bi := invPartRef(b, v)
	delete(ai, "")
	delete(bi, "")
	return mapsEqual(ai, bi)
}

// refAccess is one array access with its map-based subscript.
type refAccess struct {
	array string
	sub   refAffine
	write bool
	comp  bool
}

func classifyArrayRef(accs []refAccess, v string) *Dependence {
	for i := range accs {
		if !accs[i].sub.OK {
			return &Dependence{Kind: DepUnknown, detail: "non-affine subscript"}
		}
	}
	for i := range accs {
		if !accs[i].write {
			continue
		}
		w := accs[i]
		if !dependsOnRef(w.sub, v) {
			return &Dependence{Kind: DepArrayOutput,
				detail: fmt.Sprintf("write subscript %s invariant in %s", w.sub, v)}
		}
		wVar := varPartRef(w.sub, v)
		for j := range accs {
			if i == j {
				continue
			}
			a := accs[j]
			kind := DepArrayFlow
			if a.write {
				kind = DepArrayOutput
			}
			if !mapsEqual(wVar, varPartRef(a.sub, v)) {
				return &Dependence{Kind: kind,
					detail: fmt.Sprintf("subscripts %s and %s differ in their %s terms", w.sub, a.sub, v)}
			}
			if !mapsEqual(invPartRef(w.sub, v), invPartRef(a.sub, v)) {
				if c, ok := pureCoeffRef(wVar, v); ok && invDiffersOnlyInConstRef(w.sub, a.sub, v) {
					delta := w.sub.Const - a.sub.Const
					if delta%c != 0 {
						continue
					}
				}
				return &Dependence{Kind: kind,
					detail: fmt.Sprintf("subscripts %s and %s conflict across iterations", w.sub, a.sub)}
			}
		}
	}
	return nil
}

func declaredInRef(loop *minic.ForStmt) map[string]bool {
	out := map[string]bool{}
	minic.Walk(loop.Body, func(n minic.Node) bool {
		if ds, ok := n.(*minic.DeclStmt); ok {
			out[ds.Name] = true
		}
		return true
	})
	return out
}

// scalarDepsRef counts every Ident as a read in one walk and takes the
// assignment targets back out in a second.
func scalarDepsRef(loop *minic.ForStmt, v string, declared map[string]bool, d *LoopDeps) {
	type scalarUse struct {
		compoundWrites int
		plainWrites    int
		otherReads     int
		op             minic.TokKind
	}
	uses := map[string]*scalarUse{}
	get := func(name string) *scalarUse {
		u, ok := uses[name]
		if !ok {
			u = &scalarUse{}
			uses[name] = u
		}
		return u
	}
	minic.Walk(loop.Body, func(n minic.Node) bool {
		switch e := n.(type) {
		case *minic.AssignExpr:
			if id, ok := e.LHS.(*minic.Ident); ok {
				u := get(id.Name)
				switch e.Op {
				case minic.TokPlusEq, minic.TokMinusEq, minic.TokStarEq:
					u.compoundWrites++
					u.op = e.Op
				default:
					u.plainWrites++
				}
			}
		case *minic.IncDecExpr:
			if id, ok := e.X.(*minic.Ident); ok {
				u := get(id.Name)
				u.compoundWrites++
				u.op = minic.TokPlusEq
			}
		case *minic.Ident:
			get(e.Name).otherReads++
		}
		return true
	})
	minic.Walk(loop.Body, func(n minic.Node) bool {
		if e, ok := n.(*minic.AssignExpr); ok {
			if id, ok := e.LHS.(*minic.Ident); ok {
				get(id.Name).otherReads--
			}
		}
		if e, ok := n.(*minic.IncDecExpr); ok {
			if id, ok := e.X.(*minic.Ident); ok {
				get(id.Name).otherReads--
			}
		}
		return true
	})
	for name, u := range uses {
		if name == v || declared[name] {
			continue
		}
		if u.compoundWrites == 0 && u.plainWrites == 0 {
			continue
		}
		if u.plainWrites == 0 && u.otherReads <= 0 {
			d.Reductions = append(d.Reductions, Reduction{Name: name, Op: u.op})
			continue
		}
		d.Carried = append(d.Carried, Dependence{
			Kind: DepScalar, Name: name,
			detail: fmt.Sprintf("scalar %q written in loop body and visible outside", name),
		})
	}
}

func collectAccessesRef(root minic.Node) []refAccess {
	var out []refAccess
	record := func(e minic.Expr, write, comp bool) {
		ix, ok := e.(*minic.IndexExpr)
		if !ok {
			return
		}
		base, ok := ix.Base.(*minic.Ident)
		if !ok {
			return
		}
		out = append(out, refAccess{array: base.Name, sub: refAffineOf(ix.Index), write: write, comp: comp})
	}
	minic.Walk(root, func(n minic.Node) bool {
		switch e := n.(type) {
		case *minic.AssignExpr:
			comp := e.Op != minic.TokAssign
			record(e.LHS, true, comp)
			if comp {
				record(e.LHS, false, comp)
			}
		case *minic.IncDecExpr:
			record(e.X, true, true)
			record(e.X, false, true)
		case *minic.IndexExpr:
			if base, ok := e.Base.(*minic.Ident); ok {
				out = append(out, refAccess{array: base.Name, sub: refAffineOf(e.Index)})
			}
		}
		return true
	})
	return out
}

func arrayDepsRef(loop *minic.ForStmt, v string, d *LoopDeps) {
	byArray := map[string][]refAccess{}
	for _, a := range collectAccessesRef(loop.Body) {
		byArray[a.array] = append(byArray[a.array], a)
	}
	arrays := make([]string, 0, len(byArray))
	for name := range byArray {
		arrays = append(arrays, name)
	}
	sort.Strings(arrays)
	for _, name := range arrays {
		accs := byArray[name]
		hasWrite, allCompound := false, true
		for _, a := range accs {
			if a.write {
				hasWrite = true
				if !a.comp {
					allCompound = false
				}
			}
		}
		if !hasWrite {
			continue
		}
		dep := classifyArrayRef(accs, v)
		if dep == nil {
			continue
		}
		if allCompound {
			d.Reductions = append(d.Reductions, Reduction{Name: name, Array: true, Op: minic.TokPlusEq})
			continue
		}
		dep.Name = name
		d.Carried = append(d.Carried, *dep)
	}
}

// AnalyzeLoopRef is the reference analysis of one loop (exported for the
// bundled-program differential in deps_diff_test.go).
func AnalyzeLoopRef(loop minic.Stmt) *LoopDeps {
	fs, ok := loop.(*minic.ForStmt)
	if !ok {
		return &LoopDeps{LoopID: loop.ID(), Carried: []Dependence{{Kind: DepUnknown, detail: "while loop"}}}
	}
	v := query.LoopVar(fs)
	d := &LoopDeps{LoopID: fs.ID(), Var: v}
	if v == "" {
		d.Carried = append(d.Carried, Dependence{Kind: DepUnknown, detail: "unrecognized loop shape"})
		return d
	}
	scalarDepsRef(fs, v, declaredInRef(fs), d)
	arrayDepsRef(fs, v, d)
	return d
}

// randSubscript renders a random multilinear subscript over i, ii, j, m:
// products such as i*m, negative coefficients, zero coefficients and
// terms that cancel (2*i + (-2)*i), and names that prefix each other.
func randSubscript(r *rand.Rand) string {
	vars := []string{"i", "ii", "j", "m"}
	var terms []string
	for n := 1 + r.Intn(4); n > 0; n-- {
		c := r.Intn(7) - 3
		switch r.Intn(4) {
		case 0:
			terms = append(terms, fmt.Sprintf("(%d)", c))
		case 1:
			terms = append(terms, fmt.Sprintf("(%d)*%s*%s", c, vars[r.Intn(4)], vars[r.Intn(4)]))
		default:
			terms = append(terms, fmt.Sprintf("(%d)*%s", c, vars[r.Intn(4)]))
		}
		if r.Intn(8) == 0 { // cancel the term just added
			terms = append(terms, "(-1)*"+terms[len(terms)-1])
		}
	}
	return strings.Join(terms, " + ")
}

// TestClassifyArrayMatchesReferenceRandom drives both subscript tests over
// randomized access groups: related subscripts (a shared base shifted by a
// constant or one extra term, so the equal-variant-part arms are reached),
// unrelated ones, and the occasional non-affine form.
func TestClassifyArrayMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	outcomes := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		base := randSubscript(r)
		accs := make([]access, 2+r.Intn(3))
		refs := make([]refAccess, len(accs))
		var srcs []string
		for k := range accs {
			src := base
			switch r.Intn(8) {
			case 0, 1, 2:
				src = fmt.Sprintf("%s + (%d)", base, r.Intn(9)-4)
			case 3:
				src = base + " + " + randSubscript(r)
			case 4:
				src = randSubscript(r)
			case 5:
				if r.Intn(10) == 0 {
					src = base + " % 3"
				}
			}
			srcs = append(srcs, src)
			e, write := exprOf(t, src), k == 0 || r.Intn(3) == 0
			accs[k] = access{array: "a", sub: AffineOf(e), write: write}
			refs[k] = refAccess{array: "a", sub: refAffineOf(e), write: write}
		}
		v := []string{"i", "ii", "j"}[r.Intn(3)]
		got, want := classifyArray(accs, v), classifyArrayRef(refs, v)
		switch {
		case got == nil && want == nil:
			outcomes["independent"]++
			for _, a := range accs[1:] {
				if !accs[0].sub.EqualModulo(a.sub, v) {
					outcomes["independent by the GCD test"]++
					break
				}
			}
		case got == nil || want == nil || *got != *want:
			t.Fatalf("loop var %s, subscripts %q:\n got %+v\nwant %+v", v, srcs, got, want)
		default:
			outcomes[strings.Fields(got.Detail())[0]+"/"+got.Kind.String()]++
		}
	}
	// Every arm of the test must have been reached, or the agreement above
	// says little.
	for _, arm := range []string{"independent", "independent by the GCD test", "write/array-output", "subscripts/array-flow", "subscripts/array-output", "non-affine/unknown"} {
		if outcomes[arm] < 20 {
			t.Errorf("only %d random cases ended in %q: %v", outcomes[arm], arm, outcomes)
		}
	}
}
