package analysis

import (
	"fmt"

	"psaflow/internal/minic"
	"psaflow/internal/query"
)

// DepKind classifies a loop-carried dependence.
type DepKind int

// Dependence kinds.
const (
	DepScalar      DepKind = iota // scalar written and read across iterations
	DepArrayFlow                  // array read/write conflict across iterations
	DepArrayOutput                // array write/write conflict across iterations
	DepUnknown                    // non-affine or otherwise unanalyzable access
)

// String names the dependence kind.
func (k DepKind) String() string {
	switch k {
	case DepScalar:
		return "scalar"
	case DepArrayFlow:
		return "array-flow"
	case DepArrayOutput:
		return "array-output"
	case DepUnknown:
		return "unknown"
	}
	return fmt.Sprintf("DepKind(%d)", int(k))
}

// Dependence is one loop-carried dependence.
type Dependence struct {
	Kind   DepKind
	Name   string // variable or array involved
	Detail string
}

// Reduction is a recognized reduction pattern: every write to Name inside
// the loop is a compound update (+=, -=, *=) and Name is not otherwise
// read. Reductions are carried dependences, but parallelizable with an
// OpenMP reduction clause or a post-extraction rewrite (the paper's
// "Remove Array += Dependency" task).
type Reduction struct {
	Name  string
	Array bool
	Op    minic.TokKind
}

// LoopDeps is the dependence analysis result for one loop.
type LoopDeps struct {
	LoopID     int
	Var        string // induction variable ("" when unrecognized)
	Carried    []Dependence
	Reductions []Reduction
}

// Clone returns an independent deep copy: forked designs must not share
// the dependence/reduction slices with the original (parallel branch
// paths would otherwise race on the backing arrays).
func (d *LoopDeps) Clone() *LoopDeps {
	if d == nil {
		return nil
	}
	nd := *d
	nd.Carried = append([]Dependence(nil), d.Carried...)
	nd.Reductions = append([]Reduction(nil), d.Reductions...)
	return &nd
}

// Parallel reports whether the loop has no carried dependences at all.
func (d *LoopDeps) Parallel() bool {
	return len(d.Carried) == 0 && len(d.Reductions) == 0
}

// ParallelWithReduction reports whether the only carried dependences are
// recognized reductions.
func (d *LoopDeps) ParallelWithReduction() bool {
	return len(d.Carried) == 0
}

// access is one array access with its affine subscript.
type access struct {
	array string
	sub   Affine
	write bool
	comp  bool // compound update (+=, etc.)
}

// AnalyzeLoop performs static dependence analysis of one for loop.
// While loops are reported with a single unknown dependence (their
// iteration structure is not analyzable here).
func AnalyzeLoop(loop minic.Stmt) *LoopDeps {
	fs, ok := loop.(*minic.ForStmt)
	if !ok {
		return &LoopDeps{
			LoopID:  loop.ID(),
			Carried: []Dependence{{Kind: DepUnknown, Detail: "while loop"}},
		}
	}
	v := query.LoopVar(fs)
	d := &LoopDeps{LoopID: fs.ID(), Var: v}
	if v == "" {
		d.Carried = append(d.Carried, Dependence{Kind: DepUnknown, Detail: "unrecognized loop shape"})
		return d
	}

	declared := declaredIn(fs)
	scalarDeps(fs, v, declared, d)
	arrayDeps(fs, v, d, classifyArray)
	return d
}

// declaredIn collects names declared inside the loop (body declarations
// and nested for-inits). Accesses to these cannot carry across iterations
// of the analyzed loop.
func declaredIn(loop *minic.ForStmt) map[string]bool {
	out := map[string]bool{}
	minic.Walk(loop.Body, func(n minic.Node) bool {
		if ds, ok := n.(*minic.DeclStmt); ok {
			out[ds.Name] = true
		}
		return true
	})
	// Inner for-inits inside the body are found by the walk above; the
	// analyzed loop's own induction variable is handled separately.
	return out
}

// scalarDeps finds carried scalar dependences and scalar reductions.
func scalarDeps(loop *minic.ForStmt, v string, declared map[string]bool, d *LoopDeps) {
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

	// Inner-loop induction variables: a nested canonical for re-assigns
	// its variable each outer iteration; exclude them when declared in
	// their init (covered by declaredIn) — for `for (i = ...)` style inner
	// loops the variable is genuinely carried, so no special case here.

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
			// Reads: every Ident that is not the direct LHS of an assign.
			// Walk visits LHS idents too; correct for them afterwards.
			get(e.Name).otherReads++
		}
		return true
	})
	// Each compound/plain write visited its LHS Ident once as a "read";
	// subtract those spurious counts.
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
			continue // read-only
		}
		if u.plainWrites == 0 && u.otherReads <= 0 {
			d.Reductions = append(d.Reductions, Reduction{Name: name, Op: u.op})
			continue
		}
		// A scalar that is plainly written before being read each
		// iteration would be privatizable; detecting that requires flow
		// analysis, so be conservative.
		d.Carried = append(d.Carried, Dependence{
			Kind: DepScalar, Name: name,
			Detail: fmt.Sprintf("scalar %q written in loop body and visible outside", name),
		})
	}
}

// arrayDeps finds carried array dependences and array reductions. classify
// is classifyArray; the differential test passes its map-based reference.
func arrayDeps(loop *minic.ForStmt, v string, d *LoopDeps, classify func([]access, string) *Dependence) {
	accesses := collectAccesses(loop.Body)
	byArray := map[string][]access{}
	for _, a := range accesses {
		byArray[a.array] = append(byArray[a.array], a)
	}
	arrays := make([]string, 0, len(byArray))
	for name := range byArray {
		arrays = append(arrays, name)
	}
	sortStrings(arrays)

	for _, name := range arrays {
		accs := byArray[name]
		hasWrite := false
		for _, a := range accs {
			if a.write {
				hasWrite = true
			}
		}
		if !hasWrite {
			continue // read-only arrays carry nothing
		}

		// Array reduction: every write is compound, and every subscript of
		// the array is invariant in v (e.g. hist[c] += 1) or identical.
		allCompound := true
		for _, a := range accs {
			if a.write && !a.comp {
				allCompound = false
			}
		}
		dep := classify(accs, v)
		if dep == nil {
			continue // provably independent across iterations
		}
		if allCompound {
			// Histogram-style updates (hist[label[i]] += w) are reductions
			// even when the subscript is data-dependent: commutative
			// updates to arbitrary elements.
			d.Reductions = append(d.Reductions, Reduction{Name: name, Array: true, Op: minic.TokPlusEq})
			continue
		}
		dep.Name = name
		d.Carried = append(d.Carried, *dep)
	}
}

// classifyArray returns a carried dependence for the array's accesses, or
// nil when all iterations provably touch disjoint (or identical read-only)
// locations.
func classifyArray(accs []access, v string) *Dependence {
	for i := range accs {
		if !accs[i].sub.OK {
			return &Dependence{Kind: DepUnknown, Detail: "non-affine subscript"}
		}
	}
	for i := range accs {
		if !accs[i].write {
			continue
		}
		w := accs[i]
		if !w.sub.DependsOn(v) {
			// Same element (per inner-iteration tuple) written every v
			// iteration.
			return &Dependence{Kind: DepArrayOutput,
				Detail: fmt.Sprintf("write subscript %s invariant in %s", w.sub, v)}
		}
		for j := range accs {
			if i == j {
				continue
			}
			a := accs[j]
			kind := DepArrayFlow
			if a.write {
				kind = DepArrayOutput
			}
			if !samePart(w.sub, a.sub, v, true, false) {
				// Different dependence on v (including v-invariant reads of
				// a written array): conservative carried dependence.
				return &Dependence{Kind: kind,
					Detail: fmt.Sprintf("subscripts %s and %s differ in their %s terms", w.sub, a.sub, v)}
			}
			if !w.sub.EqualModulo(a.sub, v) {
				// Same v term but shifted invariants. When the v part is a
				// pure c·v term and the shift is a constant δ, the accesses
				// collide across iterations only if c divides δ (the GCD
				// test): acc[3i] vs acc[3i+1] never alias, acc[i] vs
				// acc[i-1] do.
				if c, ok := pureCoeff(w.sub, v); ok && samePart(w.sub, a.sub, v, false, true) {
					delta := w.sub.Const - a.sub.Const
					if delta%c != 0 {
						continue
					}
				}
				return &Dependence{Kind: kind,
					Detail: fmt.Sprintf("subscripts %s and %s conflict across iterations", w.sub, a.sub)}
			}
		}
	}
	return nil
}

// collectAccesses walks a subtree gathering array accesses with subscripts
// and read/write/compound classification.
func collectAccesses(root minic.Node) []access {
	var out []access
	record := func(e minic.Expr, write, comp bool) {
		ix, ok := e.(*minic.IndexExpr)
		if !ok {
			return
		}
		base, ok := ix.Base.(*minic.Ident)
		if !ok {
			return
		}
		out = append(out, access{array: base.Name, sub: AffineOf(ix.Index), write: write, comp: comp})
	}
	minic.Walk(root, func(n minic.Node) bool {
		switch e := n.(type) {
		case *minic.AssignExpr:
			comp := e.Op != minic.TokAssign
			record(e.LHS, true, comp)
			if comp {
				record(e.LHS, false, comp) // compound also reads
			}
		case *minic.IncDecExpr:
			record(e.X, true, true)
			record(e.X, false, true)
		case *minic.IndexExpr:
			// Generic visit records every IndexExpr as a read. Store
			// targets are re-visited here with the same subscript as their
			// write record; such same-subscript duplicates are harmless to
			// the pairwise dependence test (identical affine forms never
			// conflict), so no filtering is needed.
			if name := identName(e.Base); name != "" {
				out = append(out, access{array: name, sub: AffineOf(e.Index)})
			}
		}
		return true
	})
	return out
}

func identName(e minic.Expr) string {
	if id, ok := e.(*minic.Ident); ok {
		return id.Name
	}
	return ""
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// pureCoeff returns the coefficient when the part of a that varies with v
// is exactly one pure c·v term.
func pureCoeff(a Affine, v string) (int64, bool) {
	c := a.Coeff[v]
	if c == 0 {
		return 0, false
	}
	for k := range a.Coeff {
		if k != v && termHasVar(k, v) {
			return 0, false
		}
	}
	return c, true
}
