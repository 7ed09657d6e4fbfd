package analysis

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// Dependence is one loop-carried dependence. A scalar one keeps its kind
// and name only, and Detail renders its text when read: no caller on a
// job's path reads it. The rarer array and unknown ones carry theirs.
type Dependence struct {
	Kind   DepKind
	Name   string // variable or array involved
	detail string
}

// Detail explains the dependence.
func (d Dependence) Detail() string {
	if d.detail == "" && d.Kind == DepScalar {
		return "scalar " + strconv.Quote(d.Name) + " written in loop body and visible outside"
	}
	return d.detail
}

// String renders the dependence as kind "name": detail.
func (d Dependence) String() string {
	return d.Kind.String() + " " + strconv.Quote(d.Name) + ": " + d.Detail()
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
// iteration structure is not analyzable here). It walks the body on
// pooled scratch, so a call allocates only its result: the LoopDeps, its
// two slices and an array dependence's text. It is safe for concurrent
// use.
func AnalyzeLoop(loop minic.Stmt) *LoopDeps {
	fs, ok := loop.(*minic.ForStmt)
	if !ok {
		return &LoopDeps{
			LoopID:  loop.ID(),
			Carried: []Dependence{{Kind: DepUnknown, detail: "while loop"}},
		}
	}
	v := query.LoopVar(fs)
	d := &LoopDeps{LoopID: fs.ID(), Var: v}
	if v == "" {
		d.Carried = append(d.Carried, Dependence{Kind: DepUnknown, detail: "unrecognized loop shape"})
		return d
	}

	b := loopBodies.Get().(*loopBody)
	b.fill(fs.Body)
	b.scalarDeps(v, d)
	arrayDeps(b.accesses, v, d)
	b.release()
	loopBodies.Put(b)
	return d
}

// scalarUse is how a loop body uses one name as a scalar.
type scalarUse struct {
	name           string
	compoundWrites int
	plainWrites    int
	otherReads     int
	op             minic.TokKind
	declared       bool // declared in the body (or a nested for-init): private to an iteration
}

// loopBody is the scratch one walk of a loop body fills: how each name is
// used as a scalar, in first-use order, and every array access in walk
// order with its subscript's affine form. AnalyzeLoop takes it from
// loopBodies and puts it back cleared: the result copies what it keeps,
// so no AST string or term outlives the call in the pool.
type loopBody struct {
	index    map[string]int // name → its entry in uses
	uses     []scalarUse
	accesses []access
	ev       affineEval
}

var loopBodies = sync.Pool{New: func() any { return &loopBody{index: map[string]int{}} }}

// release clears everything the walk wrote, keeping the capacity.
func (b *loopBody) release() {
	clear(b.index)
	clear(b.uses)
	b.uses = b.uses[:0]
	clear(b.accesses)
	b.accesses = b.accesses[:0]
	clear(b.ev.stack[:cap(b.ev.stack)])
	b.ev.stack = b.ev.stack[:0]
	clear(b.ev.arena[:cap(b.ev.arena)])
	b.ev.arena = b.ev.arena[:0]
}

// use returns name's entry, adding it on first use. The pointer is good
// until the next call.
func (b *loopBody) use(name string) *scalarUse {
	i, ok := b.index[name]
	if !ok {
		i = len(b.uses)
		b.uses = append(b.uses, scalarUse{name: name})
		b.index[name] = i
	}
	return &b.uses[i]
}

// fill walks body once.
func (b *loopBody) fill(body minic.Node) {
	minic.Walk(body, func(n minic.Node) bool {
		switch e := n.(type) {
		case *minic.DeclStmt:
			b.use(e.Name).declared = true
		case *minic.AssignExpr:
			if id, ok := e.LHS.(*minic.Ident); ok {
				u := b.use(id.Name)
				switch e.Op {
				case minic.TokPlusEq, minic.TokMinusEq, minic.TokStarEq:
					u.compoundWrites++
					u.op = e.Op
				default:
					u.plainWrites++
				}
				u.otherReads-- // the walk visits the LHS Ident next, as a read
			}
			comp := e.Op != minic.TokAssign
			b.record(e.LHS, true, comp)
			if comp {
				b.record(e.LHS, false, comp) // compound also reads
			}
		case *minic.IncDecExpr:
			if id, ok := e.X.(*minic.Ident); ok {
				u := b.use(id.Name)
				u.compoundWrites++
				u.op = minic.TokPlusEq
				u.otherReads-- // as for an assignment
			}
			b.record(e.X, true, true)
			b.record(e.X, false, true)
		case *minic.IndexExpr:
			// Every IndexExpr is a read, store targets included: those
			// repeat their write record's subscript, and identical forms
			// never conflict in the pairwise test.
			b.record(e, false, false)
		case *minic.Ident:
			b.use(e.Name).otherReads++
		}
		return true
	})
}

// record adds an access through e when it is an element of a named array.
func (b *loopBody) record(e minic.Expr, write, comp bool) {
	ix, ok := e.(*minic.IndexExpr)
	if !ok {
		return
	}
	if name := identName(ix.Base); name != "" {
		b.accesses = append(b.accesses, access{array: name, sub: b.ev.form(ix.Index), write: write, comp: comp})
	}
}

// scalarDeps finds carried scalar dependences and scalar reductions, in
// first-use order.
func (b *loopBody) scalarDeps(v string, d *LoopDeps) {
	for _, u := range b.uses {
		name := u.name
		if name == v || u.declared {
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
		d.Carried = append(d.Carried, Dependence{Kind: DepScalar, Name: name})
	}
}

// arrayDeps finds carried array dependences and array reductions, array
// by array in name order. It sorts accs by array, keeping walk order
// within each.
func arrayDeps(accs []access, v string, d *LoopDeps) {
	slices.SortStableFunc(accs, func(a, b access) int { return strings.Compare(a.array, b.array) })
	for len(accs) > 0 {
		n := 1
		for n < len(accs) && accs[n].array == accs[0].array {
			n++
		}
		group, name := accs[:n], accs[0].array
		accs = accs[n:]

		hasWrite := false
		for _, a := range group {
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
		for _, a := range group {
			if a.write && !a.comp {
				allCompound = false
			}
		}
		dep := classifyArray(group, v)
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
			return &Dependence{Kind: DepUnknown, detail: "non-affine subscript"}
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
				detail: fmt.Sprintf("write subscript %s invariant in %s", w.sub, v)}
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
					detail: fmt.Sprintf("subscripts %s and %s differ in their %s terms", w.sub, a.sub, v)}
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
					detail: fmt.Sprintf("subscripts %s and %s conflict across iterations", w.sub, a.sub)}
			}
		}
	}
	return nil
}

func identName(e minic.Expr) string {
	if id, ok := e.(*minic.Ident); ok {
		return id.Name
	}
	return ""
}

// pureCoeff returns the coefficient when the part of a that varies with v
// is exactly one pure c·v term.
func pureCoeff(a Affine, v string) (int64, bool) {
	var c int64
	for _, t := range a.Terms {
		if t.Key == v {
			c = t.C
		} else if termHasVar(t.Key, v) {
			return 0, false
		}
	}
	return c, c != 0
}
