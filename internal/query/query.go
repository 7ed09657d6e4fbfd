// Package query implements the AST query mechanism of the meta-programming
// layer: predicate-based selection of nodes, structural relations
// (encloses, outermost), and loop shape inspection. It is the Go
// counterpart of the paper's Artisan queries such as
//
//	query(∀loop,fn ∈ ast: loop.isForStmt ∧ fn.name = kernel_name
//	      ∧ fn.encloses(loop) ∧ loop.is_outermost)
//
// Every query is a function of the AST it is given: a walk that keeps no
// index, so it is never stale after a transform rewrites the tree.
package query

import (
	"psaflow/internal/minic"
)

// Select returns every node under root (root included) that pred matches,
// in depth-first source order.
func Select(root minic.Node, pred func(minic.Node) bool) []minic.Node {
	var out []minic.Node
	minic.Walk(root, func(n minic.Node) bool {
		if pred(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// EnclosingFunc returns the function of prog that contains n, or nil.
func EnclosingFunc(prog *minic.Program, n minic.Node) *minic.FuncDecl {
	for _, fn := range prog.Funcs {
		if minic.Node(fn) == n || Encloses(fn, n) {
			return fn
		}
	}
	return nil
}

// Encloses reports whether inner is a strict descendant of outer.
func Encloses(outer, inner minic.Node) bool {
	found := false
	minic.Walk(outer, func(n minic.Node) bool {
		if n != outer && n == inner {
			found = true
		}
		return !found
	})
	return found
}

// IsLoop reports whether n is a for or while statement.
func IsLoop(n minic.Node) bool {
	switch n.(type) {
	case *minic.ForStmt, *minic.WhileStmt:
		return true
	}
	return false
}

// IsForStmt reports whether n is a for statement.
func IsForStmt(n minic.Node) bool {
	_, ok := n.(*minic.ForStmt)
	return ok
}

// IsOutermostLoop reports whether n is a loop of fn with no enclosing loop
// in fn: one of OutermostLoops(fn).
func IsOutermostLoop(fn *minic.FuncDecl, n minic.Node) bool {
	for _, l := range OutermostLoops(fn) {
		if minic.Node(l) == n {
			return true
		}
	}
	return false
}

// LoopsIn returns every loop statement in fn in depth-first source order.
func LoopsIn(fn *minic.FuncDecl) []minic.Stmt {
	return loopsUnder(fn, true)
}

// OutermostLoops returns the outermost loops of fn — the query from the
// paper's Fig. 2 meta-program. The walk does not descend into a loop.
func OutermostLoops(fn *minic.FuncDecl) []minic.Stmt {
	return loopsUnder(fn, false)
}

// InnerLoops returns all loops strictly nested inside loop.
func InnerLoops(loop minic.Stmt) []minic.Stmt {
	return loopsUnder(loop, true)
}

// FirstOutermostLoop returns OutermostLoops(fn)[0], or nil when fn has no
// loop, without making the slice: the first loop in depth-first order is
// always an outermost one.
func FirstOutermostLoop(fn *minic.FuncDecl) minic.Stmt {
	var first [1]minic.Stmt
	w := loopWalk{out: first[:]}
	w.under(fn)
	return first[0]
}

// loopsUnder collects the loops strictly below root in depth-first source
// order; with nested false it stops at each loop it finds. One pass counts
// them and a second fills a slice of that length, so a call allocates its
// result and nothing else.
func loopsUnder(root minic.Node, nested bool) []minic.Stmt {
	count := loopWalk{nested: nested}
	count.under(root)
	if count.n == 0 {
		return nil
	}
	fill := loopWalk{nested: nested, out: make([]minic.Stmt, count.n)}
	fill.under(root)
	return fill.out
}

// loopWalk visits the loops below a node in depth-first source order. Loops
// are statements and no expression holds a statement, so it walks the
// statement tree only. It counts the loops it visits in n and stores the
// i-th in out[i] while out has room (an index store, not an append, so that
// out stays where its caller made it).
type loopWalk struct {
	nested bool
	n      int
	out    []minic.Stmt
}

// under visits the statements directly below n.
func (w *loopWalk) under(n minic.Node) {
	switch v := n.(type) {
	case *minic.FuncDecl:
		w.block(v.Body)
	case *minic.Block:
		w.block(v)
	case *minic.ForStmt:
		w.block(v.Body)
	case *minic.WhileStmt:
		w.block(v.Body)
	case *minic.IfStmt:
		w.block(v.Then)
		w.stmt(v.Else)
	}
}

func (w *loopWalk) block(b *minic.Block) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		w.stmt(s)
	}
}

func (w *loopWalk) stmt(s minic.Stmt) {
	if IsLoop(s) {
		if w.n < len(w.out) {
			w.out[w.n] = s
		}
		w.n++
		if !w.nested {
			return
		}
	}
	w.under(s)
}

// LoopVar returns the canonical induction variable of a for loop of the
// form `for (int i = ...; i < ...; i++)`, or "" if the shape does not
// match.
func LoopVar(loop *minic.ForStmt) string {
	switch init := loop.Init.(type) {
	case *minic.DeclStmt:
		return init.Name
	case *minic.ExprStmt:
		if a, ok := init.X.(*minic.AssignExpr); ok && a.Op == minic.TokAssign {
			if id, ok := a.LHS.(*minic.Ident); ok {
				return id.Name
			}
		}
	}
	// Fall back to the post expression.
	switch post := loop.Post.(type) {
	case *minic.IncDecExpr:
		if id, ok := post.X.(*minic.Ident); ok {
			return id.Name
		}
	case *minic.AssignExpr:
		if id, ok := post.LHS.(*minic.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// LoopBound describes the statically recognized bounds of a canonical for
// loop: `for (v = Lo; v < Hi; v += Step)`.
type LoopBound struct {
	Var  string
	Lo   minic.Expr
	Hi   minic.Expr
	Step int64
}

// Bounds recognizes canonical for-loop shapes: init assigns the induction
// variable, cond is `v < hi` or `v <= hi`, post is `v++` or `v += c`.
// Returns ok=false for any other shape.
func Bounds(loop *minic.ForStmt) (LoopBound, bool) {
	var b LoopBound
	b.Var = LoopVar(loop)
	if b.Var == "" {
		return b, false
	}
	switch init := loop.Init.(type) {
	case *minic.DeclStmt:
		if init.Init == nil {
			return b, false
		}
		b.Lo = init.Init
	case *minic.ExprStmt:
		a, ok := init.X.(*minic.AssignExpr)
		if !ok || a.Op != minic.TokAssign {
			return b, false
		}
		b.Lo = a.RHS
	default:
		return b, false
	}
	cond, ok := loop.Cond.(*minic.BinaryExpr)
	if !ok || (cond.Op != minic.TokLt && cond.Op != minic.TokLe) {
		return b, false
	}
	lhs, ok := cond.L.(*minic.Ident)
	if !ok || lhs.Name != b.Var {
		return b, false
	}
	b.Hi = cond.R
	switch post := loop.Post.(type) {
	case *minic.IncDecExpr:
		if post.Op != minic.TokPlusPlus {
			return b, false
		}
		b.Step = 1
	case *minic.AssignExpr:
		if post.Op != minic.TokPlusEq {
			return b, false
		}
		c, ok := post.RHS.(*minic.IntLit)
		if !ok || c.Val <= 0 {
			return b, false
		}
		b.Step = c.Val
	default:
		return b, false
	}
	if cond.Op == minic.TokLe {
		// Normalize `<=` to an exclusive bound when both ends are literal.
		if hi, ok := b.Hi.(*minic.IntLit); ok {
			b.Hi = &minic.IntLit{Val: hi.Val + 1}
		} else {
			return b, false
		}
	}
	return b, true
}

// FixedTripCount returns the compile-time trip count of a canonical for
// loop whose bounds are integer literals, and whether it is fixed. This is
// the "fixed-bound" test used by the FPGA unroll tasks and the PSA
// strategy's "can fully unroll?" decision.
func FixedTripCount(loop minic.Stmt) (int64, bool) {
	fs, ok := loop.(*minic.ForStmt)
	if !ok {
		return 0, false
	}
	b, ok := Bounds(fs)
	if !ok {
		return 0, false
	}
	lo, ok := b.Lo.(*minic.IntLit)
	if !ok {
		return 0, false
	}
	hi, ok := b.Hi.(*minic.IntLit)
	if !ok {
		return 0, false
	}
	if hi.Val <= lo.Val {
		return 0, true
	}
	return (hi.Val - lo.Val + b.Step - 1) / b.Step, true
}

// IdentsAssigned returns the set of names that are targets of assignment,
// ++/--, or declaration under n.
func IdentsAssigned(n minic.Node) map[string]bool {
	out := make(map[string]bool)
	minic.Walk(n, func(m minic.Node) bool {
		switch v := m.(type) {
		case *minic.AssignExpr:
			if id, ok := v.LHS.(*minic.Ident); ok {
				out[id.Name] = true
			}
		case *minic.IncDecExpr:
			if id, ok := v.X.(*minic.Ident); ok {
				out[id.Name] = true
			}
		case *minic.DeclStmt:
			out[v.Name] = true
		}
		return true
	})
	return out
}

// ArraysWritten returns the set of array base names written via
// `base[idx] = / += / ...` or ++/-- under n.
func ArraysWritten(n minic.Node) map[string]bool {
	out := make(map[string]bool)
	record := func(e minic.Expr) {
		if ix, ok := e.(*minic.IndexExpr); ok {
			if id, ok := ix.Base.(*minic.Ident); ok {
				out[id.Name] = true
			}
		}
	}
	minic.Walk(n, func(m minic.Node) bool {
		switch v := m.(type) {
		case *minic.AssignExpr:
			record(v.LHS)
		case *minic.IncDecExpr:
			record(v.X)
		}
		return true
	})
	return out
}

// ArraysRead returns the set of array base names read via `base[idx]`
// in a value position under n. Writes through `a[i] = x` do not count as
// reads of a, but `a[i] += x` does.
func ArraysRead(n minic.Node) map[string]bool {
	out := make(map[string]bool)
	var walkExpr func(e minic.Expr, store bool)
	walkExpr = func(e minic.Expr, store bool) {
		switch v := e.(type) {
		case nil:
		case *minic.IndexExpr:
			if !store {
				if id, ok := v.Base.(*minic.Ident); ok {
					out[id.Name] = true
				}
			}
			walkExpr(v.Index, false)
			// Nested bases (multi-dim sugar) are always reads.
			if _, ok := v.Base.(*minic.Ident); !ok {
				walkExpr(v.Base, false)
			}
		case *minic.AssignExpr:
			// Plain `=` does not read the LHS; compound ops do.
			walkExpr(v.LHS, v.Op == minic.TokAssign)
			walkExpr(v.RHS, false)
		case *minic.IncDecExpr:
			walkExpr(v.X, false) // x++ reads x
		case *minic.UnaryExpr:
			walkExpr(v.X, false)
		case *minic.BinaryExpr:
			walkExpr(v.L, false)
			walkExpr(v.R, false)
		case *minic.CallExpr:
			for _, a := range v.Args {
				walkExpr(a, false)
			}
		case *minic.CastExpr:
			walkExpr(v.X, false)
		}
	}
	minic.Walk(n, func(m minic.Node) bool {
		switch v := m.(type) {
		case *minic.ExprStmt:
			walkExpr(v.X, false)
			return false
		case *minic.DeclStmt:
			walkExpr(v.Init, false)
			return false
		case *minic.ReturnStmt:
			walkExpr(v.X, false)
			return false
		case *minic.ForStmt:
			if v.Cond != nil {
				walkExpr(v.Cond, false)
			}
			if v.Post != nil {
				walkExpr(v.Post, false)
			}
			// Init and body are visited as child statements.
			return true
		case *minic.WhileStmt:
			walkExpr(v.Cond, false)
			return true
		case *minic.IfStmt:
			walkExpr(v.Cond, false)
			return true
		}
		return true
	})
	return out
}

// FreeVar is a variable a statement uses but does not declare.
type FreeVar struct {
	Name string
	Type minic.Type // as declared where the statement sees it; Ptr is set for an array
}

// FreeVars returns the variables that stmt, a statement of fn, uses and
// that are declared outside it, in first-use order (depth-first source
// order), resolved by MiniC's scoping as both interpreter engines apply it:
// parameters, then one scope per block and per for statement, a declaration
// visible from the statement after it to the end of its scope. A name that
// resolves to nothing — an undefined variable — is not reported.
//
// This is the single description of what an outlined kernel's parameters
// are: transform.ExtractHotspot makes one parameter per entry, and the
// interpreter watches a hotspot candidate's pointer entries as if the loop
// were already that kernel.
func FreeVars(fn *minic.FuncDecl, stmt minic.Stmt) []FreeVar {
	// decls is the stack of declarations in scope, innermost last: a scope
	// is the tail it has pushed, cut off when it closes. outer marks the
	// walk reaching stmt (-1 before): decls[:outer] lie outside it.
	var w struct {
		decls, free []FreeVar
		outer       int
		done        bool
	}
	w.decls = make([]FreeVar, 0, len(fn.Params)+16)
	w.free = make([]FreeVar, 0, 8)
	for _, p := range fn.Params {
		w.decls = append(w.decls, FreeVar{p.Name, p.Type})
	}
	w.outer = -1
	var visit func(n minic.Node)
	visit = func(n minic.Node) {
		if w.done {
			return
		}
		if n == stmt {
			w.outer = len(w.decls)
		}
		switch v := n.(type) {
		case *minic.Block, *minic.ForStmt:
			scope := len(w.decls)
			minic.EachChild(n, visit)
			w.decls = w.decls[:scope]
		case *minic.DeclStmt:
			minic.EachChild(n, visit) // an initializer sees the outer binding of the name
			t := v.Type
			if v.ArrayLen != nil {
				t.Ptr = true
			}
			w.decls = append(w.decls, FreeVar{v.Name, t})
		case *minic.Ident:
			if w.outer < 0 {
				return
			}
			for i := len(w.decls) - 1; i >= 0; i-- {
				if w.decls[i].Name != v.Name {
					continue
				}
				if i < w.outer && !hasFreeVar(w.free, v.Name) {
					w.free = append(w.free, w.decls[i])
				}
				return
			}
		default:
			minic.EachChild(n, visit)
		}
		if n == stmt {
			w.done = true
		}
	}
	visit(fn.Body)
	return w.free
}

func hasFreeVar(vars []FreeVar, name string) bool {
	for _, fv := range vars {
		if fv.Name == name {
			return true
		}
	}
	return false
}
