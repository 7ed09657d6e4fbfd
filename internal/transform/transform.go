// Package transform implements the source-to-source transformation tasks
// of the design-flow repository: hotspot loop extraction (outlining),
// pragma instrumentation, full unrolling of fixed loops, the
// "Remove Array += Dependency" rewrite, and the single-precision /
// specialised math-function substitutions. All transforms operate on the
// MiniC AST in place and keep the program executable so functional
// equivalence can be verified in the interpreter.
package transform

import (
	"fmt"

	"psaflow/internal/minic"
	"psaflow/internal/query"
)

// Error describes a transform failure.
type Error struct {
	Transform string
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("transform %s: %s", e.Transform, e.Msg) }

func errf(tr, format string, args ...any) error {
	return &Error{Transform: tr, Msg: fmt.Sprintf(format, args...)}
}

// InsertLoopPragma attaches a pragma to a loop (the paper's
// instrument(before, loop, #pragma ...) primitive).
func InsertLoopPragma(loop minic.Stmt, text string) error {
	switch l := loop.(type) {
	case *minic.ForStmt:
		l.Pragmas = append(l.Pragmas, text)
		return nil
	case *minic.WhileStmt:
		l.Pragmas = append(l.Pragmas, text)
		return nil
	}
	return errf("InsertLoopPragma", "node %T is not a loop", loop)
}

// RemoveLoopPragmas removes all pragmas matching the given prefix from a
// loop; used by DSE drivers between iterations.
func RemoveLoopPragmas(loop minic.Stmt, prefix string) {
	filter := func(pragmas []string) []string {
		out := pragmas[:0]
		for _, p := range pragmas {
			if len(p) < len(prefix) || p[:len(prefix)] != prefix {
				out = append(out, p)
			}
		}
		return out
	}
	switch l := loop.(type) {
	case *minic.ForStmt:
		l.Pragmas = filter(l.Pragmas)
	case *minic.WhileStmt:
		l.Pragmas = filter(l.Pragmas)
	}
}

// ExtractHotspot outlines the given loop of function host into a new
// kernel function named kernelName, replacing the loop with a call. The
// loop itself moves into the kernel, appended as prog's last function, and
// prog is renumbered from host on (minic.AssignIDsFrom). The loop's free
// variables (query.FreeVars) become the parameters: scalars by value,
// arrays as pointers. Fails when outlining would change the program:
// a free scalar written inside the loop (live-out scalars would need
// reference semantics MiniC does not have), or a return inside the loop,
// which would leave the kernel instead of host.
//
// This is the paper's "Hotspot Loop Extraction" task: the partitioning
// step that isolates the kernel for analysis and offloading.
func ExtractHotspot(prog *minic.Program, host *minic.FuncDecl, loop minic.Stmt, kernelName string) (*minic.FuncDecl, error) {
	const tr = "ExtractHotspot"
	if prog.Func(kernelName) != nil {
		return nil, errf(tr, "function %q already exists", kernelName)
	}
	free := query.FreeVars(host, loop)
	assigned := query.IdentsAssigned(loop)
	for _, fv := range free {
		if !fv.Type.Ptr && assigned[fv.Name] {
			return nil, errf(tr, "scalar %q is written inside the hotspot and visible outside (live-out)", fv.Name)
		}
	}
	if ret := query.Select(loop, isReturn); len(ret) > 0 {
		return nil, errf(tr, "return at %s leaves the hotspot loop", ret[0].NodePos())
	}

	// Build the kernel function.
	kernel := &minic.FuncDecl{
		Ret:  minic.Type{Kind: minic.Void},
		Name: kernelName,
	}
	for _, fv := range free {
		kernel.Params = append(kernel.Params, &minic.Param{Type: fv.Type, Name: fv.Name})
	}
	kernel.Body = &minic.Block{Stmts: []minic.Stmt{loop}}

	// Replace the loop with a call.
	call := &minic.CallExpr{Fun: kernelName}
	for _, fv := range free {
		call.Args = append(call.Args, &minic.Ident{Name: fv.Name})
	}
	if !minic.ReplaceStmt(host, loop, &minic.ExprStmt{X: call}) {
		return nil, errf(tr, "loop is not a direct statement of a block in %s", host.Name)
	}
	prog.Funcs = append(prog.Funcs, kernel)
	minic.AssignIDsFrom(prog, host)
	return kernel, nil
}

// UnrollFixedLoops fully unrolls every for loop in fn (a function of
// prog) whose trip count is statically known and at most limit,
// materializing the body once per iteration with the induction variable
// substituted by its constant value, and renumbers prog from fn on.
// Nested fixed loops are unrolled innermost-first. Returns the number of
// loops unrolled.
//
// This is the paper's "Unroll Fixed Loops" FPGA task: fully-unrolled
// fixed-bound inner loops map to spatial pipelines with II=1.
func UnrollFixedLoops(prog *minic.Program, fn *minic.FuncDecl, limit int64) (int, error) {
	const tr = "UnrollFixedLoops"
	count := 0
	for {
		target, trips := deepestFixedLoop(fn, limit)
		if target == nil {
			return count, nil
		}
		b, ok := query.Bounds(target)
		if !ok {
			return count, errf(tr, "loop lost canonical shape")
		}
		lo := b.Lo.(*minic.IntLit).Val
		// Shadowing check: body must not redeclare the induction variable.
		shadowed := false
		minic.Walk(target.Body, func(n minic.Node) bool {
			if d, ok := n.(*minic.DeclStmt); ok && d.Name == b.Var {
				shadowed = true
			}
			return true
		})
		if shadowed {
			return count, errf(tr, "induction variable %q shadowed in loop body", b.Var)
		}
		// Each iteration is a copy of the body as a block of its own, so
		// locals declared in the body stay valid C after materialization.
		unrolled := &minic.Block{Stmts: minic.CloneUnrolled(target.Body, b.Var, lo, b.Step, int(trips))}
		if !minic.ReplaceStmt(fn, target, unrolled) {
			return count, errf(tr, "failed to replace loop in %s", fn.Name)
		}
		minic.AssignIDsFrom(prog, fn)
		count++
	}
}

// deepestFixedLoop returns the most deeply nested for loop of fn whose
// trip count is statically known and in [1, limit] — the first such in
// depth-first source order — and that trip count; nil when there is none.
// One walk that carries the nesting depth down, so no parent index.
func deepestFixedLoop(fn *minic.FuncDecl, limit int64) (target *minic.ForStmt, trips int64) {
	bestDepth := 0
	var visit func(n minic.Node, depth int)
	visit = func(n minic.Node, depth int) {
		if query.IsLoop(n) {
			depth++
			if fs, ok := n.(*minic.ForStmt); ok && depth > bestDepth {
				if t, fixed := query.FixedTripCount(fs); fixed && t > 0 && t <= limit {
					bestDepth, target, trips = depth, fs, t
				}
			}
		}
		minic.EachChild(n, func(c minic.Node) { visit(c, depth) })
	}
	visit(fn, 0)
	return target, trips
}

// RemovePlusEqDep rewrites accumulations of the form
//
//	for (j ...) { A[sub] += rhs; }   // sub invariant in j
//
// inside fn into a scalar accumulation with a single load before and a
// single store after the loop, removing the array read-modify-write
// dependence that blocks HLS pipelining and GPU register allocation. It
// leaves an accumulation alone unless the result stays the same: sub reads
// nothing the loop writes, A appears nowhere else in the loop, and no
// return leaves the loop before the store. The accumulator has A's element
// type, so each step rounds as the array's did. Returns the number of
// rewrites performed; prog is renumbered from fn on.
func RemovePlusEqDep(prog *minic.Program, fn *minic.FuncDecl) (int, error) {
	count := 0
	for _, l := range query.LoopsIn(fn) {
		inner, ok := l.(*minic.ForStmt)
		if !ok || query.LoopVar(inner) == "" || len(query.Select(inner, isReturn)) > 0 {
			continue
		}
		for _, s := range inner.Body.Stmts {
			es, ok := s.(*minic.ExprStmt)
			if !ok {
				continue
			}
			as, ok := es.X.(*minic.AssignExpr)
			if !ok || as.Op != minic.TokPlusEq {
				continue
			}
			ix, ok := as.LHS.(*minic.IndexExpr)
			if !ok {
				continue
			}
			// sub reads nothing the loop writes, its own variable among them.
			assigned, written := query.IdentsAssigned(inner), query.ArraysWritten(inner)
			if reads(ix.Index, func(name string) bool { return assigned[name] || written[name] }) > 0 {
				continue
			}
			base, ok := ix.Base.(*minic.Ident)
			if !ok || reads(inner, func(name string) bool { return name == base.Name }) > 1 {
				continue
			}
			elem, ok := minic.TypeOf(ix, outside(query.FreeVars(fn, inner)))
			if !ok {
				continue // A is declared inside the loop
			}
			accName := fmt.Sprintf("acc_%s_%d", base.Name, count)
			// elem acc = A[sub];
			decl := &minic.DeclStmt{
				Type: elem,
				Name: accName,
				Init: minic.CloneExpr(ix),
			}
			// acc += rhs;
			as.LHS = &minic.Ident{Name: accName}
			// A[sub] = acc;  (after the loop)
			store := &minic.ExprStmt{X: &minic.AssignExpr{
				Op:  minic.TokAssign,
				LHS: minic.CloneExpr(ix),
				RHS: &minic.Ident{Name: accName},
			}}
			if !minic.InsertBefore(fn, inner, decl) {
				return count, errf("RemovePlusEqDep", "loop is not a direct block statement")
			}
			if !minic.InsertAfter(fn, inner, store) {
				return count, errf("RemovePlusEqDep", "loop is not a direct block statement")
			}
			count++
		}
	}
	if count > 0 {
		minic.AssignIDsFrom(prog, fn)
	}
	return count, nil
}

func isReturn(n minic.Node) bool {
	_, ok := n.(*minic.ReturnStmt)
	return ok
}

// reads returns how many identifiers under n satisfy name.
func reads(n minic.Node, name func(string) bool) int {
	c := 0
	minic.Walk(n, func(m minic.Node) bool {
		if id, ok := m.(*minic.Ident); ok && name(id.Name) {
			c++
		}
		return true
	})
	return c
}

// outside is a minic.Scope over the variables a statement sees from
// outside it (query.FreeVars). It types element reads, which resolve no
// function.
type outside []query.FreeVar

func (outside) Func(string) *minic.FuncDecl { return nil }

func (vs outside) VarType(name string) (minic.Type, bool) {
	for _, v := range vs {
		if v.Name == name {
			return v.Type, true
		}
	}
	return minic.Type{}, false
}

// SinglePrecisionFns rewrites double-precision math calls in fn to their
// single-precision forms (minic.Intrinsic.SP). Returns the number of calls rewritten.
func SinglePrecisionFns(fn *minic.FuncDecl) int {
	count := 0
	minic.RewriteExprs(fn, func(e minic.Expr) minic.Expr {
		if c, ok := e.(*minic.CallExpr); ok {
			if in, ok := minic.LookupIntrinsic(c.Fun); ok && in.SP != "" {
				c.Fun = in.SP
				count++
			}
		}
		return nil
	})
	return count
}

// SinglePrecisionLiterals marks every double literal in fn as single
// precision (1.5 → 1.5f). Returns the number of literals rewritten.
func SinglePrecisionLiterals(fn *minic.FuncDecl) int {
	count := 0
	minic.RewriteExprs(fn, func(e minic.Expr) minic.Expr {
		if fl, ok := e.(*minic.FloatLit); ok && !fl.Single {
			fl.Single = true
			count++
		}
		return nil
	})
	return count
}

// SpecialisedMathFns rewrites single-precision math calls to GPU
// fast-math intrinsics (minic.Intrinsic.FastMath). Returns the number of calls rewritten. Run
// SinglePrecisionFns first.
func SpecialisedMathFns(fn *minic.FuncDecl) int {
	count := 0
	minic.RewriteExprs(fn, func(e minic.Expr) minic.Expr {
		if c, ok := e.(*minic.CallExpr); ok {
			if in, ok := minic.LookupIntrinsic(c.Fun); ok && in.FastMath != "" {
				c.Fun = in.FastMath
				count++
			}
		}
		return nil
	})
	return count
}
