package analysis

import (
	"psaflow/internal/minic"
	"psaflow/internal/query"
)

// OpCounts is a histogram of operations in a code region. Counts are
// per single execution of the region unless produced by WeightedOps,
// which scales by statically known trip counts.
type OpCounts struct {
	AddSub   float64
	Mul      float64
	Div      float64
	Cmp      float64
	Special  float64 // sqrt/exp/log/pow/trig/erf calls
	IntOps   float64
	Loads    float64 // array element reads
	Stores   float64 // array element writes
	Calls    float64 // user function calls
	FlopsW   float64 // FLOPs weighted like the interpreter counts them
	BytesRW  float64 // bytes moved by Loads+Stores (element-size aware)
	SpecialK map[string]float64
}

func newOpCounts() *OpCounts { return &OpCounts{SpecialK: map[string]float64{}} }

// AI returns the static arithmetic intensity (FLOPs per byte); 0 when no
// memory traffic is present.
func (o *OpCounts) AI() float64 {
	if o.BytesRW == 0 {
		return 0
	}
	return o.FlopsW / o.BytesRW
}

// typeEnv is the minic.Scope fn's operations are classified int or
// floating in (minic.TypeOf), and the element widths of its arrays. It
// holds only what those need: the int scalars and the arrays, as pointers
// to their element kind, declared anywhere in fn. An operand it does not
// hold has no static type, so arithmetic on it counts as floating.
type typeEnv map[string]minic.Type

func typesIn(fn *minic.FuncDecl) typeEnv {
	env := typeEnv{}
	for _, p := range fn.Params {
		if p.Type.Ptr || p.Type.Kind == minic.Int {
			env[p.Name] = p.Type
		}
	}
	minic.Walk(fn, func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok {
			if d.ArrayLen != nil {
				env[d.Name] = minic.Type{Kind: d.Type.Kind, Ptr: true}
			} else if d.Type.Kind == minic.Int && !d.Type.Ptr {
				env[d.Name] = d.Type
			}
		}
		return true
	})
	return env
}

// VarType makes the environment a minic.Scope.
func (env typeEnv) VarType(name string) (minic.Type, bool) {
	t, ok := env[name]
	return t, ok
}

// Func resolves no function: a user call's result counts as floating.
func (typeEnv) Func(string) *minic.FuncDecl { return nil }

// bytes is the element width of array; unknown arrays are double width.
func (env typeEnv) bytes(array string) float64 {
	if t := env[array]; t.Ptr {
		return float64(t.Kind.Size())
	}
	return 8
}

// isIntExpr reports whether e is statically an int; anything unknown
// counts as floating.
func (env typeEnv) isIntExpr(e minic.Expr) bool {
	t, ok := minic.TypeOf(e, env)
	return ok && !t.Ptr && t.Kind == minic.Int
}

// CountOps statically counts operations in a region, treating every
// statement as executing once (loops are NOT scaled; see WeightedOps).
// fn provides element types for byte accounting.
func CountOps(region minic.Node, fn *minic.FuncDecl) *OpCounts {
	env := typesIn(fn)
	out := newOpCounts()
	countInto(region, env, out, 1)
	return out
}

// countInto adds k per operation in region to out. An assignment or ++/--
// accounts its indexed target itself, and Walk visits that target right
// after it (EachChild puts the LHS first), so store marks the one node the
// IndexExpr arm must not count again as a read.
func countInto(region minic.Node, env typeEnv, out *OpCounts, k float64) {
	var store minic.Node
	minic.Walk(region, func(n minic.Node) bool {
		target := n == store
		store = nil
		switch e := n.(type) {
		case *minic.BinaryExpr:
			isInt := env.isIntExpr(e)
			switch e.Op {
			case minic.TokPlus, minic.TokMinus:
				if isInt {
					out.IntOps += k
				} else {
					out.AddSub += k
					out.FlopsW += k
				}
			case minic.TokStar:
				if isInt {
					out.IntOps += k
				} else {
					out.Mul += k
					out.FlopsW += k
				}
			case minic.TokSlash, minic.TokPercent:
				if isInt {
					out.IntOps += k
				} else {
					out.Div += k
					out.FlopsW += k
				}
			case minic.TokLt, minic.TokGt, minic.TokLe, minic.TokGe, minic.TokEqEq, minic.TokNe:
				out.Cmp += k
			}
		case *minic.AssignExpr:
			store = e.LHS
			if e.Op != minic.TokAssign {
				if env.isIntExpr(e.LHS) {
					out.IntOps += k
				} else {
					out.AddSub += k
					out.FlopsW += k
				}
			}
			if ix, ok := e.LHS.(*minic.IndexExpr); ok {
				out.Stores += k
				out.BytesRW += k * env.bytes(identName(ix.Base))
				if e.Op != minic.TokAssign {
					out.Loads += k
					out.BytesRW += k * env.bytes(identName(ix.Base))
				}
			}
		case *minic.IncDecExpr:
			store = e.X
			if env.isIntExpr(e.X) {
				out.IntOps += k
			} else {
				out.AddSub += k
				out.FlopsW += k
			}
			if ix, ok := e.X.(*minic.IndexExpr); ok {
				out.Loads += k
				out.Stores += k
				out.BytesRW += k * 2 * env.bytes(identName(ix.Base))
			}
		case *minic.IndexExpr:
			if !target { // a read
				out.Loads += k
				out.BytesRW += k * env.bytes(identName(e.Base))
			}
		case *minic.CallExpr:
			in, ok := minic.LookupIntrinsic(e.Fun)
			switch {
			case !ok && e.Fun != "printf":
				out.Calls += k
			case in.Special():
				out.Special += k
				out.SpecialK[e.Fun] += k
			case in.Flops > 0:
				out.AddSub += k
			}
			out.FlopsW += k * float64(in.Flops) // 0 unless an intrinsic
		}
		return true
	})
}

// WeightedOps counts operations in the body of fn with statically known
// loop trip counts multiplied through; loops with unknown bounds count as
// one iteration. The result approximates "work per call" up to the unknown
// outer dimensions, which dynamic trip counts supply. Every count is a sum
// of integers, so adding each statement's k into one OpCounts is exact.
func WeightedOps(fn *minic.FuncDecl) *OpCounts {
	out := newOpCounts()
	weightedBlock(fn.Body, typesIn(fn), out, 1)
	return out
}

// weightedBlock adds k times the weighted operations of b to out.
func weightedBlock(b *minic.Block, env typeEnv, out *OpCounts, k float64) {
	for _, s := range b.Stmts {
		weightedStmt(s, env, out, k)
	}
}

func weightedStmt(s minic.Stmt, env typeEnv, out *OpCounts, k float64) {
	switch v := s.(type) {
	case *minic.Block:
		weightedBlock(v, env, out, k)
	case *minic.ForStmt:
		trips := 1.0
		if n, fixed := query.FixedTripCount(v); fixed && n > 0 && !LoopMarkedRolled(v) {
			trips = float64(n)
		}
		weightedBlock(v.Body, env, out, k*trips)
		// Loop control overhead: one compare + one increment per trip.
		out.Cmp += k * trips
		out.IntOps += k * trips
	case *minic.WhileStmt:
		weightedBlock(v.Body, env, out, k)
	case *minic.IfStmt:
		countInto(v.Cond, env, out, k)
		weightedBlock(v.Then, env, out, k)
		if v.Else != nil {
			weightedStmt(v.Else, env, out, k)
		}
	default:
		countInto(s, env, out, k)
	}
}

// RegisterEstimate approximates the per-thread register demand of a kernel
// when compiled for a GPU: declared scalar locals (weighted by the trip
// count of enclosing fixed loops, which GPU compilers unroll, multiplying
// live values), expression temporaries, and special-function call sites.
// The constants are calibrated so register-heavy ODE solver kernels land
// near the paper's observed 255 registers/thread while simple streaming
// kernels stay below 64.
func RegisterEstimate(fn *minic.FuncDecl) int {
	scalars := 0.0
	maxDepth := 0
	specials := 0
	weight := registerLoopWeights(fn)
	minic.Walk(fn, func(n minic.Node) bool {
		switch e := n.(type) {
		case *minic.DeclStmt:
			if e.ArrayLen == nil && e.Type.IsFloating() {
				w := 1.0
				if lw, ok := weight[e.ID()]; ok {
					w = lw
				}
				scalars += w
			}
		case *minic.CallExpr:
			if in, ok := minic.LookupIntrinsic(e.Fun); ok && in.Special() {
				specials++
			}
		}
		if ex, ok := n.(minic.Expr); ok {
			if d := exprDepth(ex); d > maxDepth {
				maxDepth = d
			}
		}
		return true
	})
	regs := 16 + int(4*scalars) + 2*specials + 2*maxDepth
	if regs > 255 {
		regs = 255
	}
	return regs
}

// registerLoopWeights maps declaration node IDs to the unroll pressure of
// their enclosing fixed-trip loops (capped — compilers stop keeping
// everything live at some point).
func registerLoopWeights(fn *minic.FuncDecl) map[int]float64 {
	const unrollCap = 24
	out := map[int]float64{}
	var rec func(n minic.Node, w float64)
	rec = func(n minic.Node, w float64) {
		if l, ok := n.(minic.Stmt); ok && n != minic.Node(fn) {
			if trips, fixed := query.FixedTripCount(l); fixed && trips > 1 {
				t := float64(trips)
				if t > unrollCap {
					t = unrollCap
				}
				w *= t
			}
		}
		if d, ok := n.(*minic.DeclStmt); ok {
			out[d.ID()] = w
		}
		minic.EachChild(n, func(c minic.Node) { rec(c, w) })
	}
	rec(fn, 1)
	return out
}

// HeavySpecialFraction returns the statically weighted fraction of special
// FLOPs in fn attributable to heavy transcendentals (exp/log/tanh/erf).
func HeavySpecialFraction(fn *minic.FuncDecl) float64 {
	ops := WeightedOps(fn)
	var heavy, total float64
	for name, n := range ops.SpecialK {
		in, _ := minic.LookupIntrinsic(name)
		flops := float64(in.Flops) * n
		total += flops
		if in.Heavy {
			heavy += flops
		}
	}
	if total == 0 {
		return 0
	}
	return heavy / total
}

func exprDepth(e minic.Expr) int {
	max := 0
	minic.EachChild(e, func(c minic.Node) {
		if ce, ok := c.(minic.Expr); ok {
			if d := exprDepth(ce); d > max {
				max = d
			}
		}
	})
	return max + 1
}

// Unrollability summarizes the "inner loops with dependences" PSA test on
// one outer loop: whether any inner loop carries a dependence, and whether
// all such loops have fixed trip counts at or below limit ("fully
// unrollable" on an FPGA).
type Unrollability struct {
	InnerWithDeps  int
	AllDepsFixed   bool
	MaxFixedTrip   int64
	InnerLoopCount int
}

// AnalyzeUnrollability inspects the inner loops of outer within fn.
func AnalyzeUnrollability(outer minic.Stmt, limit int64) Unrollability {
	u := Unrollability{AllDepsFixed: true}
	for _, inner := range query.InnerLoops(outer) {
		u.InnerLoopCount++
		deps := AnalyzeLoop(inner)
		if deps.Parallel() {
			continue
		}
		u.InnerWithDeps++
		n, fixed := query.FixedTripCount(inner)
		if !fixed || n > limit {
			u.AllDepsFixed = false
		} else if n > u.MaxFixedTrip {
			u.MaxFixedTrip = n
		}
	}
	return u
}

// LoopMarkedRolled reports whether a loop carries an explicit "unroll 1"
// pragma — the resource-sharing annotation: the loop body is instantiated
// once in hardware and time-multiplexed instead of spatially unrolled.
func LoopMarkedRolled(loop minic.Stmt) bool {
	var pragmas []string
	switch l := loop.(type) {
	case *minic.ForStmt:
		pragmas = l.Pragmas
	case *minic.WhileStmt:
		pragmas = l.Pragmas
	}
	for _, p := range pragmas {
		if p == "unroll 1" {
			return true
		}
	}
	return false
}

// HasDPSpecialCalls reports whether fn calls any double-precision special
// function (an Intrinsic that is Special with a Double result). Kernels
// that keep such calls pay the consumer-GPU FP64 special-function penalty
// in the performance model.
func HasDPSpecialCalls(fn *minic.FuncDecl) bool {
	found := false
	minic.Walk(fn, func(n minic.Node) bool {
		if c, ok := n.(*minic.CallExpr); ok {
			if in, ok := minic.LookupIntrinsic(c.Fun); ok && in.Special() && in.Result == minic.Double {
				found = true
			}
		}
		return !found
	})
	return found
}
