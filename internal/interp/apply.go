package interp

import (
	"fmt"

	"psaflow/internal/minic"
)

// This file holds the arithmetic, charging, and store semantics shared by
// the tree-walking evaluator (eval.go) and the bytecode fast path
// (bytecode_exec.go). Keeping a single implementation is what makes the two
// execution modes bit-for-bit equivalent: every cycle charge, FLOP count,
// and error message happens in exactly one place, in exactly one order.

// applyUnary evaluates -x / !x on an already-evaluated operand, charging
// exactly as the paper's cost model prescribes.
func (m *machine) applyUnary(op minic.TokKind, x Value) Value {
	if op == minic.TokNot {
		m.charge(CostLogic)
		return BoolVal(!x.AsBool())
	}
	switch x.K {
	case KInt:
		m.charge(CostAddSub)
		return IntVal(-x.I)
	case KFloat:
		m.chargeFlop(CostAddSub, 1)
		return FloatVal(-x.F)
	default:
		m.chargeFlop(CostAddSub, 1)
		return DoubleVal(-x.AsFloat())
	}
}

// applyBinary combines two already-evaluated operands of a
// non-short-circuit binary operator (comparison, modulo, arithmetic).
func (m *machine) applyBinary(op minic.TokKind, l, r Value, pos minic.Pos) (Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return Value{}, m.errf(pos, "non-numeric operands to %s", op)
	}
	k := promote(l, r)

	switch op {
	case minic.TokLt, minic.TokGt, minic.TokLe, minic.TokGe, minic.TokEqEq, minic.TokNe:
		m.charge(CostCmp)
		lf, rf := l.AsFloat(), r.AsFloat()
		var res bool
		switch op {
		case minic.TokLt:
			res = lf < rf
		case minic.TokGt:
			res = lf > rf
		case minic.TokLe:
			res = lf <= rf
		case minic.TokGe:
			res = lf >= rf
		case minic.TokEqEq:
			res = lf == rf
		case minic.TokNe:
			res = lf != rf
		}
		return BoolVal(res), nil
	case minic.TokPercent:
		if l.K != KInt || r.K != KInt {
			return Value{}, m.errf(pos, "%% requires int operands")
		}
		if r.I == 0 {
			return Value{}, m.errf(pos, "modulo by zero")
		}
		m.charge(CostDivInt)
		m.prof.IntOps++
		return IntVal(l.I % r.I), nil
	}

	if k == KInt {
		m.prof.IntOps++
		li, ri := l.AsInt(), r.AsInt()
		switch op {
		case minic.TokPlus:
			m.charge(CostAddSub)
			return IntVal(li + ri), nil
		case minic.TokMinus:
			m.charge(CostAddSub)
			return IntVal(li - ri), nil
		case minic.TokStar:
			m.charge(CostMul)
			return IntVal(li * ri), nil
		case minic.TokSlash:
			if ri == 0 {
				return Value{}, m.errf(pos, "integer division by zero")
			}
			m.charge(CostDivInt)
			return IntVal(li / ri), nil
		}
	} else {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch op {
		case minic.TokPlus:
			m.chargeFlop(CostAddSub, 1)
			return makeNum(k, lf+rf), nil
		case minic.TokMinus:
			m.chargeFlop(CostAddSub, 1)
			return makeNum(k, lf-rf), nil
		case minic.TokStar:
			m.chargeFlop(CostMul, 1)
			return makeNum(k, lf*rf), nil
		case minic.TokSlash:
			if rf == 0 {
				return Value{}, m.errf(pos, "floating division by zero")
			}
			m.chargeFlop(CostDivF, 1)
			return makeNum(k, lf/rf), nil
		}
	}
	return Value{}, m.errf(pos, "unhandled binary operator %s", op)
}

// applyCompound resolves the RHS of an assignment: plain `=` passes rhs
// through; compound ops combine with the old value and charge.
func (m *machine) applyCompound(op minic.TokKind, old, rhs Value, pos minic.Pos) (Value, error) {
	if op == minic.TokAssign {
		return rhs, nil
	}
	if !old.IsNumeric() || !rhs.IsNumeric() {
		return Value{}, m.errf(pos, "non-numeric compound assignment")
	}
	k := promote(old, rhs)
	lf, rf := old.AsFloat(), rhs.AsFloat()
	var res float64
	switch op {
	case minic.TokPlusEq:
		res = lf + rf
	case minic.TokMinusEq:
		res = lf - rf
	case minic.TokStarEq:
		res = lf * rf
	case minic.TokSlashEq:
		if rf == 0 {
			return Value{}, m.errf(pos, "division by zero in /=")
		}
		res = lf / rf
	default:
		return Value{}, m.errf(pos, "unhandled assign op %s", op)
	}
	cost := CostAddSub
	if op == minic.TokStarEq {
		cost = CostMul
	} else if op == minic.TokSlashEq {
		cost = CostDivF
	}
	if k == KInt {
		m.charge(cost)
		m.prof.IntOps++
	} else {
		m.chargeFlop(cost, 1)
	}
	return makeNum(k, res), nil
}

// storeScalarCell writes nv into a scalar cell preserving the cell's
// declared kind, and returns the stored value (the assignment expression's
// result).
func (m *machine) storeScalarCell(cell *Value, nv Value, pos minic.Pos) (Value, error) {
	switch cell.K {
	case KInt:
		*cell = IntVal(nv.AsInt())
	case KFloat:
		*cell = FloatVal(nv.AsFloat())
	case KDouble:
		*cell = DoubleVal(nv.AsFloat())
	case KBool:
		*cell = BoolVal(nv.AsBool())
	default:
		return Value{}, m.errf(pos, "cannot assign to %s", cell.K)
	}
	m.charge(CostLocal)
	return *cell, nil
}

// incDecCell applies ++/-- to a scalar cell, returning the old value
// (postfix semantics).
func (m *machine) incDecCell(cell *Value, delta int64, pos minic.Pos) (Value, error) {
	old := *cell
	switch cell.K {
	case KInt:
		m.charge(CostAddSub)
		m.prof.IntOps++
		*cell = IntVal(cell.I + delta)
	case KFloat:
		m.chargeFlop(CostAddSub, 1)
		*cell = FloatVal(cell.F + float64(delta))
	case KDouble:
		m.chargeFlop(CostAddSub, 1)
		*cell = DoubleVal(cell.F + float64(delta))
	default:
		return Value{}, m.errf(pos, "cannot ++/-- a %s", cell.K)
	}
	return old, nil
}

// incDecElemValue applies ++/-- arithmetic to a loaded array element.
func (m *machine) incDecElemValue(old Value, delta int64) Value {
	if old.K == KInt {
		m.charge(CostAddSub)
		m.prof.IntOps++
		return IntVal(old.I + delta)
	}
	m.chargeFlop(CostAddSub, 1)
	return makeNum(old.K, old.F+float64(delta))
}

// callBuiltin invokes a runtime intrinsic on already-evaluated arguments.
func (m *machine) callBuiltin(name string, bi builtin, args []Value, pos minic.Pos) (Value, error) {
	if len(args) != bi.arity {
		return Value{}, m.errf(pos, "%s: %d args, want %d", name, len(args), bi.arity)
	}
	m.chargeFlop(bi.cost, bi.flops)
	if bi.flops > 1 {
		m.specialFlops += bi.flops
	}
	return bi.fn(args), nil
}

// bufOf checks that an evaluated index base is a buffer. The check runs
// before the index expression is evaluated, matching tree-walk order.
func (m *machine) bufOf(base Value, pos minic.Pos) (*Buffer, error) {
	if base.K != KBuf {
		return nil, m.errf(pos, "indexing non-array value (%s)", base.K)
	}
	return base.Buf, nil
}

// boundsOf validates an evaluated index against a buffer.
func (m *machine) boundsOf(buf *Buffer, idx Value, pos minic.Pos) (int64, error) {
	i := idx.AsInt()
	if i < 0 || i >= int64(buf.Len()) {
		return 0, m.errf(pos, "index %d out of range [0,%d) for %s", i, buf.Len(), buf.Name)
	}
	return i, nil
}

// makeArray allocates the runtime buffer for an array declaration.
func (m *machine) makeArray(name string, kind minic.BasicKind, n int64, pos minic.Pos) (*Buffer, error) {
	if n < 0 || n > 1<<26 {
		return nil, m.errf(pos, "array %s has invalid length %d", name, n)
	}
	buf := &Buffer{Name: name, Kind: kind}
	if kind == minic.Int {
		buf.I = make([]int64, n)
	} else {
		buf.F = make([]float64, n)
	}
	return buf, nil
}

// sprintParts renders captured printf arguments exactly as the tree-walk
// evaluator always has.
func sprintParts(parts []string) string { return fmt.Sprint(parts) }
