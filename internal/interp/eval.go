package interp

import (
	"psaflow/internal/minic"
)

// The tree-walking evaluator. The bytecode VM (bytecode.go) is the
// default engine; this walker is the semantic reference the equivalence
// suite checks the lowering against, and the VM's defensive fallback. All
// value semantics and cost charging live in the shared helpers of apply.go.

func (m *machine) eval(fr *frame, e minic.Expr) (Value, error) {
	if err := m.step(e.NodePos()); err != nil {
		return Value{}, err
	}
	switch v := e.(type) {
	case *minic.IntLit:
		return IntVal(v.Val), nil
	case *minic.FloatLit:
		if v.Single {
			return FloatVal(v.Val), nil
		}
		return DoubleVal(v.Val), nil
	case *minic.BoolLit:
		return BoolVal(v.Val), nil
	case *minic.StringLit:
		return Value{K: KVoid}, nil // only meaningful inside printf-family calls
	case *minic.Ident:
		cell := fr.lookup(v.Name)
		if cell == nil {
			return Value{}, m.errf(v.NodePos(), "undefined variable %q", v.Name)
		}
		m.charge(CostLocal)
		return *cell, nil
	case *minic.UnaryExpr:
		x, err := m.eval(fr, v.X)
		if err != nil {
			return Value{}, err
		}
		return m.applyUnary(v.Op, x), nil
	case *minic.BinaryExpr:
		return m.evalBinary(fr, v)
	case *minic.AssignExpr:
		return m.evalAssign(fr, v)
	case *minic.IncDecExpr:
		return m.evalIncDec(fr, v)
	case *minic.IndexExpr:
		buf, idx, err := m.evalIndexTarget(fr, v)
		if err != nil {
			return Value{}, err
		}
		return m.loadElem(buf, idx, v.NodePos())
	case *minic.CallExpr:
		return m.evalCall(fr, v)
	case *minic.CastExpr:
		x, err := m.eval(fr, v.X)
		if err != nil {
			return Value{}, err
		}
		m.charge(CostCast)
		return m.coerce(x, v.To, v.NodePos())
	}
	return Value{}, m.errf(e.NodePos(), "unhandled expression %T", e)
}

// numericResult applies C-style promotion: double > float > int.
func promote(a, b Value) ValKind {
	if a.K == KDouble || b.K == KDouble {
		return KDouble
	}
	if a.K == KFloat || b.K == KFloat {
		return KFloat
	}
	return KInt
}

func makeNum(k ValKind, f float64) Value {
	switch k {
	case KInt:
		return IntVal(int64(f))
	case KFloat:
		return FloatVal(f)
	default:
		return DoubleVal(f)
	}
}

func (m *machine) evalBinary(fr *frame, b *minic.BinaryExpr) (Value, error) {
	// Short-circuit logical operators.
	if b.Op == minic.TokAndAnd || b.Op == minic.TokOrOr {
		l, err := m.eval(fr, b.L)
		if err != nil {
			return Value{}, err
		}
		m.charge(CostLogic)
		if b.Op == minic.TokAndAnd && !l.AsBool() {
			return BoolVal(false), nil
		}
		if b.Op == minic.TokOrOr && l.AsBool() {
			return BoolVal(true), nil
		}
		r, err := m.eval(fr, b.R)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(r.AsBool()), nil
	}

	l, err := m.eval(fr, b.L)
	if err != nil {
		return Value{}, err
	}
	r, err := m.eval(fr, b.R)
	if err != nil {
		return Value{}, err
	}
	return m.applyBinary(b.Op, l, r, b.NodePos())
}

// evalIndexTarget resolves base buffer and index for an IndexExpr.
func (m *machine) evalIndexTarget(fr *frame, ix *minic.IndexExpr) (*Buffer, int64, error) {
	base, err := m.eval(fr, ix.Base)
	if err != nil {
		return nil, 0, err
	}
	buf, err := m.bufOf(base, ix.NodePos())
	if err != nil {
		return nil, 0, err
	}
	idx, err := m.eval(fr, ix.Index)
	if err != nil {
		return nil, 0, err
	}
	i, err := m.boundsOf(buf, idx, ix.NodePos())
	if err != nil {
		return nil, 0, err
	}
	return buf, i, nil
}

func (m *machine) loadElem(buf *Buffer, i int64, pos minic.Pos) (Value, error) {
	m.charge(CostLoad)
	nbytes := buf.ElemBytes()
	m.prof.LoadBytes += nbytes
	if m.watchDepth > 0 {
		if t := m.trafficOf(buf); t != nil {
			t.BytesIn += nbytes
			t.ElemReads++
		}
	}
	switch buf.Kind {
	case minic.Int:
		return IntVal(buf.I[i]), nil
	case minic.Float:
		return FloatVal(buf.F[i]), nil
	default:
		return DoubleVal(buf.F[i]), nil
	}
}

func (m *machine) storeElem(buf *Buffer, i int64, v Value, pos minic.Pos) error {
	m.charge(CostStore)
	nbytes := buf.ElemBytes()
	m.prof.StoreBytes += nbytes
	if m.watchDepth > 0 {
		if t := m.trafficOf(buf); t != nil {
			t.BytesOut += nbytes
			t.ElemWrites++
		}
	}
	switch buf.Kind {
	case minic.Int:
		buf.I[i] = v.AsInt()
	case minic.Float:
		buf.F[i] = float64(float32(v.AsFloat()))
	default:
		buf.F[i] = v.AsFloat()
	}
	return nil
}

func (m *machine) evalAssign(fr *frame, a *minic.AssignExpr) (Value, error) {
	rhs, err := m.eval(fr, a.RHS)
	if err != nil {
		return Value{}, err
	}

	switch lhs := a.LHS.(type) {
	case *minic.Ident:
		cell := fr.lookup(lhs.Name)
		if cell == nil {
			return Value{}, m.errf(lhs.NodePos(), "undefined variable %q", lhs.Name)
		}
		var old Value
		if a.Op != minic.TokAssign {
			m.charge(CostLocal)
			old = *cell
		}
		nv, err := m.applyCompound(a.Op, old, rhs, a.NodePos())
		if err != nil {
			return Value{}, err
		}
		// Preserve the declared scalar kind of the cell.
		return m.storeScalarCell(cell, nv, lhs.NodePos())
	case *minic.IndexExpr:
		buf, i, err := m.evalIndexTarget(fr, lhs)
		if err != nil {
			return Value{}, err
		}
		var old Value
		if a.Op != minic.TokAssign {
			old, err = m.loadElem(buf, i, lhs.NodePos())
			if err != nil {
				return Value{}, err
			}
		}
		nv, err := m.applyCompound(a.Op, old, rhs, a.NodePos())
		if err != nil {
			return Value{}, err
		}
		if err := m.storeElem(buf, i, nv, lhs.NodePos()); err != nil {
			return Value{}, err
		}
		return nv, nil
	}
	return Value{}, m.errf(a.NodePos(), "invalid assignment target %T", a.LHS)
}

func (m *machine) evalIncDec(fr *frame, x *minic.IncDecExpr) (Value, error) {
	delta := int64(1)
	if x.Op == minic.TokMinusMinus {
		delta = -1
	}
	switch t := x.X.(type) {
	case *minic.Ident:
		cell := fr.lookup(t.Name)
		if cell == nil {
			return Value{}, m.errf(t.NodePos(), "undefined variable %q", t.Name)
		}
		return m.incDecCell(cell, delta, t.NodePos()) // postfix semantics
	case *minic.IndexExpr:
		buf, i, err := m.evalIndexTarget(fr, t)
		if err != nil {
			return Value{}, err
		}
		old, err := m.loadElem(buf, i, t.NodePos())
		if err != nil {
			return Value{}, err
		}
		nv := m.incDecElemValue(old, delta)
		if err := m.storeElem(buf, i, nv, t.NodePos()); err != nil {
			return Value{}, err
		}
		return old, nil
	}
	return Value{}, m.errf(x.NodePos(), "invalid ++/-- target %T", x.X)
}

func (m *machine) evalCall(fr *frame, c *minic.CallExpr) (Value, error) {
	// printf-family builtins capture output without evaluating format
	// strings for cost.
	if c.Fun == "printf" {
		return m.evalPrintf(fr, c)
	}
	if bi, ok := builtins[c.Fun]; ok {
		args := make([]Value, len(c.Args))
		for i, a := range c.Args {
			v, err := m.eval(fr, a)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return m.callBuiltin(c.Fun, bi, args, c.NodePos())
	}
	callee := m.prog.Func(c.Fun)
	if callee == nil {
		return Value{}, m.errf(c.NodePos(), "call to undefined function %q", c.Fun)
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := m.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return m.call(callee, args, c.NodePos())
}

func (m *machine) evalPrintf(fr *frame, c *minic.CallExpr) (Value, error) {
	var parts []string
	for _, a := range c.Args {
		if _, ok := a.(*minic.StringLit); ok {
			continue // format strings carry no data we need to capture
		}
		v, err := m.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		parts = append(parts, v.String())
	}
	if len(parts) > 0 {
		m.output = append(m.output, sprintParts(parts))
	}
	return Value{K: KVoid}, nil
}
