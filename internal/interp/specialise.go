package interp

import (
	"math"

	"psaflow/internal/minic"
)

// Lowering-time specialisation. MiniC kinds are static (bytecode.go,
// exprKind), so the lowering ends by giving every generic instruction whose
// operand kinds are all numeric a specialised opcode whose result
// construction and cost accounting were baked from those kinds:
//
//   - the arithmetic: the token switch, kind promotion, and float32
//     rounding decisions collapse to a baked operator and result kind;
//   - the accounting: per-operand CostLocal charges, the operation
//     costs, FLOP/IntOp counts, and Load/StoreBytes deltas fold into
//     single precomputed per-instruction sums (cycle sums stay exact:
//     every cost constant is a dyadic rational, so float64 addition of
//     any regrouping is associative here).
//
// The operands are read through the instruction's own bopnds and btargets,
// and a specialised arm checks no kind. Two checks stay, made before any
// write: an index out of bounds and a zero divisor run the instruction's
// generic arm (gop) once, which raises the byte-identical error with the
// generic accounting. Shapes outside the baked set keep their generic
// opcode.

// Baked arithmetic operators.
const (
	qAdd uint8 = iota
	qSub
	qMul
	qDiv
	qMod
)

// qinfo is the baked plan of one specialised instruction; the plans of a
// function share one slab (bcompiler.specialise).
type qinfo struct {
	// Precomputed accounting, committed after the bounds and divisor checks.
	cyc    float64
	flops  int64
	intops int64
	lbytes int64
	sbytes int64

	rk    ValKind // combine/assign result kind (FF: KFloat iff both KFloat)
	cellK ValKind // declared cell kind (opQAcc*, opQBinDecl*, opQDecl*)
	op    uint8   // combine operator
	cop   uint8   // compound-assign operator (acc)
	acc   bool    // compound (+= etc.) vs plain = (opQAcc*/opQStore*)
}

// qrnd is the float32 rounding every KFloat value passes through.
func qrnd(f float64) float64 { return float64(float32(f)) }

// qix reads one int index component: a register or an int literal.
func qix(regs []Value, o *bopnd) int64 {
	if o.mode == omConst {
		return o.val.I
	}
	return regs[o.ref].I
}

// qresolve resolves a specialised target to (buffer, index); ok is false
// when the index is out of bounds (the generic arm reports the error).
func qresolve(regs []Value, t *btarget) (*Buffer, int64, bool) {
	b := regs[t.base.ref].Buf
	var i int64
	switch {
	case t.fused2:
		i = qix(regs, &t.idx2a) * qix(regs, &t.idx2b)
		if t.idxOp == minic.TokPlus {
			i += qix(regs, &t.idxB)
		} else {
			i -= qix(regs, &t.idxB)
		}
	case t.fused:
		x, y := qix(regs, &t.idx), qix(regs, &t.idxB)
		switch t.idxOp {
		case minic.TokPlus:
			i = x + y
		case minic.TokMinus:
			i = x - y
		default:
			i = x * y
		}
	default:
		i = qix(regs, &t.idx)
	}
	n := len(b.F)
	if t.base.ek == uint8(minic.Int) {
		n = len(b.I)
	}
	return b, i, uint64(i) < uint64(n)
}

// qarithF / qarithI apply a baked operator. Like qcoerceF / qcoerceI
// below they exist once so the specialised arms of dispatch need not each
// carry a copy, and they must stay small enough to inline there (scripts/ci.sh
// counts the call sites -gcflags=-m inlines): a call per dispatch is
// measurable. A zero divisor never reaches them.
func qarithF(op uint8, a, b float64) float64 {
	switch op {
	case qAdd:
		return a + b
	case qSub:
		return a - b
	case qMul:
		return a * b
	}
	return a / b
}

func qarithI(op uint8, a, b int64) int64 {
	switch op {
	case qAdd:
		return a + b
	case qSub:
		return a - b
	case qMul:
		return a * b
	case qDiv:
		return a / b
	}
	return a % b
}

// qcoerceF / qcoerceI are the baked declared-type coercion of a float or
// int value to cell kind k (KInt, KFloat or KDouble; see qdeclKind).
func qcoerceF(k ValKind, f float64) Value {
	switch k {
	case KFloat:
		return Value{K: KFloat, F: qrnd(f)}
	case KDouble:
		return Value{K: KDouble, F: f}
	}
	return Value{K: KInt, I: int64(math.Trunc(f))} // AsInt truncates toward zero
}

func qcoerceI(k ValKind, i int64) Value {
	switch k {
	case KInt:
		return Value{K: KInt, I: i}
	case KFloat:
		return Value{K: KFloat, F: qrnd(float64(i))}
	}
	return Value{K: KDouble, F: float64(i)}
}

// qtrafIn / qtrafOut commit watched traffic for one element access; the
// caller has already checked watchDepth > 0 and buf != nil.
func (m *machine) qtrafIn(buf *Buffer) {
	if t := m.trafficOf(buf); t != nil {
		t.BytesIn += buf.ElemBytes()
		t.ElemReads++
	}
}

func (m *machine) qtrafOut(buf *Buffer) {
	if t := m.trafficOf(buf); t != nil {
		t.BytesOut += buf.ElemBytes()
		t.ElemWrites++
	}
}

// ---------------------------------------------------------------------------
// The bake pass. Runs once per instruction, at the end of lowering, on the
// static kinds the operands carry.

// qopcost maps a baked operator to its cycle cost; a compound `/=` costs
// CostDivF whatever its kinds (applyCompound), so it passes ints false.
func qopcost(op uint8, ints bool) float64 {
	switch op {
	case qAdd, qSub:
		return CostAddSub
	case qMul:
		return CostMul
	case qMod:
		return CostDivInt
	}
	if ints {
		return CostDivInt
	}
	return CostDivF
}

// qarith maps an arithmetic or compound-assignment token to a baked
// operator.
func qarith(tok minic.TokKind) (uint8, bool) {
	switch tok {
	case minic.TokPlus, minic.TokPlusEq:
		return qAdd, true
	case minic.TokMinus, minic.TokMinusEq:
		return qSub, true
	case minic.TokStar, minic.TokStarEq:
		return qMul, true
	case minic.TokSlash, minic.TokSlashEq:
		return qDiv, true
	case minic.TokPercent:
		return qMod, true
	}
	return 0, false
}

func qIsCmp(tok minic.TokKind) bool {
	switch tok {
	case minic.TokLt, minic.TokGt, minic.TokLe, minic.TokGe, minic.TokEqEq, minic.TokNe:
		return true
	}
	return false
}

func qIsFloat(k ValKind) bool { return k == KFloat || k == KDouble }

// qdeclKind maps a declared type to the cell kind a baked declaration or
// assignment coerces to; pointers and the non-numeric kinds stay generic.
func qdeclKind(t minic.Type) (ValKind, bool) {
	if t.Ptr {
		return KVoid, false
	}
	switch t.Kind {
	case minic.Int:
		return KInt, true
	case minic.Float:
		return KFloat, true
	case minic.Double:
		return KDouble, true
	}
	return KVoid, false
}

// bakeIx accounts one index component; it bakes only as an int register
// or literal.
func bakeIx(o *bopnd, q *qinfo) bool {
	switch o.mode {
	case omVar:
		q.cyc += CostLocal
	case omPlain, omConst:
	default:
		return false
	}
	return ValKind(o.vk) == KInt
}

// bakeTarget accounts a target's resolve — base fetch, index fetches, and
// index arithmetic, but NOT the element load/store itself (the consumer
// adds those). It bakes a buffer base with int index components, combined
// as resolveTgtNB's int fast path does: + - * for one fused binary,
// (x * y) ± z for the two-level one.
func bakeTarget(t *btarget, q *qinfo) bool {
	switch t.base.mode {
	case omVar:
		q.cyc += CostLocal
	case omPlain:
	default:
		return false
	}
	if ValKind(t.base.vk) != KBuf {
		return false
	}
	switch {
	case t.fused2:
		if t.idxOp2 != minic.TokStar || t.idxOp != minic.TokPlus && t.idxOp != minic.TokMinus {
			return false
		}
		q.cyc += CostMul + CostAddSub
		q.intops += 2
		return bakeIx(&t.idx2a, q) && bakeIx(&t.idx2b, q) && bakeIx(&t.idxB, q)
	case t.fused:
		op, ok := qarith(t.idxOp)
		if !ok || op > qMul {
			return false
		}
		q.cyc += qopcost(op, true)
		q.intops++
		return bakeIx(&t.idx, q) && bakeIx(&t.idxB, q)
	}
	return bakeIx(&t.idx, q)
}

// bakeOperand accounts one combine operand's fetch and returns its kind;
// ok only where that kind is numeric.
func bakeOperand(o *bopnd, q *qinfo) (k ValKind, ok bool) {
	switch o.mode {
	case omVar:
		q.cyc += CostLocal
	case omPlain, omConst:
	case omIdx:
		if !bakeTarget(o.tgt, q) {
			return KVoid, false
		}
		q.cyc += CostLoad
		q.lbytes += minic.BasicKind(o.tgt.base.ek).Size()
	default:
		return KVoid, false
	}
	k = ValKind(o.vk)
	return k, k == KInt || qIsFloat(k)
}

// bake builds the plan and specialised opcode of one generic instruction,
// or returns opNop where its shape or kinds are outside the baked set.
func bake(in *binstr) (qinfo, opcode) {
	switch in.op {
	case opBinary, opCmpBranch, opBinDeclVar, opBinAssignVar:
		return bakeBinary(in)
	case opStoreIdx:
		return bakeStore(in)
	case opDeclVar:
		return bakeDecl(in)
	case opLoadIdx:
		return bakeLoad(in)
	case opBuiltin:
		return bakeBuiltin(in)
	}
	return qinfo{}, opNop
}

// bakeBinary bakes the superinstruction family: a binary over two
// operands of one kind class (both int or both float), consumed by a
// register, a compare-and-branch, a declaration, or a cell assignment.
func bakeBinary(in *binstr) (q qinfo, op opcode) {
	tok := in.tok
	if in.op == opBinAssignVar || in.op == opBinDeclVar {
		tok = in.tok2
	}
	lk, lok := bakeOperand(&in.a, &q)
	rk, rok := bakeOperand(&in.b, &q)
	ints := lk == KInt && rk == KInt
	if !lok || !rok || !ints && (!qIsFloat(lk) || !qIsFloat(rk)) {
		return q, opNop
	}

	// Comparison consumer: opCmpBranch, which every condition but && and
	// || lowers to. Only a compare whose bool is a value (an operand of &&
	// or ||, say) stays generic, and so does a condition that is no compare.
	if cmp := qIsCmp(tok); cmp || in.op == opCmpBranch {
		if !cmp || in.op != opCmpBranch {
			return q, opNop
		}
		q.cyc += CostCmp + CostBranch
		if ints {
			return q, opQCmpBrII
		}
		return q, opQCmpBrFF
	}
	var ok bool
	if q.op, ok = qarith(tok); !ok || q.op == qMod && !ints {
		return q, opNop // % on floats keeps its error generic
	}
	q.cyc += qopcost(q.op, ints)
	switch {
	case ints:
		q.intops++
		q.rk = KInt
	case lk == KFloat && rk == KFloat:
		q.flops++
		q.rk = KFloat
	default:
		q.flops++
		q.rk = KDouble
	}

	switch in.op {
	case opBinary:
		if ints {
			return q, opQBinII
		}
		return q, opQBinFF
	case opBinDeclVar:
		if q.cellK, ok = qdeclKind(in.typ); !ok {
			return q, opNop
		}
		q.cyc += CostLocal
		if ints {
			return q, opQBinDeclII
		}
		return q, opQBinDeclFF
	}
	// opBinAssignVar: the cell keeps its declared kind, int for an int
	// combine and a float kind for a float one.
	if q.cellK, ok = qdeclKind(in.typ); !ok || ints != (q.cellK == KInt) {
		return q, opNop
	}
	q.cyc += CostLocal
	if in.tok != minic.TokAssign {
		if q.cop, ok = qarith(in.tok); !ok {
			return q, opNop
		}
		q.acc = true
		q.cyc += CostLocal + qopcost(q.cop, false) // the old-value read, the combine
		if ints {
			q.intops++
		} else {
			q.flops++
		}
	}
	if ints {
		return q, opQAccII
	}
	return q, opQAccFF
}

// bakeDecl bakes a single-operand opDeclVar — the indexed-initializer
// declarations (`double gold = gates[c*20+g]`) the binary-decl
// superinstruction cannot cover, and the literal and copy ones.
func bakeDecl(in *binstr) (q qinfo, op opcode) {
	k, ok := bakeOperand(&in.a, &q)
	if !ok {
		return q, opNop
	}
	if q.cellK, ok = qdeclKind(in.typ); !ok {
		return q, opNop
	}
	q.cyc += CostLocal
	if k == KInt {
		return q, opQDeclI
	}
	return q, opQDeclF
}

// bakeLoad bakes an opLoadIdx (a non-fused indexed read into a register).
func bakeLoad(in *binstr) (q qinfo, op opcode) {
	if !bakeTarget(in.tgt, &q) {
		return q, opNop
	}
	q.cyc += CostLoad
	q.lbytes += minic.BasicKind(in.tgt.base.ek).Size()
	q.rk = ValKind(elemKind(in.tgt.base.ek))
	return q, opQLoad
}

// bakeBuiltin bakes a fused opBuiltin call to a scalar float intrinsic
// (a libm or fast-math form) on float operands: the math function is called
// directly, skipping the []Value wrapper. Arity mismatches (a guaranteed
// runtime error) and the int intrinsics (abs/min/max) stay generic.
func bakeBuiltin(in *binstr) (q qinfo, op opcode) {
	bi := &in.bi
	if !in.fused || int(in.n) != bi.arity {
		return q, opNop
	}
	switch {
	case bi.arity == 1 && bi.s1 != nil:
		k, ok := bakeOperand(&in.a, &q)
		if !ok || !qIsFloat(k) {
			return q, opNop
		}
		op = opQMath1
	case bi.arity == 2 && bi.s2 != nil:
		lk, lok := bakeOperand(&in.a, &q)
		rk, rok := bakeOperand(&in.b, &q)
		if !lok || !rok || !qIsFloat(lk) || !qIsFloat(rk) {
			return q, opNop
		}
		op = opQMath2
	default:
		return q, opNop
	}
	q.cyc += bi.cost
	q.flops += bi.flops
	q.rk = KDouble
	if bi.rnd {
		q.rk = KFloat
	}
	return q, op
}

// bakeStore bakes an opStoreIdx whose stored value and element are of one
// kind class.
func bakeStore(in *binstr) (q qinfo, op opcode) {
	rhsK, ok := bakeOperand(&in.a, &q)
	if !ok || !bakeTarget(in.tgt, &q) {
		return q, opNop
	}
	ek := in.tgt.base.ek
	elemK := ValKind(elemKind(ek))
	ints := elemK == KInt && rhsK == KInt
	if !ints && (!qIsFloat(elemK) || !qIsFloat(rhsK)) {
		return q, opNop
	}
	q.rk = rhsK
	if in.tok != minic.TokAssign {
		if q.cop, ok = qarith(in.tok); !ok {
			return q, opNop
		}
		q.acc = true
		// loadElem for the old value, then the compound combine.
		q.cyc += CostLoad + qopcost(q.cop, false)
		q.lbytes += minic.BasicKind(ek).Size()
		switch {
		case ints:
			q.intops++
		case elemK == KFloat && rhsK == KFloat:
			q.flops++
		default:
			q.flops++
			q.rk = KDouble
		}
	}
	q.cyc += CostStore
	q.sbytes += minic.BasicKind(ek).Size()
	if ints {
		return q, opQStoreI
	}
	return q, opQStoreF
}
