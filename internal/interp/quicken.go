package interp

import (
	"math"

	"psaflow/internal/minic"
)

// Runtime quickening: once a generic superinstruction has executed
// defaultQuickenThreshold times, the dispatch loop rewrites it in place
// to a type-specialized opcode whose operand plan, result construction,
// and cost accounting were baked from the kinds observed at the rewrite
// point. A quickened instruction re-checks those assumptions with cheap
// guards (exact value kinds, buffer element kinds, index bounds) and
// deoptimizes back to the generic opcode on any miss, so quickened
// execution is bit-for-bit equivalent to generic execution: guards and
// operand fetches are side-effect-free, every profile/accounting write
// happens only after all guards pass, and a deopt re-executes the
// instruction generically — reproducing slow-path results and runtime
// errors (division by zero, bounds) exactly, with exactly the generic
// accounting.
//
// What gets baked:
//
//   - operand plans (qopnd): constant payloads pre-extracted, register
//     reads guarded on the exact ValKind, indexed loads guarded on the
//     base register holding a buffer of the observed element kind with
//     an in-bounds integer index;
//   - the arithmetic: the token switch, kind promotion, and float32
//     rounding decisions collapse to a baked operator and result kind;
//   - the accounting: per-operand CostLocal charges, the operation
//     costs, FLOP/IntOp counts, and Load/StoreBytes deltas fold into
//     single precomputed per-instruction sums (cycle sums stay exact:
//     every cost constant is a dyadic rational, so float64 addition of
//     any regrouping is associative here).
//
// Division and modulo never quicken: their zero-divisor runtime errors
// would need error paths inside the quickened case for no benchmark
// benefit. Shapes outside the baked set pin themselves generic
// (hot = math.MinInt32) and are never re-examined.

// Baked arithmetic operators.
const (
	qAdd uint8 = iota
	qSub
	qMul
)

// Operand plans.
const (
	qoConst uint8 = iota // payload pre-extracted into f / i
	qoReg                // regs[ref], guarded on exact value kind
	qoIdx                // buffer element load: base/kind/index/bounds guarded
)

// Index plans for qoIdx.
const (
	qiConst uint8 = iota // precomputed index in i
	qiReg                // regs[ia.ref], guarded KInt
	qiBin                // ia ⊗ ib (iop), int fast path
	qiBin2               // (ia * ib) ⊕ ic (iop), the row-major a[i*K+j]
)

// qix is one integer index component: a guarded register or a constant.
type qix struct {
	isConst bool
	ref     int32
	k       int64
}

// qopnd is one baked operand (or store-target) plan.
type qopnd struct {
	plan       uint8
	iplan      uint8   // index plan (qoIdx)
	iop        uint8   // index binary operator (qiBin: + - *; qiBin2 outer: + -)
	round      bool    // qoIdx: element loads round through float32 (Float elems)
	kind       ValKind // qoReg: guarded value kind
	ekind      minic.BasicKind
	ref        int32 // qoReg value register / qoIdx base register
	f          float64
	i          int64 // qoConst payload; qiConst index
	ebytes     int64
	ia, ib, ic qix
}

// qinfo is the baked form of one quickened instruction.
type qinfo struct {
	a, b qopnd // operands (b: second combine operand; unused by opQStore*)
	tgt  qopnd // store target (opQStore*)

	// Precomputed accounting, committed only after every guard passes.
	cyc    float64
	flops  int64
	intops int64
	lbytes int64
	sbytes int64

	op    uint8         // combine operator
	cop   uint8         // compound-assign operator (opQAcc*/opQStore* with acc)
	acc   bool          // compound (+= etc.) vs plain = (opQAcc*/opQStore*)
	cmp   minic.TokKind // comparison token (opQCmpBr*)
	rk    ValKind       // combine/assign result kind (FF: KFloat iff both KFloat)
	cellK ValKind       // guarded cell kind (opQAcc*) / baked decl kind (opQBinDecl*)

	// Scalar math intrinsics (opQMath1/opQMath2): the unwrapped float
	// function and its special-FLOP weight (0 when the builtin does not
	// count as a special function).
	mfn1   func(float64) float64
	mfn2   func(float64, float64) float64
	sflops int64
}

// qrnd is the float32 rounding every KFloat value passes through.
func qrnd(f float64) float64 { return float64(float32(f)) }

// qix1 fetches one index component. Pure; ok=false on a kind guard miss.
func qix1(regs []Value, x *qix) (int64, bool) {
	if x.isConst {
		return x.k, true
	}
	v := &regs[x.ref]
	if v.K != KInt {
		return 0, false
	}
	return v.I, true
}

// qindex computes a baked index plan. Pure; ok=false on a guard miss.
func qindex(regs []Value, o *qopnd) (int64, bool) {
	switch o.iplan {
	case qiConst:
		return o.i, true
	case qiReg:
		v := &regs[o.ia.ref]
		if v.K != KInt {
			return 0, false
		}
		return v.I, true
	case qiBin:
		a, ok := qix1(regs, &o.ia)
		if !ok {
			return 0, false
		}
		b, ok := qix1(regs, &o.ib)
		if !ok {
			return 0, false
		}
		switch o.iop {
		case qAdd:
			return a + b, true
		case qSub:
			return a - b, true
		default:
			return a * b, true
		}
	default: // qiBin2
		a, ok := qix1(regs, &o.ia)
		if !ok {
			return 0, false
		}
		b, ok := qix1(regs, &o.ib)
		if !ok {
			return 0, false
		}
		c, ok := qix1(regs, &o.ic)
		if !ok {
			return 0, false
		}
		if o.iop == qAdd {
			return a*b + c, true
		}
		return a*b - c, true
	}
}

// qresolve resolves a qoIdx plan to (buffer, index). Pure; ok=false on
// any guard miss, including bounds (the generic re-execution reports the
// exact bounds error).
func qresolve(regs []Value, o *qopnd) (*Buffer, int64, bool) {
	bv := &regs[o.ref]
	if bv.K != KBuf {
		return nil, 0, false
	}
	b := bv.Buf
	if b.Kind != o.ekind {
		return nil, 0, false
	}
	i, ok := qindex(regs, o)
	if !ok {
		return nil, 0, false
	}
	if o.ekind == minic.Int {
		if uint64(i) >= uint64(len(b.I)) {
			return nil, 0, false
		}
	} else if uint64(i) >= uint64(len(b.F)) {
		return nil, 0, false
	}
	return b, i, true
}

// qarithF / qarithI apply a baked operator. Like qcoerceF / qcoerceI
// below they exist once so the quickened arms of dispatch need not each
// carry a copy, and they must stay small enough to inline there (check
// with -gcflags=-m): a call per quickened dispatch is measurable.
func qarithF(op uint8, a, b float64) float64 {
	switch op {
	case qAdd:
		return a + b
	case qSub:
		return a - b
	}
	return a * b
}

func qarithI(op uint8, a, b int64) int64 {
	switch op {
	case qAdd:
		return a + b
	case qSub:
		return a - b
	}
	return a * b
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
func (m *machine) qtrafIn(buf *Buffer, nbytes int64) {
	if t := m.trafficOf(buf); t != nil {
		t.BytesIn += nbytes
		t.ElemReads++
	}
}

func (m *machine) qtrafOut(buf *Buffer, nbytes int64) {
	if t := m.trafficOf(buf); t != nil {
		t.BytesOut += nbytes
		t.ElemWrites++
	}
}

// ---------------------------------------------------------------------------
// The quickener (bake pass). Runs once per instruction, at the hot trip.

// quicken attempts the in-place rewrite of a hot generic instruction,
// using the operand kinds observed in the current frame. Returns true on
// success (the dispatch loop re-dispatches under the quickened opcode);
// on failure the instruction pins itself generic and is never
// re-examined.
func (m *machine) quicken(in *binstr, fr *bframe) bool {
	q, op := bakeQuicken(in, fr.regs)
	if q == nil {
		in.hot = math.MinInt32
		return false
	}
	in.q = q
	in.gop = in.op
	in.op = op
	m.qRewrites++
	return true
}

// qopcost maps a baked operator to its cycle cost.
func qopcost(op uint8) float64 {
	if op == qMul {
		return CostMul
	}
	return CostAddSub
}

// qarith maps an arithmetic token to a baked operator.
func qarith(tok minic.TokKind) (uint8, bool) {
	switch tok {
	case minic.TokPlus, minic.TokPlusEq:
		return qAdd, true
	case minic.TokMinus, minic.TokMinusEq:
		return qSub, true
	case minic.TokStar, minic.TokStarEq:
		return qMul, true
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

// qelemBytes mirrors Buffer.ElemBytes for a baked element kind.
func qelemBytes(k minic.BasicKind) int64 {
	if k == minic.Double {
		return 8
	}
	return 4
}

// qelemKind maps a buffer element kind to the ValKind loadElem produces.
func qelemKind(k minic.BasicKind) ValKind {
	switch k {
	case minic.Int:
		return KInt
	case minic.Float:
		return KFloat
	default:
		return KDouble
	}
}

// qbakeIx bakes one index component (omVar/omConst/omPlain register or
// int constant), accumulating its fetch cost. Fused index components
// must be KInt for the generic int fast path; anything else fails.
func qbakeIx(o *bopnd, regs []Value, cyc *float64) (qix, bool) {
	switch o.mode {
	case omPlain:
		if regs[o.ref].K != KInt {
			return qix{}, false
		}
		return qix{ref: o.ref}, true
	case omVar:
		if regs[o.ref].K != KInt {
			return qix{}, false
		}
		*cyc += CostLocal
		return qix{ref: o.ref}, true
	case omConst:
		if o.val.K != KInt {
			return qix{}, false
		}
		return qix{isConst: true, k: o.val.I}, true
	}
	return qix{}, false
}

// qbakeTarget bakes a btarget into a qoIdx plan (base register, element
// kind, index computation) and accumulates the target's resolve cost —
// base fetch, index fetches, and index arithmetic, but NOT the element
// load/store itself (the consumer adds those).
func qbakeTarget(t *btarget, regs []Value, cyc *float64, intops *int64) (qopnd, bool) {
	var p qopnd
	p.plan = qoIdx
	switch t.base.mode {
	case omPlain:
	case omVar:
		*cyc += CostLocal
	default:
		return p, false
	}
	bv := regs[t.base.ref]
	if bv.K != KBuf || bv.Buf == nil {
		return p, false
	}
	p.ref = t.base.ref
	p.ekind = bv.Buf.Kind
	p.round = p.ekind == minic.Float
	p.ebytes = qelemBytes(p.ekind)
	switch {
	case t.fused2:
		// (ia * ib) ⊕ ic — the generic fast path requires the inner op
		// to be * and all components KInt.
		if t.idxOp2 != minic.TokStar {
			return p, false
		}
		op, ok := qarith(t.idxOp)
		if !ok || op == qMul {
			return p, false
		}
		if p.ia, ok = qbakeIx(&t.idx2a, regs, cyc); !ok {
			return p, false
		}
		if p.ib, ok = qbakeIx(&t.idx2b, regs, cyc); !ok {
			return p, false
		}
		*cyc += CostMul
		*intops++
		if p.ic, ok = qbakeIx(&t.idxB, regs, cyc); !ok {
			return p, false
		}
		*cyc += CostAddSub
		*intops++
		p.iplan, p.iop = qiBin2, op
	case t.fused:
		op, ok := qarith(t.idxOp)
		if !ok {
			return p, false
		}
		if p.ia, ok = qbakeIx(&t.idx, regs, cyc); !ok {
			return p, false
		}
		if p.ib, ok = qbakeIx(&t.idxB, regs, cyc); !ok {
			return p, false
		}
		*cyc += qopcost(op)
		*intops++
		p.iplan, p.iop = qiBin, op
	default:
		switch t.idx.mode {
		case omPlain:
			if regs[t.idx.ref].K != KInt {
				return p, false
			}
			p.iplan = qiReg
			p.ia = qix{ref: t.idx.ref}
		case omVar:
			if regs[t.idx.ref].K != KInt {
				return p, false
			}
			*cyc += CostLocal
			p.iplan = qiReg
			p.ia = qix{ref: t.idx.ref}
		case omConst:
			// A plain constant index truncates via AsInt in the generic
			// path, so any numeric literal bakes.
			if !t.idx.val.IsNumeric() {
				return p, false
			}
			p.iplan = qiConst
			p.i = t.idx.val.AsInt()
		default:
			return p, false
		}
	}
	return p, true
}

// qbakeOperand bakes one combine operand, returning its plan, observed
// value kind, and accumulated fetch accounting.
func qbakeOperand(o *bopnd, regs []Value, cyc *float64, intops, lbytes *int64) (qopnd, ValKind, bool) {
	var p qopnd
	switch o.mode {
	case omPlain, omVar:
		v := regs[o.ref]
		if v.K != KInt && v.K != KFloat && v.K != KDouble {
			return p, KVoid, false
		}
		if o.mode == omVar {
			*cyc += CostLocal
		}
		p.plan = qoReg
		p.kind = v.K
		p.ref = o.ref
		return p, v.K, true
	case omConst:
		v := o.val
		if v.K != KInt && v.K != KFloat && v.K != KDouble {
			return p, KVoid, false
		}
		p.plan = qoConst
		p.f = v.F
		p.i = v.I
		return p, v.K, true
	case omIdx:
		p, ok := qbakeTarget(o.tgt, regs, cyc, intops)
		if !ok {
			return p, KVoid, false
		}
		*cyc += CostLoad
		*lbytes += p.ebytes
		return p, qelemKind(p.ekind), true
	}
	return p, KVoid, false
}

func qIsFloat(k ValKind) bool { return k == KFloat || k == KDouble }

// qdeclKind maps a declared type to the cell kind a baked declaration
// coerces to; pointers and the non-numeric kinds stay generic.
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

// bakeQuicken builds the baked form for one hot generic instruction, or
// returns nil if its shape is outside the quickenable set.
func bakeQuicken(in *binstr, regs []Value) (*qinfo, opcode) {
	switch in.op {
	case opBinary, opCmpBranch, opBinDeclVar, opBinAssignVar:
	case opStoreIdx:
		return bakeStore(in, regs)
	case opDeclVar:
		return bakeDecl(in, regs)
	case opLoadIdx:
		return bakeLoad(in, regs)
	case opBuiltin:
		return bakeBuiltin(in, regs)
	default:
		return nil, opNop
	}

	tok := in.tok
	if in.op == opBinAssignVar || in.op == opBinDeclVar {
		tok = in.tok2
	}
	q := &qinfo{}
	a, lk, ok := qbakeOperand(&in.a, regs, &q.cyc, &q.intops, &q.lbytes)
	if !ok {
		return nil, opNop
	}
	b, rk, ok := qbakeOperand(&in.b, regs, &q.cyc, &q.intops, &q.lbytes)
	if !ok {
		return nil, opNop
	}
	q.a, q.b = a, b

	ints := lk == KInt && rk == KInt
	floats := qIsFloat(lk) && qIsFloat(rk)
	if !ints && !floats {
		return nil, opNop
	}

	// Comparison consumer: only opCmpBranch (a standalone compare
	// producing a bool register stays generic — it never dominates).
	if qIsCmp(tok) {
		if in.op != opCmpBranch {
			return nil, opNop
		}
		q.cmp = tok
		q.cyc += CostCmp + CostBranch
		if ints {
			return q, opQCmpBrII
		}
		return q, opQCmpBrFF
	}
	op, ok := qarith(tok)
	if !ok {
		return nil, opNop // div/mod keep their zero-divisor error paths generic
	}
	q.op = op
	q.cyc += qopcost(op)
	if ints {
		q.intops++
		q.rk = KInt
	} else {
		q.flops++
		if lk == KFloat && rk == KFloat {
			q.rk = KFloat
		} else {
			q.rk = KDouble
		}
	}

	switch in.op {
	case opBinary:
		if ints {
			return q, opQBinII
		}
		return q, opQBinFF
	case opBinDeclVar:
		if q.cellK, ok = qdeclKind(in.typ); !ok {
			return nil, opNop
		}
		q.cyc += CostLocal
		if ints {
			return q, opQBinDeclII
		}
		return q, opQBinDeclFF
	default: // opBinAssignVar
		cellK := regs[in.reg].K
		q.cellK = cellK
		switch in.tok {
		case minic.TokAssign:
			q.cyc += CostLocal
		case minic.TokPlusEq, minic.TokMinusEq, minic.TokStarEq:
			q.acc = true
			q.cop, _ = qarith(in.tok)
			q.cyc += CostLocal + qopcost(q.cop) + CostLocal
			if ints {
				q.intops++
			} else {
				q.flops++
			}
		default:
			return nil, opNop // /= keeps its zero-divisor error path generic
		}
		if ints {
			if cellK != KInt {
				return nil, opNop
			}
			return q, opQAccII
		}
		if !qIsFloat(cellK) {
			return nil, opNop
		}
		return q, opQAccFF
	}
}

// bakeDecl builds the baked form of a hot single-operand opDeclVar — the
// indexed-initializer declarations (`double gold = gates[c*20+g]`) the
// binary-decl superinstruction cannot cover.
func bakeDecl(in *binstr, regs []Value) (*qinfo, opcode) {
	if in.a.mode == omNone {
		return nil, opNop
	}
	q := &qinfo{}
	a, k, ok := qbakeOperand(&in.a, regs, &q.cyc, &q.intops, &q.lbytes)
	if !ok {
		return nil, opNop
	}
	q.a = a
	if q.cellK, ok = qdeclKind(in.typ); !ok {
		return nil, opNop
	}
	q.cyc += CostLocal
	if k == KInt {
		return q, opQDeclI
	}
	return q, opQDeclF
}

// bakeLoad builds the baked form of a hot opLoadIdx (a non-fused indexed
// read into a register).
func bakeLoad(in *binstr, regs []Value) (*qinfo, opcode) {
	q := &qinfo{}
	tgt, ok := qbakeTarget(in.tgt, regs, &q.cyc, &q.intops)
	if !ok {
		return nil, opNop
	}
	q.tgt = tgt
	q.cyc += CostLoad
	q.lbytes += tgt.ebytes
	q.rk = qelemKind(tgt.ekind)
	return q, opQLoad
}

// bakeBuiltin builds the baked form of a hot fused opBuiltin call to a
// scalar float intrinsic (exp, sqrtf, ...): the math function is called
// directly on guarded float operands, skipping the []Value wrapper.
// Arity mismatches (a guaranteed runtime error) and the int intrinsics
// (abs/min/max) stay generic.
func bakeBuiltin(in *binstr, regs []Value) (*qinfo, opcode) {
	if !in.fused || int(in.n) != in.bi.arity {
		return nil, opNop
	}
	q := &qinfo{}
	op := opQMath1
	switch in.bi.arity {
	case 1:
		if in.bi.s1 == nil {
			return nil, opNop
		}
		a, k, ok := qbakeOperand(&in.a, regs, &q.cyc, &q.intops, &q.lbytes)
		if !ok || !qIsFloat(k) {
			return nil, opNop
		}
		q.a = a
		q.mfn1 = in.bi.s1
	case 2:
		if in.bi.s2 == nil {
			return nil, opNop
		}
		a, lk, ok := qbakeOperand(&in.a, regs, &q.cyc, &q.intops, &q.lbytes)
		if !ok || !qIsFloat(lk) {
			return nil, opNop
		}
		b, rk, ok := qbakeOperand(&in.b, regs, &q.cyc, &q.intops, &q.lbytes)
		if !ok || !qIsFloat(rk) {
			return nil, opNop
		}
		q.a, q.b = a, b
		q.mfn2 = in.bi.s2
		op = opQMath2
	default:
		return nil, opNop
	}
	q.cyc += in.bi.cost
	q.flops += in.bi.flops
	if in.bi.flops > 1 {
		q.sflops = in.bi.flops
	}
	if in.bi.rnd {
		q.rk = KFloat
	} else {
		q.rk = KDouble
	}
	return q, op
}

// bakeStore builds the baked form of a hot opStoreIdx.
func bakeStore(in *binstr, regs []Value) (*qinfo, opcode) {
	q := &qinfo{}
	a, rhsK, ok := qbakeOperand(&in.a, regs, &q.cyc, &q.intops, &q.lbytes)
	if !ok {
		return nil, opNop
	}
	q.a = a
	tgt, ok := qbakeTarget(in.tgt, regs, &q.cyc, &q.intops)
	if !ok {
		return nil, opNop
	}
	q.tgt = tgt
	elemK := qelemKind(tgt.ekind)
	ints := elemK == KInt && rhsK == KInt
	floats := qIsFloat(elemK) && qIsFloat(rhsK)
	if !ints && !floats {
		return nil, opNop
	}
	switch in.tok {
	case minic.TokAssign:
		q.rk = rhsK
	case minic.TokPlusEq, minic.TokMinusEq, minic.TokStarEq:
		q.acc = true
		q.cop, _ = qarith(in.tok)
		// loadElem for the old value, then the compound combine.
		q.cyc += CostLoad + qopcost(q.cop)
		q.lbytes += tgt.ebytes
		if ints {
			q.intops++
			q.rk = KInt
		} else {
			q.flops++
			if elemK == KFloat && rhsK == KFloat {
				q.rk = KFloat
			} else {
				q.rk = KDouble
			}
		}
	default:
		return nil, opNop // /= keeps its zero-divisor error path generic
	}
	q.cyc += CostStore
	q.sbytes += tgt.ebytes
	if ints {
		return q, opQStoreI
	}
	return q, opQStoreF
}
