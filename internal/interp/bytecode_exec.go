package interp

import (
	"sync"

	"psaflow/internal/minic"
)

// The bytecode dispatch loop. One flat for/switch executes a lowered
// function (bytecode.go); all value, cost, and error semantics mirror the
// shared helpers in apply.go / eval.go so the engine stays bit-for-bit
// equivalent to the tree-walker.
//
// Two things make this loop fast without breaking equivalence:
//
//  1. Batched step accounting. Every instruction carries its static step
//     count (nsteps, computed by finalize), so the hot loop pays a single
//     add+compare for a whole superinstruction instead of one check per
//     fine-grained step. When the batch detects that the budget is crossed
//     inside the instruction, it rolls the batch back and execPrecise
//     replays the instruction with per-step checks, reproducing the exact
//     error the tree-walker reports. Between the checks of one
//     instruction there is no observation point — loop attribution, watch
//     transitions, and Run's final snapshot all happen at instruction or
//     call boundaries, and Run discards the profile on error — so batching
//     is unobservable.
//
//  2. Inlined hot paths, kept where alternating BenchmarkInterp pairs
//     showed a helper call costs speed and nowhere else (the table is in
//     docs/ARCHITECTURE.md, "What the VM hand-inlines, and why"): the
//     register/constant operand fetch, the opBinary family's int/float
//     arithmetic, resolveTgtNB's int index arithmetic, opCast's coercion,
//     and the scalar arms of opAssignVar / opIncVar / opUnary. Indexed
//     operands, rare operators, mixed-kind arithmetic and the consumers
//     that run only where operand kinds do not specialise (opBinAssignVar,
//     opBinDeclVar, opDeclVar) call the shared helpers of apply.go.

// bactive is one running loop's profile attribution state.
type bactive struct {
	lp    *LoopProfile
	start float64
}

// bframe is one bytecode function activation.
type bframe struct {
	regs  []Value
	ret   Value
	loops []bactive
}

// callBytecode invokes a lowered function, mirroring machine.call. The
// escaped-break/continue check has no runtime counterpart here: the
// lowering already rewrote escaped control flow into opErrMsg.
func (m *machine) callBytecode(bf *bfunc, args []Value, pos minic.Pos) (Value, error) {
	fn := bf.decl
	if len(args) != len(fn.Params) {
		return Value{}, m.errf(pos, "call %s: %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	m.charge(CostCall)
	// Cancellation polling is folded into back-edges (opLoopBack) and
	// function entry; the fine-grained statement steps do not poll.
	if m.done != nil {
		m.cancelTick++
		if m.cancelTick%cancelCheckInterval == 0 {
			select {
			case <-m.done:
				return Value{}, &CancelError{Pos: pos, Cause: m.ctx.Err()}
			default:
			}
		}
	}
	fr := m.newFrame(bf.nregs)
	for i, p := range fn.Params {
		coerced, err := m.coerce(args[i], p.Type, pos)
		if err != nil {
			m.freeFrame(fr)
			return Value{}, m.errf(pos, "call %s param %s: %v", fn.Name, p.Name, err)
		}
		fr.regs[i] = coerced // params occupy the first registers in order
	}

	watching := fn.Name == m.watch
	var prevParamOf map[*Buffer]string
	if watching {
		prevParamOf = m.enterWatch(m.rec, fn.Params, args)
	}

	err := m.execBytecode(bf, fr)
	if watching {
		m.exitWatch(prevParamOf)
	}
	ret := fr.ret
	m.freeFrame(fr)
	if err != nil {
		return Value{}, err
	}
	return ret, nil
}

// frameArena recycles bytecode frames across machines (every Run builds a
// fresh machine, so a per-machine pool re-pays the frame and register
// allocations on each run — DSE sweeps and batched jobs do thousands).
// Pooled register contents need no zeroing: the lowering only emits
// register reads for resolved, already-declared variables and for
// temporaries the same expression wrote, so no program — including
// fuzzer-generated ones — can observe a stale register. The return slot
// is reset because void calls never write it.
var frameArena = sync.Pool{New: func() any { return new(bframe) }}

func (m *machine) newFrame(nregs int) *bframe {
	fr := frameArena.Get().(*bframe)
	if cap(fr.regs) >= nregs {
		fr.regs = fr.regs[:nregs]
	} else {
		fr.regs = make([]Value, nregs)
	}
	fr.ret = Value{}
	return fr
}

func (m *machine) freeFrame(fr *bframe) {
	frameArena.Put(fr)
}

// execBytecode runs the dispatch loop and then attributes any still-open
// loop timers and closes a still-open candidate scope — a return halts
// mid-loop, and errors unwind. Nothing is charged between the halt and the
// attribution (a return folds the dispatch-local counts first), so the
// totals equal the tree-walker's deferred per-loop attributions exactly.
func (m *machine) execBytecode(bf *bfunc, fr *bframe) error {
	err := m.dispatch(bf, fr)
	m.closeLoops(fr)
	return err
}

// closeLoops is that unwinding, innermost loop first. It is a no-op after a
// function that left its loops through their opLoopExit.
func (m *machine) closeLoops(fr *bframe) {
	for i := len(fr.loops) - 1; i >= 0; i-- {
		al := &fr.loops[i]
		al.lp.Cycles += m.prof.Cycles - al.start
		if al.lp == m.candLoop {
			m.exitCandidate()
		}
	}
	fr.loops = fr.loops[:0]
}

// enterCandidateBC is the out-of-line half of in, the opLoopEnter of a
// depth-1 loop that fr has just entered, in a run that watches its hotspot
// candidates: unless another candidate is active, it opens a watch scope on
// the loop with its free pointer variables, read from their registers, as
// the parameters.
func (m *machine) enterCandidateBC(fr *bframe, in *binstr) {
	lp := fr.loops[len(fr.loops)-1].lp
	rec := m.candidate(lp)
	if rec == nil {
		return
	}
	c := &in.fn.cands[in.n-1]
	args := m.cands.args[:0]
	for _, r := range c.regs {
		args = append(args, fr.regs[r])
	}
	m.cands.args = args
	m.openCandidate(lp, rec, c.params, args)
}

// cmpFloat evaluates one of the six comparison operators on float64
// operands, exactly as applyBinary's comparison arm does.
func cmpFloat(op minic.TokKind, lf, rf float64) bool {
	switch op {
	case minic.TokLt:
		return lf < rf
	case minic.TokGt:
		return lf > rf
	case minic.TokLe:
		return lf <= rf
	case minic.TokGe:
		return lf >= rf
	case minic.TokEqEq:
		return lf == rf
	}
	return lf != rf // TokNe
}

func (m *machine) dispatch(bf *bfunc, fr *bframe) error {
	code := bf.code
	regs := fr.regs
	pc := 0
	// Hot-path accounting lives in dispatch locals (registers) and is
	// folded back into the machine by dflush. The pending amounts are
	// pure sums, so their ordering against charges issued by out-of-line
	// helpers is immaterial; correctness only requires a fold at the
	// points that READ the run totals mid-run: loop enter/exit snapshots
	// (cycles), nested calls (steps), and the success-path returns.
	// Error returns skip the fold entirely — Run discards the profile,
	// counters, and result when the run errors.
	steps := m.steps
	var cyc float64
	var flops, intops, nInstr, nFused int64
	for pc < len(code) {
		in := &code[pc]
		pc++
		nInstr++
		if in.fused {
			nFused++
		}
		// Batched budget check for every fine-grained step this instruction
		// performs; a crossing inside the instruction replays precisely.
		if in.nsteps > 0 {
			steps += int64(in.nsteps)
			if steps > m.maxSteps {
				m.steps = steps - int64(in.nsteps)
				return m.execPrecise(fr, in)
			}
		}
		op := in.op
	redo:
		switch op {
		case opNop:
			// steps already charged

		case opEval:
			var v Value
			switch in.a.mode {
			case omPlain:
				v = regs[in.a.ref]
			case omVar:
				cyc += CostLocal
				v = regs[in.a.ref]
			case omConst:
				v = in.a.val
			default:
				var err error
				if v, err = m.operandNB(fr, &in.a); err != nil {
					return err
				}
			}
			if in.dst >= 0 {
				regs[in.dst] = v
			}

		case opUnary:
			var v Value
			switch in.a.mode {
			case omPlain:
				v = regs[in.a.ref]
			case omVar:
				cyc += CostLocal
				v = regs[in.a.ref]
			case omConst:
				v = in.a.val
			default:
				var err error
				if v, err = m.operandNB(fr, &in.a); err != nil {
					return err
				}
			}
			// applyUnary inlined
			var r Value
			switch {
			case in.tok == minic.TokNot:
				cyc += CostLogic
				r = BoolVal(!v.AsBool())
			case v.K == KInt:
				cyc += CostAddSub
				r = IntVal(-v.I)
			case v.K == KFloat:
				cyc += CostAddSub
				flops++
				r = FloatVal(-v.F)
			default:
				cyc += CostAddSub
				flops++
				r = DoubleVal(-v.AsFloat())
			}
			if in.dst >= 0 {
				regs[in.dst] = r
			}

		case opBinary, opCmpBranch, opBinAssignVar, opBinDeclVar:
			// The superinstruction family: fetch two fused operands,
			// combine, then consume (store to a register, compare-and-
			// branch, compound-assign, or declare-with-initializer).
			tok := in.tok
			bpos := in.pos
			if op == opBinAssignVar || op == opBinDeclVar {
				tok, bpos = in.tok2, in.pos2
			}
			var lv, rv Value
			switch in.a.mode {
			case omPlain:
				lv = regs[in.a.ref]
			case omVar:
				cyc += CostLocal
				lv = regs[in.a.ref]
			case omConst:
				lv = in.a.val
			default:
				var err error
				if lv, err = m.operandNB(fr, &in.a); err != nil {
					return err
				}
			}
			switch in.b.mode {
			case omPlain:
				rv = regs[in.b.ref]
			case omVar:
				cyc += CostLocal
				rv = regs[in.b.ref]
			case omConst:
				rv = in.b.val
			default:
				var err error
				if rv, err = m.operandNB(fr, &in.b); err != nil {
					return err
				}
			}
			// Hot arithmetic inlined (identical charges, counts, and
			// rounding); every other kind/op combination falls back to
			// applyBinary before any state is touched.
			var v Value
			if lv.K == KInt && rv.K == KInt {
				switch tok {
				case minic.TokLt, minic.TokGt, minic.TokLe, minic.TokGe, minic.TokEqEq, minic.TokNe:
					cyc += CostCmp
					v = BoolVal(cmpFloat(tok, float64(lv.I), float64(rv.I)))
				case minic.TokPlus:
					intops++
					cyc += CostAddSub
					v = IntVal(lv.I + rv.I)
				case minic.TokMinus:
					intops++
					cyc += CostAddSub
					v = IntVal(lv.I - rv.I)
				case minic.TokStar:
					intops++
					cyc += CostMul
					v = IntVal(lv.I * rv.I)
				case minic.TokSlash:
					// IntOps ordering vs the zero error is unobservable:
					// errors discard the profile.
					if rv.I == 0 {
						return m.errf(bpos, "integer division by zero")
					}
					intops++
					cyc += CostDivInt
					v = IntVal(lv.I / rv.I)
				case minic.TokPercent:
					if rv.I == 0 {
						return m.errf(bpos, "modulo by zero")
					}
					intops++
					cyc += CostDivInt
					v = IntVal(lv.I % rv.I)
				default:
					var err error
					if v, err = m.applyBinary(tok, lv, rv, bpos); err != nil {
						return err
					}
				}
			} else if (lv.K == KFloat || lv.K == KDouble) && (rv.K == KFloat || rv.K == KDouble) {
				switch tok {
				case minic.TokLt, minic.TokGt, minic.TokLe, minic.TokGe, minic.TokEqEq, minic.TokNe:
					cyc += CostCmp
					v = BoolVal(cmpFloat(tok, lv.F, rv.F))
				case minic.TokPlus:
					cyc += CostAddSub
					flops++
					if lv.K == KFloat && rv.K == KFloat {
						v = FloatVal(lv.F + rv.F)
					} else {
						v = DoubleVal(lv.F + rv.F)
					}
				case minic.TokMinus:
					cyc += CostAddSub
					flops++
					if lv.K == KFloat && rv.K == KFloat {
						v = FloatVal(lv.F - rv.F)
					} else {
						v = DoubleVal(lv.F - rv.F)
					}
				case minic.TokStar:
					cyc += CostMul
					flops++
					if lv.K == KFloat && rv.K == KFloat {
						v = FloatVal(lv.F * rv.F)
					} else {
						v = DoubleVal(lv.F * rv.F)
					}
				case minic.TokSlash:
					if rv.F == 0 {
						return m.errf(bpos, "floating division by zero")
					}
					cyc += CostDivF
					flops++
					if lv.K == KFloat && rv.K == KFloat {
						v = FloatVal(lv.F / rv.F)
					} else {
						v = DoubleVal(lv.F / rv.F)
					}
				default:
					var err error
					if v, err = m.applyBinary(tok, lv, rv, bpos); err != nil {
						return err
					}
				}
			} else {
				var err error
				if v, err = m.applyBinary(tok, lv, rv, bpos); err != nil {
					return err
				}
			}
			switch op {
			case opBinary:
				if in.dst >= 0 {
					regs[in.dst] = v
				}
			case opCmpBranch:
				cyc += CostBranch
				if !v.AsBool() {
					pc = int(in.jmp)
				}
			case opBinDeclVar:
				coerced, err := m.coerce(v, in.typ, in.pos)
				if err != nil {
					return m.errf(in.pos, "declare %s: %v", in.name, err)
				}
				cyc += CostLocal
				regs[in.reg] = coerced
			default: // opBinAssignVar
				cell := &regs[in.reg]
				var old Value
				if in.tok != minic.TokAssign {
					cyc += CostLocal // compound old-value read
					old = *cell
				}
				nv, err := m.applyCompound(in.tok, old, v, in.pos)
				if err != nil {
					return err
				}
				if _, err := m.storeScalarCell(cell, nv, in.pos3); err != nil {
					return err
				}
				if in.dst >= 0 {
					regs[in.dst] = *cell
				}
			}

		case opLogicShort:
			v, err := m.operandNB(fr, &in.a)
			if err != nil {
				return err
			}
			cyc += CostLogic
			if in.tok == minic.TokAndAnd {
				if !v.AsBool() {
					if in.dst >= 0 {
						regs[in.dst] = BoolVal(false)
					}
					pc = int(in.jmp)
				}
			} else if v.AsBool() {
				if in.dst >= 0 {
					regs[in.dst] = BoolVal(true)
				}
				pc = int(in.jmp)
			}

		case opBoolOf:
			v, err := m.operandNB(fr, &in.a)
			if err != nil {
				return err
			}
			if in.dst >= 0 {
				regs[in.dst] = BoolVal(v.AsBool())
			}

		case opCast:
			v, err := m.operandNB(fr, &in.a)
			if err != nil {
				return err
			}
			cyc += CostCast
			// coerce inlined for the scalar kinds (which cannot fail)
			var cv Value
			if !in.typ.Ptr {
				switch in.typ.Kind {
				case minic.Float:
					cv = FloatVal(v.AsFloat())
				case minic.Double:
					cv = DoubleVal(v.AsFloat())
				case minic.Int:
					cv = IntVal(v.AsInt())
				case minic.Bool:
					cv = BoolVal(v.AsBool())
				default:
					if cv, err = m.coerce(v, in.typ, in.pos); err != nil {
						return err // plain coerce error, as in the tree-walker
					}
				}
			} else {
				if cv, err = m.coerce(v, in.typ, in.pos); err != nil {
					return err
				}
			}
			if in.dst >= 0 {
				regs[in.dst] = cv
			}

		case opDeclVar:
			init, err := m.operandNB(fr, &in.a) // omNone yields the zero Value
			if err != nil {
				return err
			}
			coerced, err := m.coerce(init, in.typ, in.pos)
			if err != nil {
				return m.errf(in.pos, "declare %s: %v", in.name, err)
			}
			cyc += CostLocal
			regs[in.reg] = coerced

		case opDeclArr:
			nv, err := m.operandNB(fr, &in.a)
			if err != nil {
				return err
			}
			buf, err := m.makeArray(in.name, in.typ.Kind, nv.AsInt(), in.pos)
			if err != nil {
				return err
			}
			regs[in.reg] = BufVal(buf)

		case opAssignVar:
			var rhs Value
			switch in.a.mode {
			case omPlain:
				rhs = regs[in.a.ref]
			case omVar:
				cyc += CostLocal
				rhs = regs[in.a.ref]
			case omConst:
				rhs = in.a.val
			default:
				var err error
				if rhs, err = m.operandNB(fr, &in.a); err != nil {
					return err
				}
			}
			cell := &regs[in.reg]
			if in.tok == minic.TokAssign {
				// storeScalarCell, inlined for the scalar kinds
				switch cell.K {
				case KInt:
					*cell = IntVal(rhs.AsInt())
				case KFloat:
					*cell = FloatVal(rhs.AsFloat())
				case KDouble:
					*cell = DoubleVal(rhs.AsFloat())
				case KBool:
					*cell = BoolVal(rhs.AsBool())
				default:
					return m.errf(in.pos2, "cannot assign to %s", cell.K)
				}
				cyc += CostLocal
			} else {
				cyc += CostLocal
				old := *cell
				nv, err := m.applyCompound(in.tok, old, rhs, in.pos)
				if err != nil {
					return err
				}
				if _, err := m.storeScalarCell(cell, nv, in.pos2); err != nil {
					return err
				}
			}
			if in.dst >= 0 {
				regs[in.dst] = *cell
			}

		case opStoreIdx:
			var rhs Value
			switch in.a.mode {
			case omPlain:
				rhs = regs[in.a.ref]
			case omVar:
				cyc += CostLocal
				rhs = regs[in.a.ref]
			case omConst:
				rhs = in.a.val
			default:
				var err error
				if rhs, err = m.operandNB(fr, &in.a); err != nil {
					return err
				}
			}
			buf, i, err := m.resolveTgtNB(fr, in.tgt)
			if err != nil {
				return err
			}
			nv := rhs
			if in.tok != minic.TokAssign {
				old, err := m.loadElem(buf, i, in.pos2)
				if err != nil {
					return err
				}
				if nv, err = m.applyCompound(in.tok, old, rhs, in.pos); err != nil {
					return err
				}
			}
			if err := m.storeElem(buf, i, nv, in.pos2); err != nil {
				return err
			}
			if in.dst >= 0 {
				regs[in.dst] = nv
			}

		case opIncVar:
			cell := &regs[in.reg]
			if cell.K == KInt {
				// incDecCell's int arm inlined
				cyc += CostAddSub
				intops++
				old := *cell
				*cell = IntVal(cell.I + int64(in.n))
				if in.dst >= 0 {
					regs[in.dst] = old
				}
			} else {
				old, err := m.incDecCell(cell, int64(in.n), in.pos)
				if err != nil {
					return err
				}
				if in.dst >= 0 {
					regs[in.dst] = old
				}
			}

		case opIncIdx:
			buf, i, err := m.resolveTgtNB(fr, in.tgt)
			if err != nil {
				return err
			}
			old, err := m.loadElem(buf, i, in.pos)
			if err != nil {
				return err
			}
			nv := m.incDecElemValue(old, int64(in.n))
			if err := m.storeElem(buf, i, nv, in.pos); err != nil {
				return err
			}
			if in.dst >= 0 {
				regs[in.dst] = old // postfix semantics
			}

		case opLoadIdx:
			buf, i, err := m.resolveTgtNB(fr, in.tgt)
			if err != nil {
				return err
			}
			v, err := m.loadElem(buf, i, in.tgt.pos)
			if err != nil {
				return err
			}
			if in.dst >= 0 {
				regs[in.dst] = v
			}

		case opCheckBuf:
			if _, err := m.bufOf(regs[in.a.ref], in.pos); err != nil { // operand is always omPlain
				return err
			}

		case opBranchFalse:
			var v Value
			switch in.a.mode {
			case omPlain:
				v = regs[in.a.ref]
			case omVar:
				cyc += CostLocal
				v = regs[in.a.ref]
			case omConst:
				v = in.a.val
			default:
				var err error
				if v, err = m.operandNB(fr, &in.a); err != nil {
					return err
				}
			}
			cyc += CostBranch
			if !v.AsBool() {
				pc = int(in.jmp)
			}

		case opJump:
			pc = int(in.jmp)

		case opLoopEnter:
			m.prof.Cycles += cyc // snapshot reads the run total
			cyc = 0
			lp := m.loopProfile(in.lid, in.pos)
			lp.Entries++
			fr.loops = append(fr.loops, bactive{lp: lp, start: m.prof.Cycles})
			if in.n > 0 && m.cands != nil {
				// A watch scope snapshots flops too; a scope that opened
				// over pending flops would absorb them when it closes.
				m.prof.Flops += flops
				flops = 0
				m.enterCandidateBC(fr, in)
			}

		case opLoopBack:
			// The per-iteration step is batch-counted above; cancellation
			// polls here, on the back-edge, instead of on every statement.
			if m.done != nil {
				m.cancelTick++
				if m.cancelTick%cancelCheckInterval == 0 {
					select {
					case <-m.done:
						return &CancelError{Pos: in.pos, Cause: m.ctx.Err()}
					default:
					}
				}
			}
			fr.loops[len(fr.loops)-1].lp.Trips++

		case opLoopExit:
			m.prof.Cycles += cyc // attribution reads the run total
			cyc = 0
			n := len(fr.loops) - 1
			al := fr.loops[n]
			fr.loops = fr.loops[:n]
			al.lp.Cycles += m.prof.Cycles - al.start
			if al.lp == m.candLoop {
				m.prof.Flops += flops
				flops = 0
				m.exitCandidate()
			}

		case opCall:
			m.steps = steps // the callee batches against the run total
			v, err := m.callBytecode(in.fn, regs[in.reg:in.reg+in.n], in.pos)
			steps = m.steps
			if err != nil {
				return err
			}
			if in.dst >= 0 {
				regs[in.dst] = v
			}

		case opBuiltin:
			var args []Value
			if in.fused {
				nargs := int(in.n)
				if nargs > 0 {
					switch in.a.mode {
					case omPlain:
						m.biArgs[0] = regs[in.a.ref]
					case omVar:
						cyc += CostLocal
						m.biArgs[0] = regs[in.a.ref]
					case omConst:
						m.biArgs[0] = in.a.val
					default:
						v, err := m.operandNB(fr, &in.a)
						if err != nil {
							return err
						}
						m.biArgs[0] = v
					}
				}
				if nargs > 1 {
					switch in.b.mode {
					case omPlain:
						m.biArgs[1] = regs[in.b.ref]
					case omVar:
						cyc += CostLocal
						m.biArgs[1] = regs[in.b.ref]
					case omConst:
						m.biArgs[1] = in.b.val
					default:
						v, err := m.operandNB(fr, &in.b)
						if err != nil {
							return err
						}
						m.biArgs[1] = v
					}
				}
				args = m.biArgs[:nargs]
			} else {
				args = regs[in.reg : in.reg+in.n]
			}
			// callBuiltin inlined (arity errors keep its exact message)
			if len(args) != in.bi.arity {
				return m.errf(in.pos, "%s: %d args, want %d", in.name, len(args), in.bi.arity)
			}
			cyc += in.bi.cost
			flops += in.bi.flops
			if in.bi.flops > 1 {
				m.specialFlops += in.bi.flops
			}
			if in.dst >= 0 {
				regs[in.dst] = in.bi.fn(args)
			} else {
				in.bi.fn(args)
			}

		case opPrintf:
			if in.n > 0 {
				parts := make([]string, in.n)
				for i := int32(0); i < in.n; i++ {
					parts[i] = regs[in.reg+i].String()
				}
				m.output = append(m.output, sprintParts(parts))
			}
			if in.dst >= 0 {
				regs[in.dst] = Value{K: KVoid}
			}

		case opReturn:
			rv, err := m.operandNB(fr, &in.a)
			if err != nil {
				return err
			}
			coerced, err := m.coerce(rv, in.typ, in.pos)
			if err != nil {
				return m.errf(in.pos, "return: %v", err)
			}
			fr.ret = coerced
			m.dflush(steps, cyc, flops, intops, nInstr, nFused)
			return nil

		case opReturnVoid:
			m.dflush(steps, cyc, flops, intops, nInstr, nFused)
			return nil

		case opErrMsg:
			return &RuntimeError{Pos: in.pos, Msg: in.name}

		// --- Specialised opcodes (specialise.go) ---------------------------
		// Every arm follows the same discipline: fetch operands through the
		// instruction's own bopnds (register and constant operands inline,
		// indexed ones through qresolve), goto miss on an index out of
		// bounds or a zero divisor, and only then commit the result and the
		// baked accounting. A miss runs the generic arm, so runtime errors
		// and their accounting stay bit-for-bit identical to generic
		// dispatch. Arms sharing an operand shape share one case: the fetch
		// exists once per shape, and so does the accounting, as a tail AFTER
		// the per-opcode switch — never before it, where the hottest opcode
		// would pay for the checks of the others (measured 3-5% slower). No
		// case may goto miss after a write.

		case opQBinFF, opQCmpBrFF, opQBinDeclFF, opQAccFF, opQMath2:
			q := in.q
			var af, bf2 float64
			var ab, bb *Buffer
			if in.a.mode <= omVar {
				af = regs[in.a.ref].F
			} else if in.a.mode == omConst {
				af = in.a.val.F
			} else {
				b, i, ok := qresolve(regs, in.a.tgt)
				if !ok {
					goto miss
				}
				af = b.F[i]
				if b.Kind == minic.Float {
					af = qrnd(af)
				}
				ab = b
			}
			if in.b.mode <= omVar {
				bf2 = regs[in.b.ref].F
			} else if in.b.mode == omConst {
				bf2 = in.b.val.F
			} else {
				b, i, ok := qresolve(regs, in.b.tgt)
				if !ok {
					goto miss
				}
				bf2 = b.F[i]
				if b.Kind == minic.Float {
					bf2 = qrnd(bf2)
				}
				bb = b
			}
			switch op {
			case opQBinFF:
				if bf2 == 0 && q.op == qDiv {
					goto miss
				}
				r := qarithF(q.op, af, bf2)
				if q.rk == KFloat {
					r = qrnd(r)
				}
				if in.dst >= 0 {
					regs[in.dst] = Value{K: q.rk, F: r}
				}
			case opQCmpBrFF:
				if !cmpFloat(in.tok, af, bf2) {
					pc = int(in.jmp)
				}
			case opQBinDeclFF:
				if bf2 == 0 && q.op == qDiv {
					goto miss
				}
				r := qarithF(q.op, af, bf2)
				if q.rk == KFloat {
					r = qrnd(r)
				}
				regs[in.reg] = qcoerceF(q.cellK, r)
			case opQAccFF:
				if bf2 == 0 && q.op == qDiv {
					goto miss
				}
				res := qarithF(q.op, af, bf2)
				if q.rk == KFloat {
					res = qrnd(res)
				}
				cell := &regs[in.reg]
				if q.acc {
					if res == 0 && q.cop == qDiv {
						goto miss
					}
					res = qarithF(q.cop, cell.F, res)
				}
				// The cell's kind wins at store time (storeScalarCell), so
				// the promoted intermediate rounds identically to the
				// generic path.
				*cell = qcoerceF(q.cellK, res)
				if in.dst >= 0 {
					regs[in.dst] = *cell
				}
			default: // opQMath2
				r := in.bi.s2(af, bf2)
				if in.bi.flops > 1 {
					m.specialFlops += in.bi.flops
				}
				if in.dst >= 0 {
					regs[in.dst] = qcoerceF(q.rk, r)
				}
			}
			cyc += q.cyc
			flops += q.flops
			intops += q.intops
			m.prof.LoadBytes += q.lbytes
			if m.watchDepth > 0 {
				if ab != nil {
					m.qtrafIn(ab)
				}
				if bb != nil {
					m.qtrafIn(bb)
				}
			}

		case opQBinII, opQCmpBrII, opQBinDeclII, opQAccII:
			q := in.q
			var ai, bi int64
			var ab, bb *Buffer
			if in.a.mode <= omVar {
				ai = regs[in.a.ref].I
			} else if in.a.mode == omConst {
				ai = in.a.val.I
			} else {
				b, i, ok := qresolve(regs, in.a.tgt)
				if !ok {
					goto miss
				}
				ai = b.I[i]
				ab = b
			}
			if in.b.mode <= omVar {
				bi = regs[in.b.ref].I
			} else if in.b.mode == omConst {
				bi = in.b.val.I
			} else {
				b, i, ok := qresolve(regs, in.b.tgt)
				if !ok {
					goto miss
				}
				bi = b.I[i]
				bb = b
			}
			switch op {
			case opQBinII:
				if bi == 0 && q.op >= qDiv {
					goto miss
				}
				if in.dst >= 0 {
					regs[in.dst] = Value{K: KInt, I: qarithI(q.op, ai, bi)}
				}
			case opQCmpBrII:
				if !cmpFloat(in.tok, float64(ai), float64(bi)) {
					pc = int(in.jmp)
				}
			case opQBinDeclII:
				if bi == 0 && q.op >= qDiv {
					goto miss
				}
				regs[in.reg] = qcoerceI(q.cellK, qarithI(q.op, ai, bi))
			default: // opQAccII
				if bi == 0 && q.op >= qDiv {
					goto miss
				}
				res := qarithI(q.op, ai, bi)
				cell := &regs[in.reg]
				if q.acc {
					if res == 0 && q.cop == qDiv {
						goto miss
					}
					// applyCompound combines through float64, as the shared
					// helper does.
					res = int64(qarithF(q.cop, float64(cell.I), float64(res)))
				}
				*cell = Value{K: KInt, I: res}
				if in.dst >= 0 {
					regs[in.dst] = *cell
				}
			}
			cyc += q.cyc
			flops += q.flops
			intops += q.intops
			m.prof.LoadBytes += q.lbytes
			if m.watchDepth > 0 {
				if ab != nil {
					m.qtrafIn(ab)
				}
				if bb != nil {
					m.qtrafIn(bb)
				}
			}

		case opQDeclF, opQMath1:
			q := in.q
			var af float64
			var ab *Buffer
			if in.a.mode <= omVar {
				af = regs[in.a.ref].F
			} else if in.a.mode == omConst {
				af = in.a.val.F
			} else {
				b, i, ok := qresolve(regs, in.a.tgt)
				if !ok {
					goto miss
				}
				af = b.F[i]
				if b.Kind == minic.Float {
					af = qrnd(af)
				}
				ab = b
			}
			if op == opQDeclF {
				regs[in.reg] = qcoerceF(q.cellK, af)
			} else { // opQMath1
				r := in.bi.s1(af)
				if in.bi.flops > 1 {
					m.specialFlops += in.bi.flops
				}
				if in.dst >= 0 {
					regs[in.dst] = qcoerceF(q.rk, r)
				}
			}
			cyc += q.cyc
			flops += q.flops
			intops += q.intops
			m.prof.LoadBytes += q.lbytes
			if m.watchDepth > 0 && ab != nil {
				m.qtrafIn(ab)
			}

		case opQDeclI:
			q := in.q
			var ai int64
			var ab *Buffer
			if in.a.mode <= omVar {
				ai = regs[in.a.ref].I
			} else if in.a.mode == omConst {
				ai = in.a.val.I
			} else {
				b, i, ok := qresolve(regs, in.a.tgt)
				if !ok {
					goto miss
				}
				ai = b.I[i]
				ab = b
			}
			cyc += q.cyc
			intops += q.intops
			m.prof.LoadBytes += q.lbytes
			if m.watchDepth > 0 && ab != nil {
				m.qtrafIn(ab)
			}
			regs[in.reg] = qcoerceI(q.cellK, ai)

		case opQLoad:
			q := in.q
			sbuf, si, sok := qresolve(regs, in.tgt)
			if !sok {
				goto miss
			}
			cyc += q.cyc
			intops += q.intops
			m.prof.LoadBytes += q.lbytes
			if m.watchDepth > 0 {
				m.qtrafIn(sbuf)
			}
			if in.dst >= 0 {
				switch q.rk {
				case KInt:
					regs[in.dst] = Value{K: KInt, I: sbuf.I[si]}
				case KFloat:
					regs[in.dst] = Value{K: KFloat, F: qrnd(sbuf.F[si])}
				default:
					regs[in.dst] = Value{K: KDouble, F: sbuf.F[si]}
				}
			}

		case opQStoreF:
			q := in.q
			var rf float64
			var rb *Buffer
			if in.a.mode <= omVar {
				rf = regs[in.a.ref].F
			} else if in.a.mode == omConst {
				rf = in.a.val.F
			} else {
				b, i, ok := qresolve(regs, in.a.tgt)
				if !ok {
					goto miss
				}
				rf = b.F[i]
				if b.Kind == minic.Float {
					rf = qrnd(rf)
				}
				rb = b
			}
			sbuf, si, sok := qresolve(regs, in.tgt)
			if !sok || rf == 0 && q.acc && q.cop == qDiv {
				goto miss
			}
			round := sbuf.Kind == minic.Float
			res := rf
			if q.acc {
				old := sbuf.F[si]
				if round {
					old = qrnd(old) // loadElem rounds Float elements
				}
				res = qarithF(q.cop, old, rf)
			}
			if q.rk == KFloat {
				res = qrnd(res)
			}
			cyc += q.cyc
			flops += q.flops
			intops += q.intops
			m.prof.LoadBytes += q.lbytes
			m.prof.StoreBytes += q.sbytes
			if m.watchDepth > 0 {
				if rb != nil {
					m.qtrafIn(rb)
				}
				if q.acc {
					m.qtrafIn(sbuf)
				}
				m.qtrafOut(sbuf)
			}
			if round {
				sbuf.F[si] = qrnd(res)
			} else {
				sbuf.F[si] = res
			}
			if in.dst >= 0 {
				regs[in.dst] = Value{K: q.rk, F: res}
			}

		case opQStoreI:
			q := in.q
			var ri int64
			var rb *Buffer
			if in.a.mode <= omVar {
				ri = regs[in.a.ref].I
			} else if in.a.mode == omConst {
				ri = in.a.val.I
			} else {
				b, i, ok := qresolve(regs, in.a.tgt)
				if !ok {
					goto miss
				}
				ri = b.I[i]
				rb = b
			}
			sbuf, si, sok := qresolve(regs, in.tgt)
			if !sok || ri == 0 && q.acc && q.cop == qDiv {
				goto miss
			}
			res := ri
			if q.acc {
				// applyCompound combines through float64, as the shared
				// helper does.
				res = int64(qarithF(q.cop, float64(sbuf.I[si]), float64(ri)))
			}
			cyc += q.cyc
			flops += q.flops
			intops += q.intops
			m.prof.LoadBytes += q.lbytes
			m.prof.StoreBytes += q.sbytes
			if m.watchDepth > 0 {
				if rb != nil {
					m.qtrafIn(rb)
				}
				if q.acc {
					m.qtrafIn(sbuf)
				}
				m.qtrafOut(sbuf)
			}
			sbuf.I[si] = res
			if in.dst >= 0 {
				regs[in.dst] = Value{K: KInt, I: res}
			}
		}
		continue

	miss:
		// A specialised instruction's index is out of bounds or its divisor
		// zero: its generic arm runs it once, without writing the
		// instruction, and raises the byte-identical error with the generic
		// accounting. The entry accounting above stands.
		op = in.gop
		goto redo
	}
	m.dflush(steps, cyc, flops, intops, nInstr, nFused)
	return nil
}

// dflush folds dispatch-local accounting back into the machine and the
// run profile. Dispatch calls it on every success-path return; error
// returns skip it because Run never surfaces the profile, the counters,
// or the step total of a failed run.
func (m *machine) dflush(steps int64, cyc float64, flops, intops, nInstr, nFused int64) {
	m.steps = steps
	m.prof.Cycles += cyc
	m.prof.Flops += flops
	m.prof.IntOps += intops
	m.bcInstrs += nInstr
	m.bcFused += nFused
}

// operandNB resolves one fused operand without step accounting (the
// dispatch loop batch-counts steps); cost, traffic, and error semantics
// are unchanged. The simple modes are also inlined at the hot call sites —
// this is the shared slow path.
func (m *machine) operandNB(fr *bframe, o *bopnd) (Value, error) {
	switch o.mode {
	case omPlain:
		return fr.regs[o.ref], nil
	case omVar:
		m.charge(CostLocal)
		return fr.regs[o.ref], nil
	case omConst:
		return o.val, nil
	case omIdx:
		buf, i, err := m.resolveTgtNB(fr, o.tgt)
		if err != nil {
			return Value{}, err
		}
		// loadElem inlined — the hot fused-load path
		m.prof.Cycles += CostLoad
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
	return Value{}, nil // omNone
}

// resolveTgtNB resolves a (possibly fused) index target without step
// accounting, preserving the tree-walker's order: base fetch, buffer
// check, index evaluation, bounds check.
func (m *machine) resolveTgtNB(fr *bframe, t *btarget) (*Buffer, int64, error) {
	regs := fr.regs
	var bv Value
	switch t.base.mode {
	case omPlain:
		bv = regs[t.base.ref]
	case omVar:
		m.charge(CostLocal)
		bv = regs[t.base.ref]
	case omConst:
		bv = t.base.val
	default:
		var err error
		if bv, err = m.operandNB(fr, &t.base); err != nil {
			return nil, 0, err
		}
	}
	if bv.K != KBuf { // bufOf inlined
		return nil, 0, m.errf(t.pos, "indexing non-array value (%s)", bv.K)
	}
	buf := bv.Buf
	var iv Value
	if t.fused2 {
		// Two-level fused index (a[i*K+j]): inner binary then outer, in
		// tree-evaluation order. idx2a/idx2b/idxB are omVar or omConst
		// by construction (fuseSimple).
		var xv, yv Value
		if t.idx2a.mode == omVar {
			m.charge(CostLocal)
			xv = regs[t.idx2a.ref]
		} else {
			xv = t.idx2a.val
		}
		if t.idx2b.mode == omVar {
			m.charge(CostLocal)
			yv = regs[t.idx2b.ref]
		} else {
			yv = t.idx2b.val
		}
		var inner Value
		if xv.K == KInt && yv.K == KInt && t.idxOp2 == minic.TokStar {
			m.prof.IntOps++
			m.charge(CostMul)
			inner = IntVal(xv.I * yv.I)
		} else {
			var err error
			if inner, err = m.applyBinary(t.idxOp2, xv, yv, t.idxPos2); err != nil {
				return nil, 0, err
			}
		}
		var zv Value
		if t.idxB.mode == omVar {
			m.charge(CostLocal)
			zv = regs[t.idxB.ref]
		} else {
			zv = t.idxB.val
		}
		if inner.K == KInt && zv.K == KInt {
			switch t.idxOp {
			case minic.TokPlus:
				m.prof.IntOps++
				m.charge(CostAddSub)
				iv = IntVal(inner.I + zv.I)
			case minic.TokMinus:
				m.prof.IntOps++
				m.charge(CostAddSub)
				iv = IntVal(inner.I - zv.I)
			default:
				var err error
				if iv, err = m.applyBinary(t.idxOp, inner, zv, t.idxPos); err != nil {
					return nil, 0, err
				}
			}
		} else {
			var err error
			if iv, err = m.applyBinary(t.idxOp, inner, zv, t.idxPos); err != nil {
				return nil, 0, err
			}
		}
	} else if t.fused {
		// Fused binary index (p[j*3+1]): the int fast path mirrors
		// applyBinary's int arm; anything else falls back.
		var lv, rv Value
		switch t.idx.mode {
		case omPlain:
			lv = regs[t.idx.ref]
		case omVar:
			m.charge(CostLocal)
			lv = regs[t.idx.ref]
		case omConst:
			lv = t.idx.val
		default:
			var err error
			if lv, err = m.operandNB(fr, &t.idx); err != nil {
				return nil, 0, err
			}
		}
		switch t.idxB.mode {
		case omPlain:
			rv = regs[t.idxB.ref]
		case omVar:
			m.charge(CostLocal)
			rv = regs[t.idxB.ref]
		case omConst:
			rv = t.idxB.val
		default:
			var err error
			if rv, err = m.operandNB(fr, &t.idxB); err != nil {
				return nil, 0, err
			}
		}
		if lv.K == KInt && rv.K == KInt {
			switch t.idxOp {
			case minic.TokPlus:
				m.prof.IntOps++
				m.charge(CostAddSub)
				iv = IntVal(lv.I + rv.I)
			case minic.TokMinus:
				m.prof.IntOps++
				m.charge(CostAddSub)
				iv = IntVal(lv.I - rv.I)
			case minic.TokStar:
				m.prof.IntOps++
				m.charge(CostMul)
				iv = IntVal(lv.I * rv.I)
			default:
				var err error
				if iv, err = m.applyBinary(t.idxOp, lv, rv, t.idxPos); err != nil {
					return nil, 0, err
				}
			}
		} else {
			var err error
			if iv, err = m.applyBinary(t.idxOp, lv, rv, t.idxPos); err != nil {
				return nil, 0, err
			}
		}
	} else {
		switch t.idx.mode {
		case omPlain:
			iv = regs[t.idx.ref]
		case omVar:
			m.charge(CostLocal)
			iv = regs[t.idx.ref]
		case omConst:
			iv = t.idx.val
		default:
			var err error
			if iv, err = m.operandNB(fr, &t.idx); err != nil {
				return nil, 0, err
			}
		}
	}
	i := iv.AsInt() // boundsOf inlined
	if i < 0 || i >= int64(buf.Len()) {
		return nil, 0, m.errf(t.pos, "index %d out of range [0,%d) for %s", i, buf.Len(), buf.Name)
	}
	return buf, i, nil
}

// ---------------------------------------------------------------------------
// Precise replay: per-step budget accounting for the instruction in which
// the batched check detected a crossing.

// execPrecise replays one instruction with per-step budget checks. The
// batched check in dispatch guarantees the budget is crossed among this
// instruction's counted steps, and every counted step precedes the
// instruction's stepless tail (combine, store, branch, call), so replaying
// the step-generating prefix — pre-steps, the instruction's own step,
// operand fetches, target resolution — reproduces the exact error the
// tree-walker reports: a budget error at the precise sub-step position,
// or the first runtime error that textually precedes it.
func (m *machine) execPrecise(fr *bframe, in *binstr) error {
	for _, p := range in.pre {
		m.steps++
		if m.steps > m.maxSteps {
			return m.errf(p, "step budget exceeded (%d)", m.maxSteps)
		}
	}
	switch in.gop {
	case opCmpBranch, opLoopBack:
		m.steps++
		if m.steps > m.maxSteps {
			return m.errf(in.pos, "step budget exceeded (%d)", m.maxSteps)
		}
	case opBinAssignVar, opBinDeclVar:
		m.steps++
		if m.steps > m.maxSteps {
			return m.errf(in.pos2, "step budget exceeded (%d)", m.maxSteps)
		}
	}
	switch in.gop {
	case opEval, opUnary, opLogicShort, opBoolOf, opCast, opDeclVar, opDeclArr,
		opAssignVar, opBranchFalse, opReturn, opCheckBuf:
		if _, err := m.fetchOp(fr, &in.a); err != nil {
			return err
		}
	case opBinary, opCmpBranch, opBinAssignVar, opBinDeclVar, opBuiltin:
		if _, err := m.fetchOp(fr, &in.a); err != nil {
			return err
		}
		if _, err := m.fetchOp(fr, &in.b); err != nil {
			return err
		}
	case opStoreIdx:
		if _, err := m.fetchOp(fr, &in.a); err != nil {
			return err
		}
		if _, _, err := m.resolveTgt(fr, in.tgt); err != nil {
			return err
		}
	case opIncIdx, opLoadIdx:
		if _, _, err := m.resolveTgt(fr, in.tgt); err != nil {
			return err
		}
	}
	// Unreachable when nsteps is computed correctly (the crossing fires
	// above); a deterministic budget error keeps a miscount observable.
	return m.errf(in.pos, "step budget exceeded (%d)", m.maxSteps)
}

// fetchOp resolves one fused operand with exactly the accounting the
// tree-walker's eval of that operand performs, including per-step
// budget checks (precise-replay path only).
func (m *machine) fetchOp(fr *bframe, o *bopnd) (Value, error) {
	switch o.mode {
	case omPlain:
		return fr.regs[o.ref], nil
	case omVar:
		m.steps++
		if m.steps > m.maxSteps {
			return Value{}, m.errf(o.pos, "step budget exceeded (%d)", m.maxSteps)
		}
		m.charge(CostLocal)
		return fr.regs[o.ref], nil
	case omConst:
		m.steps++
		if m.steps > m.maxSteps {
			return Value{}, m.errf(o.pos, "step budget exceeded (%d)", m.maxSteps)
		}
		return o.val, nil
	case omIdx:
		// The IndexExpr's own step, then the target resolve and load —
		// the tree-walker's indexed load, fused.
		m.steps++
		if m.steps > m.maxSteps {
			return Value{}, m.errf(o.pos, "step budget exceeded (%d)", m.maxSteps)
		}
		buf, i, err := m.resolveTgt(fr, o.tgt)
		if err != nil {
			return Value{}, err
		}
		return m.loadElem(buf, i, o.pos)
	}
	return Value{}, nil // omNone
}

// resolveTgt resolves a (possibly fused) index target with per-step budget
// checks, preserving the tree-walker's order: base fetch, buffer check,
// index evaluation, bounds check (precise-replay path only).
func (m *machine) resolveTgt(fr *bframe, t *btarget) (*Buffer, int64, error) {
	bv, err := m.fetchOp(fr, &t.base)
	if err != nil {
		return nil, 0, err
	}
	buf, err := m.bufOf(bv, t.pos)
	if err != nil {
		return nil, 0, err
	}
	var iv Value
	if t.fused2 {
		// Two-level fused index: the outer binary's own step, then the
		// inner binary (own step + operands + combine), then the outer
		// right operand and combine — exact tree-evaluation order.
		m.steps++
		if m.steps > m.maxSteps {
			return nil, 0, m.errf(t.idxPos, "step budget exceeded (%d)", m.maxSteps)
		}
		m.steps++
		if m.steps > m.maxSteps {
			return nil, 0, m.errf(t.idxPos2, "step budget exceeded (%d)", m.maxSteps)
		}
		xv, err := m.fetchOp(fr, &t.idx2a)
		if err != nil {
			return nil, 0, err
		}
		yv, err := m.fetchOp(fr, &t.idx2b)
		if err != nil {
			return nil, 0, err
		}
		inner, err := m.applyBinary(t.idxOp2, xv, yv, t.idxPos2)
		if err != nil {
			return nil, 0, err
		}
		zv, err := m.fetchOp(fr, &t.idxB)
		if err != nil {
			return nil, 0, err
		}
		iv, err = m.applyBinary(t.idxOp, inner, zv, t.idxPos)
		if err != nil {
			return nil, 0, err
		}
	} else if t.fused {
		// Fused binary index (p[j*3+1]): the binary's own step precedes
		// its operand fetches, as in the tree-walker's binary eval.
		m.steps++
		if m.steps > m.maxSteps {
			return nil, 0, m.errf(t.idxPos, "step budget exceeded (%d)", m.maxSteps)
		}
		lv, err := m.fetchOp(fr, &t.idx)
		if err != nil {
			return nil, 0, err
		}
		rv, err := m.fetchOp(fr, &t.idxB)
		if err != nil {
			return nil, 0, err
		}
		iv, err = m.applyBinary(t.idxOp, lv, rv, t.idxPos)
		if err != nil {
			return nil, 0, err
		}
	} else {
		iv, err = m.fetchOp(fr, &t.idx)
		if err != nil {
			return nil, 0, err
		}
	}
	i, err := m.boundsOf(buf, iv, t.pos)
	if err != nil {
		return nil, 0, err
	}
	return buf, i, nil
}
