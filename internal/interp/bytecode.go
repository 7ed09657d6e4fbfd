package interp

import (
	"fmt"

	"psaflow/internal/minic"
)

// The register-based bytecode fast path. Run lowers every function of the
// program once into a flat instruction stream over numbered value slots
// (registers): variables resolve to stable registers at lowering time,
// expression temporaries occupy a reused region above them, and a single
// dispatch loop (bytecode_exec.go) replaces the tree-walker's per-node
// recursion and scope-map lookups. A fusion pass
// built into the lowering emits superinstructions for the dominant
// benchmark patterns — load-binop-store (opBinAssignVar), indexed array
// read/accumulate (fused index operands on assignments), compare-and-
// branch loop heads (opCmpBranch), and fused multiply-add on float paths
// (a compound `+=` whose RHS multiply executes in the same dispatch).
//
// Semantics — step accounting (including the exact position each budget
// check reports), cycle charging order, loop profiles, memory tracing,
// alias observation, captured output, and every error message — are
// bit-for-bit identical to the tree-walker: all value/cost semantics
// live in the shared helpers of apply.go, and the lowering reproduces
// the walker's accounting sequence instruction by instruction. The
// two-way equivalence suite (bytecode_diff_test.go, compile_test.go)
// holds both engines to the bit under -race.
//
// Cancellation polling is folded into loop back-edges and function entry
// (opLoopBack / callBytecode) rather than every statement step, so the
// dispatch loop pays one counter increment per iteration and a channel
// poll every cancelCheckInterval back-edges.
//
// MiniC kinds are static — every declaration, parameter and return
// coerces to its declared type, and expression kinds follow promote — so
// the lowering records each operand's kind (bopnd.vk / ek, exprKind) and
// ends by giving every instruction whose operand kinds are all numeric its
// specialised opcode and baked plan (specialise, bake in specialise.go).
// After lowering no instruction word is written again: a lowered image is
// immutable and any number of runs may share it (ProgramCache).

// opcode enumerates bytecode instructions.
type opcode uint8

const (
	opNop          opcode = iota
	opEval                // dst = fetch(a)
	opUnary               // dst = applyUnary(tok, fetch(a))
	opBinary              // dst = fusedBin(a, b, tok, pos)
	opLogicShort          // charge CostLogic; short-circuit on fetch result -> dst, jmp
	opBoolOf              // dst = BoolVal(fetch(a).AsBool())
	opCast                // dst = coerce(fetch(a), typ) after CostCast
	opDeclVar             // regs[reg] = coerce(fetch(a) or zero, typ); CostLocal
	opBinDeclVar          // regs[reg] = coerce(fusedBin(a, b, tok2, pos2), typ)  [superinstruction]
	opDeclArr             // regs[reg] = makeArray(name, kind, fetch(a))
	opAssignVar           // regs[reg] op= fetch(a) via applyCompound/storeScalarCell
	opBinAssignVar        // regs[reg] op= fusedBin(a, b, tok2, pos2)  [superinstruction]
	opStoreIdx            // tgt[...] op= fetch(a) via loadElem/applyCompound/storeElem
	opIncVar              // dst = old; regs[reg] += n (postfix ++/--)
	opIncIdx              // dst = old; tgt[...] += n
	opLoadIdx             // dst = loadElem(resolveTgt(tgt)) — non-fused index read
	opCheckBuf            // bufOf(fetch(a)) — preserves base-check-before-index order
	opCmpBranch           // fusedBin cond; CostBranch; !cond -> pc = jmp  [superinstruction]
	opBranchFalse         // fetch(a); CostBranch; !cond -> pc = jmp
	opJump                // pc = jmp
	opLoopEnter           // Entries++; push {lp, cycles} on the frame loop stack
	opLoopBack            // iteration step + cancellation poll + Trips++
	opLoopExit            // pop loop stack; attribute cycles
	opCall                // dst = callBytecode(fn, regs[reg:reg+n])
	opBuiltin             // dst = callBuiltin(name, bi, args) — args fused (a, b) or regs[reg:reg+n]
	opPrintf              // capture output from regs[reg:reg+n]
	opReturn              // fr.ret = coerce(fetch(a), typ); unwind loops; halt
	opReturnVoid          // unwind loops; halt
	opErrMsg              // return preformatted RuntimeError{pos, name}

	// Specialised opcodes, emitted in place of their generic forms where
	// the operand kinds are static (specialise.go). Every opcode from
	// opQFirst on carries a baked accounting plan in binstr.q; an index out
	// of bounds or a zero divisor runs the generic arm (gop) once instead.
	// FF = both operands float kinds, II = both int.
	opQBinFF     // dst = a ⊗ b                     (from opBinary)
	opQBinII     //
	opQCmpBrFF   // !cmp(a, b) -> pc = jmp          (from opCmpBranch)
	opQCmpBrII   //
	opQBinDeclFF // regs[reg] = coerce(a ⊗ b)       (from opBinDeclVar)
	opQBinDeclII //
	opQAccFF     // regs[reg] op= a ⊗ b             (from opBinAssignVar)
	opQAccII     //
	opQStoreF    // tgt[...] op= a                  (from opStoreIdx)
	opQStoreI    //
	opQDeclF     // regs[reg] = coerce(a)           (from opDeclVar)
	opQDeclI     //
	opQLoad      // dst = tgt[...]                  (from opLoadIdx)
	opQMath1     // dst = mathfn(a)                 (from opBuiltin, scalar float intrinsics)
	opQMath2     // dst = mathfn(a, b)
)

// opQFirst marks the start of the specialised opcode range: an instruction
// with in.op >= opQFirst holds a baked plan.
const opQFirst = opQBinFF

// Operand fetch modes. The fused modes reproduce exactly the accounting
// the tree-walker performs evaluating the same operand expression.
const (
	omNone  uint8 = iota // operand absent
	omPlain              // read a register; the producer already accounted
	omVar                // step at pos + CostLocal + register read
	omConst              // step at pos + literal value
	omIdx                // step at pos + resolveTgt + loadElem (indexed read)
)

// bopnd is one fused operand. vk is the static ValKind of its value —
// kUnknown where only the run fixes it — and ek, when vk is KBuf, the
// buffer's element kind (a minic.BasicKind); both sit in the padding
// after mode.
type bopnd struct {
	mode uint8
	vk   uint8
	ek   uint8
	ref  int32     // register for omPlain/omVar
	val  Value     // literal for omConst
	pos  minic.Pos // accounting/diagnostic position
	tgt  *btarget  // indexed-load target for omIdx
}

// btarget is a (possibly fused) index target base[idx]. When fused is
// set, the index value is the fused binary idx ⊕ idxB, evaluated inside
// the consuming instruction with the accounting of the tree-walker's
// binary eval. When fused2 is also set, the index is the two-level
// binary (idx2a ⊕₂ idx2b) ⊕ idxB — the row-major pattern a[i*K+j] — and
// the inner result takes the outer binary's left-operand place (idx is
// unused). idx2a/idx2b come from fuseSimple, so they are always omVar or
// omConst.
type btarget struct {
	base   bopnd
	idx    bopnd
	idxB   bopnd
	fused  bool
	idxOp  minic.TokKind
	idxPos minic.Pos
	pos    minic.Pos // the IndexExpr position (bufOf / bounds errors)

	fused2  bool
	idx2a   bopnd
	idx2b   bopnd
	idxOp2  minic.TokKind
	idxPos2 minic.Pos
}

// binstr is one instruction. pre holds statement/expression step positions
// that the enclosing constructs charge before this instruction's own work
// (a fused `b[i] += x` carries the expression-statement and assignment
// steps here), preserving the exact budget-exceeded error positions.
//
// The leading fields form the dispatch-hot header (opcode, fusion pattern,
// registers, batched step count, baked plan); positions, types, and names
// used only on cold paths trail them.
type binstr struct {
	op     opcode
	fused  bool   // superinstruction: counted in interp.bytecode.fused
	gop    opcode // generic opcode: op itself unless op is specialised
	dst    int32  // result register; -1 discards
	reg    int32  // variable register / args base register
	n      int32  // arg count; ++/-- delta; opLoopEnter: 1 + index in fn.cands, 0 below depth 1
	jmp    int32  // branch target
	nsteps int32  // static step count: len(pre) + own step + operand steps
	tok    minic.TokKind
	tok2   minic.TokKind // binop for opBinAssignVar
	a, b   bopnd
	q      *qinfo // baked plan of a specialised instruction, in its function's slab

	pre  []minic.Pos
	pos  minic.Pos
	pos2 minic.Pos // secondary position (binop inside opBinAssignVar, LHS of assignments)
	pos3 minic.Pos // tertiary position (LHS of opBinAssignVar)
	lid  int       // loop node ID for opLoopEnter
	tgt  *btarget
	typ  minic.Type // declared type (declarations, casts, returns; opBinAssignVar: the cell's)
	name string     // variable/function/builtin name or preformatted error text
	fn   *bfunc     // callee; the enclosing function of a depth-1 opLoopEnter
	bi   builtin
}

// bfunc is one lowered function.
type bfunc struct {
	decl  *minic.FuncDecl
	nregs int
	code  []binstr
	cands []bcand // the function's depth-1 loops in source order
}

// bcand describes a hotspot candidate to a run that watches its loops: the
// watch parameters of the loop (candParams) and the registers holding them.
type bcand struct {
	params []*minic.Param
	regs   []int32
}

// bprog is the lowered program.
type bprog struct {
	funcs map[string]*bfunc
}

// tempBit marks temporary-register references during lowering; finalize
// rewrites them to sit above the function's variable registers.
const tempBit = int32(1) << 28

// bcompiler carries per-function lowering state. Variable registers are
// never reused, so shadowing resolves exactly as the tree-walker's
// nested scopes do; temporaries are a LIFO
// region rewritten above the variables once their count is known.
type bcompiler struct {
	prog    *minic.Program
	funcs   map[string]*bfunc
	scopes  []map[string]int32
	nvars   int32
	vtypes  []minic.Type // declared type of each variable register
	tempN   int32
	tempMax int32
	code    []binstr
	curFn   *minic.FuncDecl
	loops   []*bloopCtx
	generic bool    // no specialisation: every instruction keeps its generic opcode
	plans   []qinfo // specialise's scratch, reused across functions
}

// bloopCtx collects break/continue patch sites for one lexical loop.
type bloopCtx struct {
	breaks []int32
	conts  []int32
}

// compileBytecode lowers every function of prog. It never fails:
// constructs the tree-walker would only reject at runtime lower to
// opErrMsg instructions producing the identical error, so unexecuted
// dead code stays legal.
func compileBytecode(prog *minic.Program, generic bool) *bprog {
	c := &bcompiler{prog: prog, funcs: make(map[string]*bfunc, len(prog.Funcs)), generic: generic}
	for _, f := range prog.Funcs {
		if _, exists := c.funcs[f.Name]; !exists { // first declaration wins, as in Program.Func
			c.funcs[f.Name] = &bfunc{decl: f}
		}
	}
	for _, f := range prog.Funcs {
		if bf := c.funcs[f.Name]; bf.decl == f {
			c.compileFunc(bf)
		}
	}
	return &bprog{funcs: c.funcs}
}

func (c *bcompiler) push() { c.scopes = append(c.scopes, make(map[string]int32)) }
func (c *bcompiler) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *bcompiler) declare(name string, t minic.Type) int32 {
	reg := c.nvars
	c.nvars++
	c.vtypes = append(c.vtypes, t)
	c.scopes[len(c.scopes)-1][name] = reg
	return reg
}

func (c *bcompiler) lookup(name string) (int32, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if reg, ok := c.scopes[i][name]; ok {
			return reg, true
		}
	}
	return 0, false
}

// tempAlloc reserves a temporary register (LIFO discipline).
func (c *bcompiler) tempAlloc() int32 {
	t := c.tempN
	c.tempN++
	if c.tempN > c.tempMax {
		c.tempMax = c.tempN
	}
	return t | tempBit
}

func (c *bcompiler) tempFree(n int32) { c.tempN -= n }

func (c *bcompiler) emit(in binstr) int32 {
	in.gop = in.op
	c.code = append(c.code, in)
	return int32(len(c.code) - 1)
}

func (c *bcompiler) here() int32 { return int32(len(c.code)) }

func (c *bcompiler) compileFunc(bf *bfunc) {
	fn := bf.decl
	c.curFn = fn
	c.scopes = c.scopes[:0]
	c.nvars, c.tempN, c.tempMax = 0, 0, 0
	c.vtypes = c.vtypes[:0]
	c.code = nil
	c.loops = c.loops[:0]
	c.push() // parameter scope, as in machine.call
	for _, p := range fn.Params {
		c.declare(p.Name, p.Type) // params occupy registers 0..len-1 in order
	}
	c.compileStmts(fn.Body.Stmts, nil)
	c.pop()
	bf.code = c.code
	bf.nregs = int(c.nvars + c.tempMax)
	c.finalize(bf)
	if !c.generic {
		c.specialise(bf)
	}
	c.code = nil
}

// specialise gives every instruction whose operand kinds bake (bake,
// specialise.go) its specialised opcode and plan. The plans of one
// function share one slab.
func (c *bcompiler) specialise(bf *bfunc) {
	plans := c.plans[:0]
	for i := range bf.code {
		in := &bf.code[i]
		if q, op := bake(in); op != opNop {
			plans = append(plans, q)
			in.op = op
		}
	}
	c.plans = plans
	if len(plans) == 0 {
		return
	}
	slab := append([]qinfo(nil), plans...)
	for i := range bf.code {
		if in := &bf.code[i]; in.op >= opQFirst {
			in.q = &slab[0]
			slab = slab[1:]
		}
	}
}

// kUnknown is the bopnd.vk of a value whose kind only the run fixes: a
// user call's result (a function that falls off its end returns void).
// It is no ValKind, so nothing bakes on it.
const kUnknown = 0xff

// typeKind is the static kind of a value coerced to declared type t.
func typeKind(t minic.Type) (vk, ek uint8) {
	switch {
	case t.Ptr:
		return uint8(KBuf), uint8(t.Kind)
	case t.Kind == minic.Int:
		return uint8(KInt), 0
	case t.Kind == minic.Float:
		return uint8(KFloat), 0
	case t.Kind == minic.Double:
		return uint8(KDouble), 0
	case t.Kind == minic.Bool:
		return uint8(KBool), 0
	}
	return uint8(KVoid), 0 // coerce's Value{} for void
}

// promoteKind is promote over static kinds; kUnknown where a kind is not
// numeric (the run then fails before producing a value) or not known.
func promoteKind(l, r uint8) uint8 {
	lv, rv := Value{K: ValKind(l)}, Value{K: ValKind(r)}
	if !lv.IsNumeric() || !rv.IsNumeric() {
		return kUnknown
	}
	return uint8(promote(lv, rv))
}

// exprKind is the static kind of the value e evaluates to in the current
// scope: what the tree-walker's eval of e returns whenever it returns one.
func (c *bcompiler) exprKind(e minic.Expr) (vk, ek uint8) {
	switch v := e.(type) {
	case *minic.IntLit:
		return uint8(KInt), 0
	case *minic.FloatLit:
		if v.Single {
			return uint8(KFloat), 0
		}
		return uint8(KDouble), 0
	case *minic.BoolLit:
		return uint8(KBool), 0
	case *minic.StringLit:
		return uint8(KVoid), 0
	case *minic.Ident:
		if reg, ok := c.lookup(v.Name); ok {
			return typeKind(c.vtypes[reg])
		}
	case *minic.UnaryExpr:
		if v.Op == minic.TokNot {
			return uint8(KBool), 0
		}
		switch x, _ := c.exprKind(v.X); x {
		case uint8(KInt), uint8(KFloat), kUnknown:
			return x, 0
		}
		return uint8(KDouble), 0 // applyUnary negates any other kind to a double
	case *minic.BinaryExpr:
		switch v.Op {
		case minic.TokAndAnd, minic.TokOrOr, minic.TokLt, minic.TokGt, minic.TokLe, minic.TokGe, minic.TokEqEq, minic.TokNe:
			return uint8(KBool), 0
		case minic.TokPercent:
			return uint8(KInt), 0
		}
		l, _ := c.exprKind(v.L)
		r, _ := c.exprKind(v.R)
		return promoteKind(l, r), 0
	case *minic.AssignExpr:
		// A variable keeps its declared kind; an element store yields the
		// stored value itself, promoted with the old element when compound.
		if _, ok := v.LHS.(*minic.IndexExpr); !ok {
			return c.exprKind(v.LHS)
		}
		rk, rek := c.exprKind(v.RHS)
		if v.Op == minic.TokAssign {
			return rk, rek
		}
		old, _ := c.exprKind(v.LHS)
		return promoteKind(old, rk), 0
	case *minic.IncDecExpr:
		return c.exprKind(v.X) // the old value
	case *minic.IndexExpr:
		if bk, ek := c.exprKind(v.Base); bk == uint8(KBuf) {
			return elemKind(ek), 0
		}
	case *minic.CallExpr:
		if v.Fun == "printf" {
			return uint8(KVoid), 0
		}
		if bi, ok := builtins[v.Fun]; ok {
			switch {
			case bi.s1 == nil && bi.s2 == nil:
				return uint8(KInt), 0 // abs, min, max
			case bi.rnd:
				return uint8(KFloat), 0
			}
			return uint8(KDouble), 0
		}
	case *minic.CastExpr:
		return typeKind(v.To)
	}
	return kUnknown, 0
}

// elemKind is the kind loadElem gives an element of a buffer of kind ek.
func elemKind(ek uint8) uint8 {
	switch minic.BasicKind(ek) {
	case minic.Int:
		return uint8(KInt)
	case minic.Float:
		return uint8(KFloat)
	}
	return uint8(KDouble)
}

// opndSteps counts the fine-grained steps a fused operand fetch performs
// (fetchOp): one per omVar/omConst/omIdx fetch, plus the resolve steps of
// an indexed operand's target.
func opndSteps(o *bopnd) int32 {
	switch o.mode {
	case omVar, omConst:
		return 1
	case omIdx:
		return 1 + tgtSteps(o.tgt)
	}
	return 0
}

// tgtSteps counts the steps resolveTgt performs: the base fetch, and
// either the fused index binary (own step + two operand fetches), the
// two-level fused binary (outer and inner own steps + three operand
// fetches), or the plain index fetch.
func tgtSteps(t *btarget) int32 {
	n := opndSteps(&t.base)
	switch {
	case t.fused2:
		n += 1 + 1 + opndSteps(&t.idx2a) + opndSteps(&t.idx2b) + opndSteps(&t.idxB)
	case t.fused:
		n += 1 + opndSteps(&t.idx) + opndSteps(&t.idxB)
	default:
		n += opndSteps(&t.idx)
	}
	return n
}

// instrSteps computes an instruction's static step count — the exact
// number of fine-grained steps the tree-walker charges for the same
// work. The dispatch loop batches the whole count into one budget check;
// execPrecise replays per-step when the batch detects a crossing. Every
// counted step precedes the instruction's stepless tail (combine, store,
// branch, call), so a crossing is always caught before side effects.
func instrSteps(in *binstr) int32 {
	n := int32(len(in.pre))
	switch in.op {
	case opCmpBranch, opBinAssignVar, opBinDeclVar, opLoopBack:
		n++ // the instruction's own leading step
	}
	switch in.op {
	case opEval, opUnary, opLogicShort, opBoolOf, opCast, opDeclVar, opDeclArr,
		opAssignVar, opBranchFalse, opReturn, opCheckBuf:
		n += opndSteps(&in.a)
	case opBinary, opCmpBranch, opBinAssignVar, opBinDeclVar, opBuiltin:
		n += opndSteps(&in.a) + opndSteps(&in.b)
	case opStoreIdx:
		n += opndSteps(&in.a) + tgtSteps(in.tgt)
	case opIncIdx, opLoadIdx:
		n += tgtSteps(in.tgt)
	}
	return n
}

// finalize rewrites temporary references to live above the variables.
func (c *bcompiler) finalize(bf *bfunc) {
	fix := func(r *int32) {
		if *r >= 0 && *r&tempBit != 0 {
			*r = c.nvars + (*r &^ tempBit)
		}
	}
	fixOp := func(o *bopnd) {
		fix(&o.ref)
		if o.tgt != nil {
			fix(&o.tgt.base.ref)
			fix(&o.tgt.idx.ref)
			fix(&o.tgt.idxB.ref)
			fix(&o.tgt.idx2a.ref)
			fix(&o.tgt.idx2b.ref)
		}
	}
	for i := range bf.code {
		in := &bf.code[i]
		fix(&in.dst)
		fix(&in.reg)
		fixOp(&in.a)
		fixOp(&in.b)
		if in.tgt != nil {
			fixOp(&in.tgt.base)
			fixOp(&in.tgt.idx)
			fixOp(&in.tgt.idxB)
			fixOp(&in.tgt.idx2a)
			fixOp(&in.tgt.idx2b)
		}
		in.nsteps = instrSteps(in)
	}
}

// fuseSimple builds a fused operand for the leaf shapes: resolved
// identifiers and literals.
func (c *bcompiler) fuseSimple(e minic.Expr) (bopnd, bool) {
	o := bopnd{pos: e.NodePos()}
	switch v := e.(type) {
	case *minic.Ident:
		reg, ok := c.lookup(v.Name)
		if !ok {
			return bopnd{}, false
		}
		o.mode, o.ref = omVar, reg
	case *minic.IntLit:
		o.mode, o.val = omConst, IntVal(v.Val)
	case *minic.FloatLit:
		o.mode, o.val = omConst, DoubleVal(v.Val)
		if v.Single {
			o.val = FloatVal(v.Val)
		}
	case *minic.BoolLit:
		o.mode, o.val = omConst, BoolVal(v.Val)
	default:
		return bopnd{}, false
	}
	o.vk, o.ek = c.exprKind(e)
	return o, true
}

// temp materializes e into a fresh temporary (pre charged before its first
// instruction) and returns it as an operand of e's static kind; the caller
// frees the temporary after the consumer emits.
func (c *bcompiler) temp(e minic.Expr, pre []minic.Pos) bopnd {
	o := bopnd{mode: omPlain, ref: c.tempAlloc()}
	c.compileExprTo(e, o.ref, pre)
	o.vk, o.ek = c.exprKind(e)
	return o
}

// fuseOperand extends fuseSimple with indexed loads whose base is a
// resolved variable and whose index is simple or a simple⊕simple binary —
// the accumulate patterns (s += a[i], x = p[i*3]) fuse into one
// instruction. The fetch accounting matches the tree-walker's IndexExpr
// eval exactly.
func (c *bcompiler) fuseOperand(e minic.Expr) (bopnd, bool) {
	if o, ok := c.fuseSimple(e); ok {
		return o, true
	}
	ix, ok := e.(*minic.IndexExpr)
	if !ok {
		return bopnd{}, false
	}
	tgt, ok := c.fuseTarget(ix)
	if !ok {
		return bopnd{}, false
	}
	o := bopnd{mode: omIdx, pos: ix.NodePos(), tgt: tgt}
	o.vk, o.ek = c.exprKind(ix)
	return o, true
}

// fuseTarget builds a fused index target when base and index are simple
// enough to resolve without materialization.
func (c *bcompiler) fuseTarget(ix *minic.IndexExpr) (*btarget, bool) {
	base, ok := c.fuseSimple(ix.Base)
	if !ok {
		return nil, false
	}
	t := &btarget{base: base, pos: ix.NodePos()}
	if idx, ok := c.fuseSimple(ix.Index); ok {
		t.idx = idx
		return t, true
	}
	if b, ok := ix.Index.(*minic.BinaryExpr); ok && b.Op != minic.TokAndAnd && b.Op != minic.TokOrOr {
		l, lok := c.fuseSimple(b.L)
		r, rok := c.fuseSimple(b.R)
		if lok && rok {
			t.idx, t.idxB, t.fused = l, r, true
			t.idxOp, t.idxPos = b.Op, b.NodePos()
			return t, true
		}
		// Two-level row-major pattern a[(x ⊕₂ y) ⊕ z]: a left-nested
		// binary with simple leaves (i*K+j and friends).
		if !lok && rok {
			if bl, ok := b.L.(*minic.BinaryExpr); ok && bl.Op != minic.TokAndAnd && bl.Op != minic.TokOrOr {
				x, xok := c.fuseSimple(bl.L)
				y, yok := c.fuseSimple(bl.R)
				if xok && yok {
					t.idx2a, t.idx2b, t.fused, t.fused2 = x, y, true, true
					t.idxOp2, t.idxPos2 = bl.Op, bl.NodePos()
					t.idxB = r
					t.idxOp, t.idxPos = b.Op, b.NodePos()
					return t, true
				}
			}
		}
	}
	return nil, false
}

// compileStmts lowers a statement list; pre is charged before the first
// statement's own step (the enclosing block's statement step).
func (c *bcompiler) compileStmts(stmts []minic.Stmt, pre []minic.Pos) {
	if len(stmts) == 0 {
		if len(pre) > 0 {
			c.emit(binstr{op: opNop, pre: pre})
		}
		return
	}
	for i, s := range stmts {
		if i == 0 {
			c.compileStmt(s, pre)
		} else {
			c.compileStmt(s, nil)
		}
	}
}

func withPos(pre []minic.Pos, pos minic.Pos) []minic.Pos {
	out := make([]minic.Pos, 0, len(pre)+1)
	out = append(out, pre...)
	return append(out, pos)
}

func (c *bcompiler) compileStmt(s minic.Stmt, pre []minic.Pos) {
	pos := s.NodePos()
	switch v := s.(type) {
	case *minic.Block:
		c.push()
		c.compileStmts(v.Stmts, withPos(pre, pos))
		c.pop()
	case *minic.DeclStmt:
		c.compileDecl(v, pre)
	case *minic.ExprStmt:
		c.compileExprTo(v.X, -1, withPos(pre, pos))
	case *minic.ForStmt:
		c.compileFor(v, pre)
	case *minic.WhileStmt:
		c.compileWhile(v, pre)
	case *minic.IfStmt:
		c.compileIf(v, pre)
	case *minic.ReturnStmt:
		if v.X == nil {
			c.emit(binstr{op: opReturnVoid, pre: withPos(pre, pos), pos: pos})
			return
		}
		if o, ok := c.fuseOperand(v.X); ok {
			c.emit(binstr{op: opReturn, pre: withPos(pre, pos), pos: pos, a: o, typ: c.curFn.Ret})
			return
		}
		c.emit(binstr{op: opReturn, pos: pos, a: c.temp(v.X, withPos(pre, pos)), typ: c.curFn.Ret})
		c.tempFree(1)
	case *minic.BreakStmt:
		if len(c.loops) == 0 {
			c.emitEscaped(pre, pos)
			return
		}
		lc := c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, c.emit(binstr{op: opJump, pre: withPos(pre, pos)}))
	case *minic.ContinueStmt:
		if len(c.loops) == 0 {
			c.emitEscaped(pre, pos)
			return
		}
		lc := c.loops[len(c.loops)-1]
		lc.conts = append(lc.conts, c.emit(binstr{op: opJump, pre: withPos(pre, pos)}))
	case *minic.PragmaStmt:
		c.emit(binstr{op: opNop, pre: withPos(pre, pos)}) // pragmas are semantically transparent
	default:
		c.emit(binstr{op: opErrMsg, pre: withPos(pre, pos), pos: pos,
			name: fmt.Sprintf("unhandled statement %T", s)})
	}
}

// emitEscaped lowers a break/continue outside any loop: the tree-walker
// surfaces it when control reaches machine.call, with the function's
// position.
func (c *bcompiler) emitEscaped(pre []minic.Pos, pos minic.Pos) {
	c.emit(binstr{op: opErrMsg, pre: withPos(pre, pos), pos: c.curFn.NodePos(),
		name: fmt.Sprintf("break/continue escaped function %s", c.curFn.Name)})
}

func (c *bcompiler) compileDecl(d *minic.DeclStmt, pre []minic.Pos) {
	pos := d.NodePos()
	if d.ArrayLen != nil {
		// The length expression resolves in the surrounding scope, before
		// the array's own name becomes visible.
		// The array register holds a buffer of the declared element kind.
		arr := minic.Type{Kind: d.Type.Kind, Ptr: true}
		if o, ok := c.fuseOperand(d.ArrayLen); ok {
			reg := c.declare(d.Name, arr)
			c.emit(binstr{op: opDeclArr, pre: withPos(pre, pos), pos: pos, reg: reg,
				a: o, name: d.Name, typ: d.Type})
			return
		}
		n := c.temp(d.ArrayLen, withPos(pre, pos))
		reg := c.declare(d.Name, arr)
		c.emit(binstr{op: opDeclArr, pos: pos, reg: reg, a: n, name: d.Name, typ: d.Type})
		c.tempFree(1)
		return
	}
	// Initializers see the outer binding of a shadowed name, so compile
	// Init before declaring.
	var init bopnd
	var initInstrs bool
	if d.Init != nil {
		// Superinstruction: a declaration initialized by a fusible binary
		// (`float dx = p[j] - p[i]`) evaluates and declares in one dispatch.
		if b, bok := d.Init.(*minic.BinaryExpr); bok &&
			b.Op != minic.TokAndAnd && b.Op != minic.TokOrOr {
			l, lok := c.fuseOperand(b.L)
			r, rok := c.fuseOperand(b.R)
			if lok && rok {
				reg := c.declare(d.Name, d.Type)
				c.emit(binstr{op: opBinDeclVar, fused: true, pre: withPos(pre, pos), pos: pos,
					pos2: b.NodePos(), tok2: b.Op, reg: reg, a: l, b: r, name: d.Name, typ: d.Type})
				return
			}
		}
		if o, ok := c.fuseOperand(d.Init); ok {
			init = o
		} else {
			init = c.temp(d.Init, withPos(pre, pos))
			initInstrs = true
		}
	}
	reg := c.declare(d.Name, d.Type)
	in := binstr{op: opDeclVar, pos: pos, reg: reg, a: init, name: d.Name, typ: d.Type}
	if !initInstrs {
		in.pre = withPos(pre, pos)
	}
	c.emit(in)
	if initInstrs {
		c.tempFree(1)
	}
}

func (c *bcompiler) compileIf(v *minic.IfStmt, pre []minic.Pos) {
	branch := c.compileCond(v.Cond, withPos(pre, v.NodePos()))
	c.push()
	c.compileStmts(v.Then.Stmts, nil)
	c.pop()
	if v.Else == nil {
		c.code[branch].jmp = c.here()
		return
	}
	end := c.emit(binstr{op: opJump})
	c.code[branch].jmp = c.here()
	c.compileStmt(v.Else, nil)
	c.code[end].jmp = c.here()
}

// compileCond lowers a conditional evaluation followed by the CostBranch
// charge and a branch-if-false with an unpatched target; it returns the
// index of the branching instruction. Fused binary conditions become a
// single compare-and-branch superinstruction.
func (c *bcompiler) compileCond(cond minic.Expr, pre []minic.Pos) int32 {
	if b, ok := cond.(*minic.BinaryExpr); ok &&
		b.Op != minic.TokAndAnd && b.Op != minic.TokOrOr {
		l, lok := c.fuseOperand(b.L)
		r, rok := c.fuseOperand(b.R)
		if lok && rok {
			return c.emit(binstr{op: opCmpBranch, fused: true, pre: pre, pos: b.NodePos(),
				tok: b.Op, a: l, b: r})
		}
	}
	if o, ok := c.fuseOperand(cond); ok {
		return c.emit(binstr{op: opBranchFalse, pre: pre, a: o})
	}
	idx := c.emit(binstr{op: opBranchFalse, a: c.temp(cond, pre)})
	c.tempFree(1)
	return idx
}

// loopEnter emits the opLoopEnter of the loop being lowered (already on
// c.loops). A depth-1 loop is a hotspot candidate: its instruction carries
// the enclosing function and, in n, 1 + the index of the bfunc.cands entry
// made here. The loop's free variables are visible at this point —
// query.FreeVars resolves names by the scoping c.lookup applies — and
// variable registers are final when allocated.
func (c *bcompiler) loopEnter(loop minic.Stmt, pre []minic.Pos) {
	in := binstr{op: opLoopEnter, pre: withPos(pre, loop.NodePos()), pos: loop.NodePos(), lid: loop.ID()}
	if len(c.loops) == 1 {
		params := candParams(c.curFn, loop)
		cand := bcand{params: params, regs: make([]int32, len(params))}
		for i, p := range params {
			cand.regs[i], _ = c.lookup(p.Name)
		}
		in.fn = c.funcs[c.curFn.Name]
		in.fn.cands = append(in.fn.cands, cand)
		in.n = int32(len(in.fn.cands))
	}
	c.emit(in)
}

func (c *bcompiler) compileFor(f *minic.ForStmt, pre []minic.Pos) {
	c.push() // the for-init scope, as in execFor
	lc := &bloopCtx{}
	c.loops = append(c.loops, lc)
	c.loopEnter(f, pre)
	if f.Init != nil {
		c.compileStmt(f.Init, nil)
	}
	condLbl := c.here()
	branch := int32(-1)
	if f.Cond != nil {
		branch = c.compileCond(f.Cond, nil)
	}
	c.emit(binstr{op: opLoopBack, pos: f.NodePos()})
	c.push()
	c.compileStmts(f.Body.Stmts, nil)
	c.pop()
	postLbl := c.here()
	if f.Post != nil {
		c.compileExprTo(f.Post, -1, nil)
	}
	c.emit(binstr{op: opJump, jmp: condLbl})
	exit := c.here()
	c.emit(binstr{op: opLoopExit})
	if branch >= 0 {
		c.code[branch].jmp = exit
	}
	for _, i := range lc.breaks {
		c.code[i].jmp = exit
	}
	for _, i := range lc.conts {
		c.code[i].jmp = postLbl
	}
	c.loops = c.loops[:len(c.loops)-1]
	c.pop()
}

func (c *bcompiler) compileWhile(w *minic.WhileStmt, pre []minic.Pos) {
	lc := &bloopCtx{}
	c.loops = append(c.loops, lc)
	c.loopEnter(w, pre)
	condLbl := c.here()
	branch := c.compileCond(w.Cond, nil)
	c.emit(binstr{op: opLoopBack, pos: w.NodePos()})
	c.push()
	c.compileStmts(w.Body.Stmts, nil)
	c.pop()
	c.emit(binstr{op: opJump, jmp: condLbl})
	exit := c.here()
	c.emit(binstr{op: opLoopExit})
	c.code[branch].jmp = exit
	for _, i := range lc.breaks {
		c.code[i].jmp = exit
	}
	for _, i := range lc.conts {
		c.code[i].jmp = condLbl
	}
	c.loops = c.loops[:len(c.loops)-1]
}

// compileExprTo lowers e so its value lands in register dst (-1 discards
// the value but performs all accounting). pre is charged before e's own
// step, preserving the tree-walker's statement-then-expression order.
func (c *bcompiler) compileExprTo(e minic.Expr, dst int32, pre []minic.Pos) {
	pos := e.NodePos()
	switch v := e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.BoolLit:
		o, _ := c.fuseSimple(e)
		c.emit(binstr{op: opEval, pre: pre, dst: dst, a: o})
	case *minic.StringLit:
		c.emit(binstr{op: opEval, pre: withPos(pre, pos), dst: dst,
			a: bopnd{mode: omNone}}) // only meaningful inside printf-family calls
	case *minic.Ident:
		if o, ok := c.fuseSimple(e); ok {
			c.emit(binstr{op: opEval, pre: pre, dst: dst, a: o})
			return
		}
		c.emit(binstr{op: opErrMsg, pre: withPos(pre, pos), pos: pos,
			name: fmt.Sprintf("undefined variable %q", v.Name)})
	case *minic.UnaryExpr:
		if o, ok := c.fuseOperand(v.X); ok {
			c.emit(binstr{op: opUnary, pre: withPos(pre, pos), dst: dst, tok: v.Op, a: o})
			return
		}
		c.emit(binstr{op: opUnary, dst: dst, tok: v.Op, a: c.temp(v.X, withPos(pre, pos))})
		c.tempFree(1)
	case *minic.BinaryExpr:
		c.compileBinaryTo(v, dst, pre)
	case *minic.AssignExpr:
		c.compileAssignTo(v, dst, pre)
	case *minic.IncDecExpr:
		c.compileIncDecTo(v, dst, pre)
	case *minic.IndexExpr:
		if o, ok := c.fuseOperand(e); ok {
			c.emit(binstr{op: opEval, fused: true, pre: pre, dst: dst, a: o})
			return
		}
		tgt, ntemps := c.materializeTarget(v, withPos(pre, pos))
		c.emit(binstr{op: opLoadIdx, dst: dst, tgt: tgt})
		c.tempFree(ntemps)
	case *minic.CallExpr:
		c.compileCallTo(v, dst, pre)
	case *minic.CastExpr:
		if o, ok := c.fuseOperand(v.X); ok {
			c.emit(binstr{op: opCast, pre: withPos(pre, pos), pos: pos, dst: dst, a: o, typ: v.To})
			return
		}
		c.emit(binstr{op: opCast, pos: pos, dst: dst, a: c.temp(v.X, withPos(pre, pos)), typ: v.To})
		c.tempFree(1)
	default:
		c.emit(binstr{op: opErrMsg, pre: withPos(pre, pos), pos: pos,
			name: fmt.Sprintf("unhandled expression %T", e)})
	}
}

// operandOrTemp fuses e or materializes it into a fresh temp, returning
// the operand and the number of temps to free after the consumer emits.
// pre is charged before e's first instruction only on the temp path; the
// caller attaches it to the consuming instruction on the fused path.
func (c *bcompiler) operandOrTemp(e minic.Expr, pre []minic.Pos) (bopnd, int32, bool) {
	if o, ok := c.fuseOperand(e); ok {
		return o, 0, true
	}
	return c.temp(e, pre), 1, false
}

func (c *bcompiler) compileBinaryTo(b *minic.BinaryExpr, dst int32, pre []minic.Pos) {
	pos := b.NodePos()
	if b.Op == minic.TokAndAnd || b.Op == minic.TokOrOr {
		// Short-circuit: L evaluates (with the binary's own step first),
		// CostLogic is charged, then R evaluates only when needed.
		l, ltemps, lfused := c.operandOrTemp(b.L, withPos(pre, pos))
		in := binstr{op: opLogicShort, dst: dst, tok: b.Op, a: l}
		if lfused {
			in.pre = withPos(pre, pos)
		}
		short := c.emit(in)
		c.tempFree(ltemps)
		r, rtemps, _ := c.operandOrTemp(b.R, nil)
		c.emit(binstr{op: opBoolOf, dst: dst, a: r})
		c.tempFree(rtemps)
		c.code[short].jmp = c.here()
		return
	}
	// The fused binary: leaf operands and indexed loads are fetched
	// inside the instruction. The binary's own
	// step rides in the instruction's pre list.
	l, lok := c.fuseOperand(b.L)
	r, rok := c.fuseOperand(b.R)
	if lok && rok {
		c.emit(binstr{op: opBinary, fused: true, pre: withPos(pre, pos), pos: pos,
			tok: b.Op, dst: dst, a: l, b: r})
		return
	}
	// At least one complex operand: the binary's step precedes the first
	// operand's instructions, and any fused operand *before* a complex one
	// materializes (via opEval, with identical accounting) so the fetch
	// order stays exactly the tree-walker's.
	ntemps := int32(1)
	l = c.temp(b.L, withPos(pre, pos))
	if !rok {
		ntemps++
		r = c.temp(b.R, nil)
	}
	in := binstr{op: opBinary, pos: pos, tok: b.Op, dst: dst, a: l, b: r}
	if r.mode != omPlain {
		in.fused = true
	}
	c.emit(in)
	c.tempFree(ntemps)
}

// materializeTarget lowers an index target that cannot fully fuse,
// preserving the base-is-buffer check between base and index evaluation.
// pre is charged before the first emitted instruction. Returns the target
// and the number of temps the caller must free after the consumer emits.
func (c *bcompiler) materializeTarget(ix *minic.IndexExpr, pre []minic.Pos) (*btarget, int32) {
	if tgt, ok := c.fuseTarget(ix); ok {
		if len(pre) > 0 {
			c.emit(binstr{op: opNop, pre: pre})
		}
		return tgt, 0
	}
	pos := ix.NodePos()
	tgt := &btarget{pos: pos}
	var ntemps int32
	idxFusible := false
	if _, ok := c.fuseSimple(ix.Index); ok {
		idxFusible = true
	} else if b, ok := ix.Index.(*minic.BinaryExpr); ok && b.Op != minic.TokAndAnd && b.Op != minic.TokOrOr {
		_, lok := c.fuseSimple(b.L)
		_, rok := c.fuseSimple(b.R)
		idxFusible = lok && rok
	}
	if idxFusible {
		// The index resolves inside the consuming instruction, so only the
		// base needs materializing (fuseTarget already failed, so the base
		// is complex). Base eval → bufOf → index fetch → bounds then run in
		// sequence inside the consumer, exactly the tree-walker's resolve order.
		tgt.base = c.temp(ix.Base, pre)
		ntemps++
		if idx, ok := c.fuseSimple(ix.Index); ok {
			tgt.idx = idx
		} else {
			b := ix.Index.(*minic.BinaryExpr)
			tgt.idx, _ = c.fuseSimple(b.L)
			tgt.idxB, _ = c.fuseSimple(b.R)
			tgt.fused = true
			tgt.idxOp, tgt.idxPos = b.Op, b.NodePos()
		}
		return tgt, ntemps
	}
	// Complex index: the tree-walker's resolve order is base eval (with its own
	// accounting) → bufOf → index eval → bounds, so the base materializes
	// first — a fusible base lowers to opEval with identical accounting —
	// then the buffer check runs before the index expression evaluates.
	// The consumer's own bufOf re-check is then guaranteed to pass.
	tgt.base = c.temp(ix.Base, pre)
	c.emit(binstr{op: opCheckBuf, pos: pos, a: tgt.base})
	tgt.idx = c.temp(ix.Index, nil)
	return tgt, 2
}

func (c *bcompiler) compileAssignTo(a *minic.AssignExpr, dst int32, pre []minic.Pos) {
	pos := a.NodePos()
	switch lhs := a.LHS.(type) {
	case *minic.Ident:
		lpos := lhs.NodePos()
		reg, ok := c.lookup(lhs.Name)
		if !ok {
			t := c.tempAlloc()
			c.compileExprTo(a.RHS, t, withPos(pre, pos))
			c.tempFree(1)
			c.emit(binstr{op: opErrMsg, pos: lpos,
				name: fmt.Sprintf("undefined variable %q", lhs.Name)})
			return
		}
		// Superinstruction: x op= simple⊕simple executes the RHS binary,
		// the compound combine, and the store in one dispatch (the FMA
		// pattern `acc += a * b` lands here).
		if b, bok := a.RHS.(*minic.BinaryExpr); bok &&
			b.Op != minic.TokAndAnd && b.Op != minic.TokOrOr {
			l, lok := c.fuseOperand(b.L)
			r, rok := c.fuseOperand(b.R)
			if lok && rok {
				c.emit(binstr{op: opBinAssignVar, fused: true, pre: withPos(pre, pos),
					pos: pos, pos2: b.NodePos(), pos3: lpos, tok: a.Op, tok2: b.Op,
					dst: dst, reg: reg, a: l, b: r, name: lhs.Name, typ: c.vtypes[reg]})
				return
			}
		}
		rhs, ntemps, fused := c.operandOrTemp(a.RHS, withPos(pre, pos))
		in := binstr{op: opAssignVar, pos: pos, pos2: lpos, tok: a.Op, dst: dst,
			reg: reg, a: rhs}
		if fused && rhs.mode == omIdx {
			in.fused = true
		}
		if fused {
			in.pre = withPos(pre, pos)
		}
		c.emit(in)
		c.tempFree(ntemps)
	case *minic.IndexExpr:
		lpos := lhs.NodePos()
		// RHS evaluates before the target resolves, as in compileAssign.
		carry := withPos(pre, pos)
		if tgt, ok := c.fuseTarget(lhs); ok {
			if rhs, rok := c.fuseOperand(a.RHS); rok {
				c.emit(binstr{op: opStoreIdx, fused: true, pre: carry, pos: pos, pos2: lpos,
					tok: a.Op, dst: dst, a: rhs, tgt: tgt})
				return
			}
			c.emit(binstr{op: opStoreIdx, fused: true, pos: pos, pos2: lpos,
				tok: a.Op, dst: dst, a: c.temp(a.RHS, carry), tgt: tgt})
			c.tempFree(1)
			return
		}
		// Complex target: the RHS (fusible or not) materializes first so
		// its accounting precedes the target's instructions.
		rhs := c.temp(a.RHS, carry)
		tgt, ttemps := c.materializeTarget(lhs, nil)
		c.emit(binstr{op: opStoreIdx, pos: pos, pos2: lpos, tok: a.Op, dst: dst, a: rhs, tgt: tgt})
		c.tempFree(ttemps + 1)
	default:
		t := c.tempAlloc()
		c.compileExprTo(a.RHS, t, withPos(pre, pos))
		c.tempFree(1)
		c.emit(binstr{op: opErrMsg, pos: pos,
			name: fmt.Sprintf("invalid assignment target %T", a.LHS)})
	}
}

func (c *bcompiler) compileIncDecTo(x *minic.IncDecExpr, dst int32, pre []minic.Pos) {
	pos := x.NodePos()
	delta := int32(1)
	if x.Op == minic.TokMinusMinus {
		delta = -1
	}
	switch t := x.X.(type) {
	case *minic.Ident:
		tpos := t.NodePos()
		reg, ok := c.lookup(t.Name)
		if !ok {
			c.emit(binstr{op: opErrMsg, pre: withPos(pre, pos), pos: tpos,
				name: fmt.Sprintf("undefined variable %q", t.Name)})
			return
		}
		c.emit(binstr{op: opIncVar, pre: withPos(pre, pos), pos: tpos, dst: dst, reg: reg, n: delta})
	case *minic.IndexExpr:
		tpos := t.NodePos()
		if tgt, ok := c.fuseTarget(t); ok {
			c.emit(binstr{op: opIncIdx, fused: true, pre: withPos(pre, pos), pos: tpos,
				dst: dst, n: delta, tgt: tgt})
			return
		}
		tgt, ntemps := c.materializeTarget(t, withPos(pre, pos))
		c.emit(binstr{op: opIncIdx, pos: tpos, dst: dst, n: delta, tgt: tgt})
		c.tempFree(ntemps)
	default:
		c.emit(binstr{op: opErrMsg, pre: withPos(pre, pos), pos: pos,
			name: fmt.Sprintf("invalid ++/-- target %T", x.X)})
	}
}

func (c *bcompiler) compileCallTo(call *minic.CallExpr, dst int32, pre []minic.Pos) {
	pos := call.NodePos()
	// printf-family builtins capture output without evaluating format
	// strings for cost.
	if call.Fun == "printf" {
		var dataArgs []minic.Expr
		for _, a := range call.Args {
			if _, ok := a.(*minic.StringLit); ok {
				continue // format strings carry no data we need to capture
			}
			dataArgs = append(dataArgs, a)
		}
		base, n := c.compileArgs(dataArgs, withPos(pre, pos))
		in := binstr{op: opPrintf, dst: dst, reg: base, n: n}
		if n == 0 {
			in.pre = withPos(pre, pos)
		}
		c.emit(in)
		c.tempFree(n)
		return
	}
	if bi, ok := builtins[call.Fun]; ok {
		// Fused builtin: up to two simple arguments fetch inside the
		// dispatch (sqrt(r2), fmax(a, b[i]) ...).
		if len(call.Args) <= 2 {
			ops := make([]bopnd, len(call.Args))
			allFused := true
			for i, a := range call.Args {
				o, ok := c.fuseOperand(a)
				if !ok {
					allFused = false
					break
				}
				ops[i] = o
			}
			if allFused {
				in := binstr{op: opBuiltin, fused: true, pre: withPos(pre, pos), pos: pos,
					dst: dst, n: int32(len(ops)), bi: bi, name: call.Fun}
				if len(ops) > 0 {
					in.a = ops[0]
				}
				if len(ops) > 1 {
					in.b = ops[1]
				}
				c.emit(in)
				return
			}
		}
		base, n := c.compileArgs(call.Args, withPos(pre, pos))
		in := binstr{op: opBuiltin, pos: pos, dst: dst, reg: base, n: n, bi: bi, name: call.Fun}
		if n == 0 {
			in.pre = withPos(pre, pos)
		}
		c.emit(in)
		c.tempFree(n)
		return
	}
	callee := c.prog.Func(call.Fun)
	if callee == nil {
		// Arguments are not evaluated for undefined functions.
		c.emit(binstr{op: opErrMsg, pre: withPos(pre, pos), pos: pos,
			name: fmt.Sprintf("call to undefined function %q", call.Fun)})
		return
	}
	base, n := c.compileArgs(call.Args, withPos(pre, pos))
	in := binstr{op: opCall, pos: pos, dst: dst, reg: base, n: n, fn: c.funcs[callee.Name]}
	if n == 0 {
		in.pre = withPos(pre, pos)
	}
	c.emit(in)
	c.tempFree(n)
}

// compileArgs materializes call arguments into consecutive temporaries;
// pre is charged before the first argument. The caller frees n temps.
func (c *bcompiler) compileArgs(args []minic.Expr, pre []minic.Pos) (base int32, n int32) {
	n = int32(len(args))
	if n == 0 {
		return 0, 0
	}
	base = c.tempAlloc()
	for i := int32(1); i < n; i++ {
		c.tempAlloc()
	}
	for i, a := range args {
		if i == 0 {
			c.compileExprTo(a, base+int32(i), pre)
		} else {
			c.compileExprTo(a, base+int32(i), nil)
		}
	}
	return base, n
}
