package interp

import (
	"fmt"
	"sync"

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
	opCmpBranch           // cond = fusedBin(a, b, tok, pos), a and b fused or temporaries; CostBranch; !cond -> pc = jmp
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

// bopnd is one fused operand. vk is the static ValKind of its value and
// ek, when vk is KBuf, the buffer's element kind (a minic.BasicKind); both
// sit in the padding after mode.
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

// binstr is one instruction. pre is the node of its function's prefix tree
// (bfunc.prefs) that lists the statement/expression step positions the
// enclosing constructs charge before this instruction's own work (a fused
// `b[i] += x` carries the expression-statement and assignment steps
// there), preserving the exact budget-exceeded error positions.
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
	n      int32  // arg count; ++/-- delta; opLoopEnter: 1 + index in its function's cands, 0 below depth 1
	jmp    int32  // branch target
	nsteps int32  // static step count: pre's depth + own step + operand steps
	tok    minic.TokKind
	tok2   minic.TokKind // binop for opBinAssignVar
	a, b   bopnd
	q      *qinfo // baked plan of a specialised instruction, in its function's slab

	pre  prefix
	pos  minic.Pos
	pos2 minic.Pos // secondary position (binop inside opBinAssignVar, LHS of assignments)
	pos3 minic.Pos // tertiary position (LHS of opBinAssignVar)
	lid  int       // loop node ID for opLoopEnter
	tgt  *btarget
	typ  minic.Type // declared type (declarations, casts, returns; opBinAssignVar: the cell's)
	name string     // variable/function/builtin name
	fn   *bfunc     // callee
	bi   builtin
}

// bfunc is one lowered function. prefs is the prefix tree its
// instructions' pre index, at its exact length.
type bfunc struct {
	decl  *minic.FuncDecl
	nregs int
	code  []binstr
	prefs []prefNode
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
//
// Everything but prog, funcs and curFn is scratch: reused from function to
// function, and from lowering to lowering through lowerScratch. What a
// lowering returns is copied out of it (compileFunc), so no image aliases
// it.
type bcompiler struct {
	prog    *minic.Program
	funcs   map[string]*bfunc
	scopes  []map[string]int32 // emptied by pop and kept for the next push at its depth
	nvars   int32
	vtypes  []minic.Type // declared type of each variable register
	tempN   int32
	tempMax int32
	code    []binstr
	prefs   []prefNode  // the function's prefix tree; prefs[noPrefix] is its root
	tgts    [][]btarget // index targets, in chunks of tgtChunk that never move
	ntgts   int         // targets handed out from tgts for this function
	curFn   *minic.FuncDecl
	loops   []bloopCtx
	generic bool    // no specialisation: every instruction keeps its generic opcode
	plans   []qinfo // specialise's scratch
}

// prefix is the list of step positions the enclosing statements and
// expressions charge before an instruction's own work, as a node of the
// function's prefix tree: the node's position comes last, and its
// ancestors' precede it, root first. Extending a prefix (withPos) adds one
// node and copies nothing, so a prefix as deep as the source is long
// costs what its last position costs.
type prefix int32

// noPrefix is the tree's root: no positions.
const noPrefix prefix = 0

// prefNode is one position of the prefix tree.
type prefNode struct {
	pos    minic.Pos
	parent prefix
	depth  int32 // positions from the root to this node, this one included
}

// withPos is pre followed by pos.
func (c *bcompiler) withPos(pre prefix, pos minic.Pos) prefix {
	c.prefs = append(c.prefs, prefNode{pos: pos, parent: pre, depth: c.prefs[pre].depth + 1})
	return prefix(len(c.prefs) - 1)
}

// tgtChunk is how many index targets one chunk of bcompiler.tgts holds.
const tgtChunk = 32

// newTarget hands out a zeroed index target from the scratch; finalize
// copies the ones instructions kept into the image.
func (c *bcompiler) newTarget() *btarget {
	i, j := c.ntgts/tgtChunk, c.ntgts%tgtChunk
	if i == len(c.tgts) {
		c.tgts = append(c.tgts, make([]btarget, tgtChunk))
	}
	c.ntgts++
	t := &c.tgts[i][j]
	*t = btarget{}
	return t
}

// bloopCtx collects break/continue patch sites for one lexical loop.
type bloopCtx struct {
	breaks []int32
	conts  []int32
}

// lowerScratch holds the compilers idle lowerings left, the one returned
// last on top. It is not a sync.Pool: the collector empties a pool, and a
// lowering after a collection would grow its scratch again, so what a job
// allocates would depend on when the last collection ran.
var lowerScratch = scratchList{idle: make([]*bcompiler, 0, maxIdleScratch)}

type scratchList struct {
	mu   sync.Mutex
	idle []*bcompiler
}

// get takes the scratch returned last, or a new one.
func (l *scratchList) get() *bcompiler {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return new(bcompiler)
	}
	c := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return c
}

// put keeps c for the next lowering, unless maxIdleScratch are kept.
func (l *scratchList) put(c *bcompiler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < maxIdleScratch {
		l.idle = append(l.idle, c)
	}
}

// The most idle scratch lowerScratch keeps; the largest scratch it takes
// back, in instructions of one function, prefix-tree nodes, and scope or
// loop nesting; and the most variables a scope's map may have held to be
// kept for the next push. A hostile program lowers to scratch of any size,
// and lowerScratch would hold it for the life of the process.
const (
	maxIdleScratch  = 8
	maxScratchCode  = 4096
	maxScratchPrefs = 8192
	maxScratchDepth = 256
	maxScopeVars    = 64
)

// compileBytecode lowers every function of prog, which minic.Check
// accepts: every name resolves, every break and continue has a loop, and
// minic.TypeOf types every operand. A construct Check rejects panics here,
// and lowerBytecode falls back to the tree-walker, which reports it; the
// panicking lowering's scratch is left to the collector.
func compileBytecode(prog *minic.Program, generic bool) *bprog {
	c := lowerScratch.get()
	c.prog, c.generic = prog, generic
	c.funcs = make(map[string]*bfunc, len(prog.Funcs))
	bfs := make([]bfunc, len(prog.Funcs))
	for i, f := range prog.Funcs {
		if _, exists := c.funcs[f.Name]; !exists { // first declaration wins, as in Program.Func
			bfs[i].decl = f
			c.funcs[f.Name] = &bfs[i]
		}
	}
	for _, f := range prog.Funcs {
		if bf := c.funcs[f.Name]; bf.decl == f {
			c.compileFunc(bf)
		}
	}
	bp := &bprog{funcs: c.funcs}
	c.prog, c.funcs, c.curFn = nil, nil, nil
	if cap(c.code) <= maxScratchCode && cap(c.prefs) <= maxScratchPrefs &&
		len(c.tgts)*tgtChunk <= maxScratchCode &&
		cap(c.scopes) <= maxScratchDepth && cap(c.loops) <= maxScratchDepth {
		lowerScratch.put(c)
	}
	return bp
}

// push opens a scope on the map the last scope at its depth left empty.
func (c *bcompiler) push() {
	n := len(c.scopes)
	if n < cap(c.scopes) {
		c.scopes = c.scopes[:n+1]
		if c.scopes[n] != nil {
			return
		}
	} else {
		c.scopes = append(c.scopes, nil)
	}
	c.scopes[n] = make(map[string]int32)
}

// pop closes the innermost scope and empties its map, or drops it if it
// grew past maxScopeVars.
func (c *bcompiler) pop() {
	n := len(c.scopes) - 1
	if m := c.scopes[n]; len(m) > maxScopeVars {
		c.scopes[n] = nil
	} else {
		clear(m)
	}
	c.scopes = c.scopes[:n]
}

// enterLoop opens the patch sites of a loop being lowered, on the lists
// the last loop at its depth left.
func (c *bcompiler) enterLoop() {
	n := len(c.loops)
	if n == cap(c.loops) {
		c.loops = append(c.loops, bloopCtx{})
		return
	}
	c.loops = c.loops[:n+1]
	lc := &c.loops[n]
	lc.breaks, lc.conts = lc.breaks[:0], lc.conts[:0]
}

// exitLoop patches the breaks of the innermost loop to exit and its
// continues to cont, and closes it.
func (c *bcompiler) exitLoop(exit, cont int32) {
	lc := &c.loops[len(c.loops)-1]
	for _, i := range lc.breaks {
		c.code[i].jmp = exit
	}
	for _, i := range lc.conts {
		c.code[i].jmp = cont
	}
	c.loops = c.loops[:len(c.loops)-1]
}

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

// reg is the register of the variable name, which a checked program has
// declared.
func (c *bcompiler) reg(name string) int32 {
	reg, ok := c.lookup(name)
	if !ok {
		panic("interp: undefined variable " + name)
	}
	return reg
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

// emit appends in, charging pre before its own work.
func (c *bcompiler) emit(in binstr, pre prefix) int32 {
	in.gop, in.pre = in.op, pre
	c.code = append(c.code, in)
	return int32(len(c.code) - 1)
}

func (c *bcompiler) here() int32 { return int32(len(c.code)) }

// compileFunc lowers bf into the scratch, then copies its code and prefix
// tree out at their exact lengths and clears the scratch's code, whose
// pointers would keep this program reachable from lowerScratch.
func (c *bcompiler) compileFunc(bf *bfunc) {
	fn := bf.decl
	c.curFn = fn
	c.scopes = c.scopes[:0]
	c.nvars, c.tempN, c.tempMax = 0, 0, 0
	c.vtypes = c.vtypes[:0]
	c.code = c.code[:0]
	c.prefs = append(c.prefs[:0], prefNode{})
	c.ntgts = 0
	c.loops = c.loops[:0]
	c.push() // parameter scope, as in machine.call
	for _, p := range fn.Params {
		c.declare(p.Name, p.Type) // params occupy registers 0..len-1 in order
	}
	c.compileStmts(fn.Body.Stmts, noPrefix)
	c.pop()
	bf.code = make([]binstr, len(c.code))
	copy(bf.code, c.code)
	clear(c.code)
	bf.prefs = append([]prefNode(nil), c.prefs...)
	bf.nregs = int(c.nvars + c.tempMax)
	c.finalize(bf)
	if !c.generic {
		c.specialise(bf)
	}
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

// VarType resolves a name in the current lowering scope and Func a call,
// so the lowering is the minic.Scope its operands are typed in.
func (c *bcompiler) VarType(name string) (minic.Type, bool) {
	if reg, ok := c.lookup(name); ok {
		return c.vtypes[reg], true
	}
	return minic.Type{}, false
}

func (c *bcompiler) Func(name string) *minic.FuncDecl { return c.prog.Func(name) }

// exprKind is the static kind of the value e evaluates to in the current
// scope (minic.TypeOf): what the tree-walker's eval of e returns.
func (c *bcompiler) exprKind(e minic.Expr) (vk, ek uint8) {
	t, ok := minic.TypeOf(e, c)
	if !ok {
		panic(fmt.Sprintf("interp: untyped operand %T at %s", e, e.NodePos()))
	}
	return typeKind(t)
}

// elemKind is the kind loadElem gives an element of a buffer of kind ek.
func elemKind(ek uint8) uint8 {
	vk, _ := typeKind(minic.Type{Kind: minic.BasicKind(ek)}.Elem())
	return vk
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
// work, its prefix's depth in prefs first. The dispatch loop batches the
// whole count into one budget check; execPrecise replays per-step when the
// batch detects a crossing. Every counted step precedes the instruction's
// stepless tail (combine, store, branch, call), so a crossing is always
// caught before side effects.
func instrSteps(in *binstr, prefs []prefNode) int32 {
	n := prefs[in.pre].depth
	if ownStep(in) {
		n++
	}
	switch in.op {
	case opEval, opUnary, opLogicShort, opBoolOf, opCast, opDeclVar, opDeclArr,
		opAssignVar, opBranchFalse, opReturn:
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

// ownStep reports whether in charges a leading step of its own before its
// operands. An opCmpBranch over a temporary left operand does not: the
// temporary's instructions carried it (emitBinary).
func ownStep(in *binstr) bool {
	switch in.gop {
	case opCmpBranch:
		return in.a.mode != omPlain
	case opBinAssignVar, opBinDeclVar, opLoopBack:
		return true
	}
	return false
}

// copyTargets moves the index targets bf's instructions hold out of the
// scratch into one slab; a target lowering made and dropped is left
// behind.
func copyTargets(bf *bfunc) {
	n := 0
	for i := range bf.code {
		in := &bf.code[i]
		for _, t := range [...]*btarget{in.tgt, in.a.tgt, in.b.tgt} {
			if t != nil {
				n++
			}
		}
	}
	if n == 0 {
		return
	}
	slab := make([]btarget, n)
	move := func(t **btarget) {
		if *t != nil {
			slab[0] = **t
			*t = &slab[0]
			slab = slab[1:]
		}
	}
	for i := range bf.code {
		in := &bf.code[i]
		move(&in.tgt)
		move(&in.a.tgt)
		move(&in.b.tgt)
	}
}

// finalize moves each instruction's index targets into the image,
// rewrites temporary references to live above the variables, and counts
// each instruction's steps.
func (c *bcompiler) finalize(bf *bfunc) {
	copyTargets(bf)
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
		in.nsteps = instrSteps(in, bf.prefs)
	}
}

// fuseSimple builds a fused operand for the leaf shapes: resolved
// identifiers and literals.
func (c *bcompiler) fuseSimple(e minic.Expr) (bopnd, bool) {
	o := bopnd{pos: e.NodePos()}
	switch v := e.(type) {
	case *minic.Ident:
		o.mode, o.ref = omVar, c.reg(v.Name)
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
func (c *bcompiler) temp(e minic.Expr, pre prefix) bopnd {
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
	t := c.newTarget()
	t.base, t.pos = base, ix.NodePos()
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
func (c *bcompiler) compileStmts(stmts []minic.Stmt, pre prefix) {
	if len(stmts) == 0 {
		if pre != noPrefix {
			c.emit(binstr{op: opNop}, pre)
		}
		return
	}
	for i, s := range stmts {
		if i == 0 {
			c.compileStmt(s, pre)
		} else {
			c.compileStmt(s, noPrefix)
		}
	}
}

func (c *bcompiler) compileStmt(s minic.Stmt, pre prefix) {
	pos := s.NodePos()
	switch v := s.(type) {
	case *minic.Block:
		c.push()
		c.compileStmts(v.Stmts, c.withPos(pre, pos))
		c.pop()
	case *minic.DeclStmt:
		c.compileDecl(v, pre)
	case *minic.ExprStmt:
		c.compileExprTo(v.X, -1, c.withPos(pre, pos))
	case *minic.ForStmt:
		c.compileFor(v, pre)
	case *minic.WhileStmt:
		c.compileWhile(v, pre)
	case *minic.IfStmt:
		c.compileIf(v, pre)
	case *minic.ReturnStmt:
		if v.X == nil {
			c.emit(binstr{op: opReturnVoid, pos: pos}, c.withPos(pre, pos))
			return
		}
		if o, ok := c.fuseOperand(v.X); ok {
			c.emit(binstr{op: opReturn, pos: pos, a: o, typ: c.curFn.Ret}, c.withPos(pre, pos))
			return
		}
		c.emit(binstr{op: opReturn, pos: pos, a: c.temp(v.X, c.withPos(pre, pos)), typ: c.curFn.Ret}, noPrefix)
		c.tempFree(1)
	case *minic.BreakStmt: // inside a loop, in a checked program
		lc := &c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, c.emit(binstr{op: opJump}, c.withPos(pre, pos)))
	case *minic.ContinueStmt:
		lc := &c.loops[len(c.loops)-1]
		lc.conts = append(lc.conts, c.emit(binstr{op: opJump}, c.withPos(pre, pos)))
	case *minic.PragmaStmt:
		c.emit(binstr{op: opNop}, c.withPos(pre, pos)) // pragmas are semantically transparent
	default:
		panic(fmt.Sprintf("interp: unhandled statement %T", s))
	}
}

func (c *bcompiler) compileDecl(d *minic.DeclStmt, pre prefix) {
	pos := d.NodePos()
	carry := c.withPos(pre, pos)
	if d.ArrayLen != nil {
		// The length expression resolves in the surrounding scope, before
		// the array's own name becomes visible.
		// The array register holds a buffer of the declared element kind.
		arr := minic.Type{Kind: d.Type.Kind, Ptr: true}
		if o, ok := c.fuseOperand(d.ArrayLen); ok {
			reg := c.declare(d.Name, arr)
			c.emit(binstr{op: opDeclArr, pos: pos, reg: reg,
				a: o, name: d.Name, typ: d.Type}, carry)
			return
		}
		n := c.temp(d.ArrayLen, carry)
		reg := c.declare(d.Name, arr)
		c.emit(binstr{op: opDeclArr, pos: pos, reg: reg, a: n, name: d.Name, typ: d.Type}, noPrefix)
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
				c.emit(binstr{op: opBinDeclVar, fused: true, pos: pos,
					pos2: b.NodePos(), tok2: b.Op, reg: reg, a: l, b: r, name: d.Name, typ: d.Type}, carry)
				return
			}
		}
		if o, ok := c.fuseOperand(d.Init); ok {
			init = o
		} else {
			init = c.temp(d.Init, carry)
			initInstrs = true
		}
	}
	reg := c.declare(d.Name, d.Type)
	in := binstr{op: opDeclVar, pos: pos, reg: reg, a: init, name: d.Name, typ: d.Type}
	if initInstrs {
		c.emit(in, noPrefix)
		c.tempFree(1)
		return
	}
	c.emit(in, carry)
}

func (c *bcompiler) compileIf(v *minic.IfStmt, pre prefix) {
	branch := c.compileCond(v.Cond, c.withPos(pre, v.NodePos()))
	c.push()
	c.compileStmts(v.Then.Stmts, noPrefix)
	c.pop()
	if v.Else == nil {
		c.code[branch].jmp = c.here()
		return
	}
	end := c.emit(binstr{op: opJump}, noPrefix)
	c.code[branch].jmp = c.here()
	c.compileStmt(v.Else, noPrefix)
	c.code[end].jmp = c.here()
}

// compileCond lowers a conditional evaluation followed by the CostBranch
// charge and a branch-if-false with an unpatched target; it returns the
// index of the branching instruction. A binary condition but && and ||
// becomes one compare-and-branch, over temporaries where its operands do
// not both fuse (`i < su * sv * 3`).
func (c *bcompiler) compileCond(cond minic.Expr, pre prefix) int32 {
	if b, ok := cond.(*minic.BinaryExpr); ok &&
		b.Op != minic.TokAndAnd && b.Op != minic.TokOrOr {
		l, lok := c.fuseOperand(b.L)
		r, rok := c.fuseOperand(b.R)
		if lok && rok {
			return c.emit(binstr{op: opCmpBranch, fused: true, pos: b.NodePos(),
				tok: b.Op, a: l, b: r}, pre)
		}
		return c.emitBinary(opCmpBranch, b, -1, r, rok, pre)
	}
	if o, ok := c.fuseOperand(cond); ok {
		return c.emit(binstr{op: opBranchFalse, a: o}, pre)
	}
	idx := c.emit(binstr{op: opBranchFalse, a: c.temp(cond, pre)}, noPrefix)
	c.tempFree(1)
	return idx
}

// loopEnter emits the opLoopEnter of the loop being lowered (already on
// c.loops). A depth-1 loop is a hotspot candidate: its instruction carries,
// in n, 1 + the index of the enclosing bfunc's cands entry made here. The
// loop's free variables are visible at this point —
// query.FreeVars resolves names by the scoping c.lookup applies — and
// variable registers are final when allocated.
func (c *bcompiler) loopEnter(loop minic.Stmt, pre prefix) {
	in := binstr{op: opLoopEnter, pos: loop.NodePos(), lid: loop.ID()}
	if len(c.loops) == 1 {
		params := candParams(c.curFn, loop)
		cand := bcand{params: params, regs: make([]int32, len(params))}
		for i, p := range params {
			cand.regs[i], _ = c.lookup(p.Name)
		}
		bf := c.funcs[c.curFn.Name]
		bf.cands = append(bf.cands, cand)
		in.n = int32(len(bf.cands))
	}
	c.emit(in, c.withPos(pre, loop.NodePos()))
}

func (c *bcompiler) compileFor(f *minic.ForStmt, pre prefix) {
	c.push() // the for-init scope, as in execFor
	c.enterLoop()
	c.loopEnter(f, pre)
	if f.Init != nil {
		c.compileStmt(f.Init, noPrefix)
	}
	condLbl := c.here()
	branch := int32(-1)
	if f.Cond != nil {
		branch = c.compileCond(f.Cond, noPrefix)
	}
	c.emit(binstr{op: opLoopBack, pos: f.NodePos()}, noPrefix)
	c.push()
	c.compileStmts(f.Body.Stmts, noPrefix)
	c.pop()
	postLbl := c.here()
	if f.Post != nil {
		c.compileExprTo(f.Post, -1, noPrefix)
	}
	c.emit(binstr{op: opJump, jmp: condLbl}, noPrefix)
	exit := c.here()
	c.emit(binstr{op: opLoopExit}, noPrefix)
	if branch >= 0 {
		c.code[branch].jmp = exit
	}
	c.exitLoop(exit, postLbl)
	c.pop()
}

func (c *bcompiler) compileWhile(w *minic.WhileStmt, pre prefix) {
	c.enterLoop()
	c.loopEnter(w, pre)
	condLbl := c.here()
	branch := c.compileCond(w.Cond, noPrefix)
	c.emit(binstr{op: opLoopBack, pos: w.NodePos()}, noPrefix)
	c.push()
	c.compileStmts(w.Body.Stmts, noPrefix)
	c.pop()
	c.emit(binstr{op: opJump, jmp: condLbl}, noPrefix)
	exit := c.here()
	c.emit(binstr{op: opLoopExit}, noPrefix)
	c.code[branch].jmp = exit
	c.exitLoop(exit, condLbl)
}

// compileExprTo lowers e so its value lands in register dst (-1 discards
// the value but performs all accounting). pre is charged before e's own
// step, preserving the tree-walker's statement-then-expression order.
func (c *bcompiler) compileExprTo(e minic.Expr, dst int32, pre prefix) {
	pos := e.NodePos()
	switch v := e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.BoolLit, *minic.Ident:
		o, _ := c.fuseSimple(e)
		c.emit(binstr{op: opEval, dst: dst, a: o}, pre)
	case *minic.StringLit:
		c.emit(binstr{op: opEval, dst: dst,
			a: bopnd{mode: omNone}}, c.withPos(pre, pos)) // only meaningful inside printf-family calls
	case *minic.UnaryExpr:
		if o, ok := c.fuseOperand(v.X); ok {
			c.emit(binstr{op: opUnary, dst: dst, tok: v.Op, a: o}, c.withPos(pre, pos))
			return
		}
		c.emit(binstr{op: opUnary, dst: dst, tok: v.Op, a: c.temp(v.X, c.withPos(pre, pos))}, noPrefix)
		c.tempFree(1)
	case *minic.BinaryExpr:
		c.compileBinaryTo(v, dst, pre)
	case *minic.AssignExpr:
		c.compileAssignTo(v, dst, pre)
	case *minic.IncDecExpr:
		c.compileIncDecTo(v, dst, pre)
	case *minic.IndexExpr:
		if o, ok := c.fuseOperand(e); ok {
			c.emit(binstr{op: opEval, fused: true, dst: dst, a: o}, pre)
			return
		}
		tgt, ntemps := c.materializeTarget(v, c.withPos(pre, pos))
		c.emit(binstr{op: opLoadIdx, dst: dst, tgt: tgt}, noPrefix)
		c.tempFree(ntemps)
	case *minic.CallExpr:
		c.compileCallTo(v, dst, pre)
	case *minic.CastExpr:
		if o, ok := c.fuseOperand(v.X); ok {
			c.emit(binstr{op: opCast, pos: pos, dst: dst, a: o, typ: v.To}, c.withPos(pre, pos))
			return
		}
		c.emit(binstr{op: opCast, pos: pos, dst: dst, a: c.temp(v.X, c.withPos(pre, pos)), typ: v.To}, noPrefix)
		c.tempFree(1)
	default:
		panic(fmt.Sprintf("interp: unhandled expression %T", e))
	}
}

// operandOrTemp fuses e or materializes it into a fresh temp, returning
// the operand and the number of temps to free after the consumer emits.
// pre is charged before e's first instruction only on the temp path; the
// caller attaches it to the consuming instruction on the fused path.
func (c *bcompiler) operandOrTemp(e minic.Expr, pre prefix) (bopnd, int32, bool) {
	if o, ok := c.fuseOperand(e); ok {
		return o, 0, true
	}
	return c.temp(e, pre), 1, false
}

func (c *bcompiler) compileBinaryTo(b *minic.BinaryExpr, dst int32, pre prefix) {
	pos := b.NodePos()
	if b.Op == minic.TokAndAnd || b.Op == minic.TokOrOr {
		// Short-circuit: L evaluates (with the binary's own step first),
		// CostLogic is charged, then R evaluates only when needed.
		carry := c.withPos(pre, pos)
		l, ltemps, lfused := c.operandOrTemp(b.L, carry)
		if !lfused {
			carry = noPrefix
		}
		short := c.emit(binstr{op: opLogicShort, dst: dst, tok: b.Op, a: l}, carry)
		c.tempFree(ltemps)
		r, rtemps, _ := c.operandOrTemp(b.R, noPrefix)
		c.emit(binstr{op: opBoolOf, dst: dst, a: r}, noPrefix)
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
		c.emit(binstr{op: opBinary, fused: true, pos: pos,
			tok: b.Op, dst: dst, a: l, b: r}, c.withPos(pre, pos))
		return
	}
	c.emitBinary(opBinary, b, dst, r, rok, pre)
}

// emitBinary lowers binary b whose operands do not both fuse (r, rok: the
// right operand's fuseOperand) to instruction op. The binary's step
// precedes the first operand's instructions, so the left operand is a
// temporary that carries it, even a fusible one (via opEval, with
// identical accounting), and the fetch order stays the tree-walker's.
func (c *bcompiler) emitBinary(op opcode, b *minic.BinaryExpr, dst int32, r bopnd, rok bool, pre prefix) int32 {
	ntemps := int32(1)
	l := c.temp(b.L, c.withPos(pre, b.NodePos()))
	if !rok {
		ntemps++
		r = c.temp(b.R, noPrefix)
	}
	idx := c.emit(binstr{op: op, fused: r.mode != omPlain, pos: b.NodePos(), tok: b.Op, dst: dst, a: l, b: r}, noPrefix)
	c.tempFree(ntemps)
	return idx
}

// materializeTarget lowers an index target that cannot fully fuse,
// preserving the base-is-buffer check between base and index evaluation.
// pre is charged before the first emitted instruction. Returns the target
// and the number of temps the caller must free after the consumer emits.
func (c *bcompiler) materializeTarget(ix *minic.IndexExpr, pre prefix) (*btarget, int32) {
	if tgt, ok := c.fuseTarget(ix); ok {
		if pre != noPrefix {
			c.emit(binstr{op: opNop}, pre)
		}
		return tgt, 0
	}
	pos := ix.NodePos()
	tgt := c.newTarget()
	tgt.pos = pos
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
	// accounting) → index eval → bounds, so the base materializes first — a
	// fusible base lowers to opEval with identical accounting — then the
	// index. (The walker's bufOf between them cannot fail: a checked
	// program indexes only pointers, and a pointer always holds a buffer.)
	tgt.base = c.temp(ix.Base, pre)
	tgt.idx = c.temp(ix.Index, noPrefix)
	return tgt, 2
}

func (c *bcompiler) compileAssignTo(a *minic.AssignExpr, dst int32, pre prefix) {
	pos := a.NodePos()
	carry := c.withPos(pre, pos)
	switch lhs := a.LHS.(type) {
	case *minic.Ident:
		lpos := lhs.NodePos()
		reg := c.reg(lhs.Name)
		// Superinstruction: x op= simple⊕simple executes the RHS binary,
		// the compound combine, and the store in one dispatch (the FMA
		// pattern `acc += a * b` lands here).
		if b, bok := a.RHS.(*minic.BinaryExpr); bok &&
			b.Op != minic.TokAndAnd && b.Op != minic.TokOrOr {
			l, lok := c.fuseOperand(b.L)
			r, rok := c.fuseOperand(b.R)
			if lok && rok {
				c.emit(binstr{op: opBinAssignVar, fused: true,
					pos: pos, pos2: b.NodePos(), pos3: lpos, tok: a.Op, tok2: b.Op,
					dst: dst, reg: reg, a: l, b: r, name: lhs.Name, typ: c.vtypes[reg]}, carry)
				return
			}
		}
		rhs, ntemps, fused := c.operandOrTemp(a.RHS, carry)
		in := binstr{op: opAssignVar, pos: pos, pos2: lpos, tok: a.Op, dst: dst,
			reg: reg, a: rhs}
		if fused && rhs.mode == omIdx {
			in.fused = true
		}
		if !fused {
			carry = noPrefix
		}
		c.emit(in, carry)
		c.tempFree(ntemps)
	case *minic.IndexExpr:
		lpos := lhs.NodePos()
		// RHS evaluates before the target resolves, as in compileAssign.
		if tgt, ok := c.fuseTarget(lhs); ok {
			if rhs, rok := c.fuseOperand(a.RHS); rok {
				c.emit(binstr{op: opStoreIdx, fused: true, pos: pos, pos2: lpos,
					tok: a.Op, dst: dst, a: rhs, tgt: tgt}, carry)
				return
			}
			c.emit(binstr{op: opStoreIdx, fused: true, pos: pos, pos2: lpos,
				tok: a.Op, dst: dst, a: c.temp(a.RHS, carry), tgt: tgt}, noPrefix)
			c.tempFree(1)
			return
		}
		// Complex target: the RHS (fusible or not) materializes first so
		// its accounting precedes the target's instructions.
		rhs := c.temp(a.RHS, carry)
		tgt, ttemps := c.materializeTarget(lhs, noPrefix)
		c.emit(binstr{op: opStoreIdx, pos: pos, pos2: lpos, tok: a.Op, dst: dst, a: rhs, tgt: tgt}, noPrefix)
		c.tempFree(ttemps + 1)
	default:
		panic(fmt.Sprintf("interp: invalid assignment target %T", a.LHS))
	}
}

func (c *bcompiler) compileIncDecTo(x *minic.IncDecExpr, dst int32, pre prefix) {
	carry := c.withPos(pre, x.NodePos())
	delta := int32(1)
	if x.Op == minic.TokMinusMinus {
		delta = -1
	}
	switch t := x.X.(type) {
	case *minic.Ident:
		c.emit(binstr{op: opIncVar, pos: t.NodePos(), dst: dst, reg: c.reg(t.Name), n: delta}, carry)
	case *minic.IndexExpr:
		tpos := t.NodePos()
		if tgt, ok := c.fuseTarget(t); ok {
			c.emit(binstr{op: opIncIdx, fused: true, pos: tpos,
				dst: dst, n: delta, tgt: tgt}, carry)
			return
		}
		tgt, ntemps := c.materializeTarget(t, carry)
		c.emit(binstr{op: opIncIdx, pos: tpos, dst: dst, n: delta, tgt: tgt}, noPrefix)
		c.tempFree(ntemps)
	default:
		panic(fmt.Sprintf("interp: invalid ++/-- target %T", x.X))
	}
}

func (c *bcompiler) compileCallTo(call *minic.CallExpr, dst int32, pre prefix) {
	pos := call.NodePos()
	carry := c.withPos(pre, pos)
	// printf-family builtins capture output without evaluating format
	// strings for cost.
	if call.Fun == "printf" {
		c.emitCall(binstr{op: opPrintf, dst: dst}, call.Args, carry)
		return
	}
	if bi, ok := builtins[call.Fun]; ok {
		// Fused builtin: up to two simple arguments fetch inside the
		// dispatch (sqrt(r2), fmax(a, b[i]) ...).
		if len(call.Args) <= 2 {
			var ops [2]bopnd
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
				c.emit(binstr{op: opBuiltin, fused: true, pos: pos, dst: dst, n: int32(len(call.Args)),
					a: ops[0], b: ops[1], bi: bi, name: call.Fun}, carry)
				return
			}
		}
		c.emitCall(binstr{op: opBuiltin, pos: pos, dst: dst, bi: bi, name: call.Fun}, call.Args, carry)
		return
	}
	callee := c.prog.MustFunc(call.Fun)
	c.emitCall(binstr{op: opCall, pos: pos, dst: dst, fn: c.funcs[callee.Name]}, call.Args, carry)
}

// emitCall emits in over args materialized into consecutive temporaries
// (reg, n); pre is charged before the first argument, or before in when
// there is none. A printf's string literals are left out: format strings
// carry no data it captures.
func (c *bcompiler) emitCall(in binstr, args []minic.Expr, pre prefix) {
	in.reg, in.n = c.compileArgs(args, in.op == opPrintf, pre)
	if in.n > 0 {
		pre = noPrefix
	}
	c.emit(in, pre)
	c.tempFree(in.n)
}

// compileArgs materializes call arguments into consecutive temporaries,
// string literals left out when data is set; pre is charged before the
// first argument. The caller frees n temps.
func (c *bcompiler) compileArgs(args []minic.Expr, data bool, pre prefix) (base int32, n int32) {
	for _, a := range args {
		if _, str := a.(*minic.StringLit); !data || !str {
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	base = c.tempAlloc()
	for i := int32(1); i < n; i++ {
		c.tempAlloc()
	}
	dst := base
	for _, a := range args {
		if _, str := a.(*minic.StringLit); data && str {
			continue
		}
		c.compileExprTo(a, dst, pre)
		pre = noPrefix
		dst++
	}
	return base, n
}
