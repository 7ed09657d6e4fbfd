package interp

import (
	"context"
	"fmt"
	"time"

	"psaflow/internal/minic"
	"psaflow/internal/query"
	"psaflow/internal/telemetry"
)

// RuntimeError is an execution error with a source position.
type RuntimeError struct {
	Pos minic.Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return fmt.Sprintf("runtime %s: %s", e.Pos, e.Msg) }

// CancelError reports an execution aborted because Config.Ctx was
// cancelled: a job cancellation or deadline in the serving layer, or a CLI
// wall-clock bound. It wraps the context error, so callers can distinguish
// context.Canceled from context.DeadlineExceeded with errors.Is.
type CancelError struct {
	Pos   minic.Pos
	Cause error
}

// Error implements the error interface.
func (e *CancelError) Error() string {
	return fmt.Sprintf("interp %s: execution cancelled: %v", e.Pos, e.Cause)
}

// Unwrap exposes the context error.
func (e *CancelError) Unwrap() error { return e.Cause }

// Counters receives named counter increments describing a run's hot-path
// totals (*telemetry.Recorder satisfies it). The sink must be safe for
// concurrent use when runs execute on parallel branch paths.
type Counters interface {
	Add(name string, delta int64)
}

// Counter names emitted to Config.Counters after each run, beside
// telemetry.CounterInterpRuns / Ops (AST evaluation steps executed) /
// Cycles (virtual cycles charged, rounded).
const (
	// CounterCompileFuncs / CounterCompileNanos describe the pass that
	// lowers the AST to bytecode before execution.
	CounterCompileFuncs = "interp.compile.funcs"
	CounterCompileNanos = "interp.compile.ns"
	// Bytecode engine counters: instructions dispatched, superinstruction
	// (fused) dispatches, and defensive fallbacks to the tree-walker.
	CounterBCInstrs    = "interp.bytecode.instructions"
	CounterBCFused     = "interp.bytecode.fused"
	CounterBCFallbacks = "interp.bytecode.fallbacks"
	// Program-cache counters: lowerings actually performed vs Runs served
	// from an already-lowered program.
	CounterBCLowerings = "interp.bytecode.lowerings"
	CounterBCProgHits  = "interp.bytecode.progcache.hits"
)

// Config configures one execution.
type Config struct {
	Entry    string  // entry function name
	Args     []Value // arguments bound to the entry function's parameters
	MaxSteps int64   // step budget; defaults to 400M
	// Watch names the function to watch for kernel analyses. Empty, the run
	// watches its hotspot candidates instead — every depth-1 loop, as if it
	// were already outlined — and publishes the hotspot's record
	// (Profile.WatchLoop); a run that names a function watches no loop.
	Watch string
	// Ctx, when non-nil, aborts execution with a CancelError once the
	// context is done. The check runs every cancelCheckInterval loop
	// iterations / statements, so cancellation lands promptly even inside
	// a program that would otherwise spin until the step budget.
	Ctx context.Context
	// Counters, when non-nil, receives the run's op/cycle totals
	// (telemetry.CounterInterpRuns/Ops/Cycles) once execution finishes.
	Counters Counters
	// TreeWalk forces the tree-walking evaluator instead of the bytecode
	// fast path. The two engines are bit-for-bit equivalent (profiles,
	// outputs, errors); the walker is the semantic reference for
	// differential testing and the VM's defensive fallback.
	TreeWalk bool
	// Progs, when non-nil, caches lowered bytecode programs keyed by
	// Fingerprint so repeat Runs of the same program — concurrent ones
	// included — share one lowering. Requires a nonzero Fingerprint;
	// ignored under TreeWalk. Pass it only where a program can run again —
	// a harness timing repeat runs, or a flow with no run cache, which
	// re-executes a program only where its kernel analyses cannot read the
	// hotspot run's record — the image stays cached for the cache's life.
	Progs *ProgramCache
	// Fingerprint identifies the program for Progs (minic.Fingerprint).
	Fingerprint uint64

	// generic is a test hook (export_test.go): it lowers without
	// specialisation, so every instruction runs its generic arm — the
	// equivalence suites' second reference. Ignored with Progs.
	generic bool
}

// Result is the outcome of one execution.
type Result struct {
	Ret    Value
	Prof   *Profile
	Steps  int64
	Output []string // captured by the printf-family builtins
}

const defaultMaxSteps = 400_000_000

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type loopInfo struct {
	fn    string
	depth int
}

type machine struct {
	prog     *minic.Program
	prof     *Profile
	steps    int64
	maxSteps int64
	loopInfo map[int]loopInfo
	output   []string

	// Cancellation: done is Ctx.Done() (nil disables the check entirely);
	// cancelTick spaces the channel poll so the hot path pays one counter
	// increment per step() call, not a select.
	ctx        context.Context
	done       <-chan struct{}
	cancelTick uint32

	// The watch target: the function named watch, recorded in rec for the
	// whole run, or — watch empty, cands non-nil — every hotspot candidate
	// (depth-1 loop), one active at a time: candLoop, below, is its loop and
	// rec its record. watchDepth counts the open activations of the target.
	watch      string
	watchDepth int
	// paramOf maps buffers to the watch target's parameter names for the
	// innermost activation. watchEpoch changes (to a globally unique
	// value) whenever paramOf does, so buffers can cache their traffic
	// accumulator between map swaps (machine.trafficOf).
	paramOf    map[*Buffer]string
	watchEpoch uint64
	rec        *watchRec
	cands      *candidates
	// Outermost-activation baselines: exitWatch folds the run-total deltas
	// accumulated since the matching enterWatch into the record, so
	// charge/chargeFlop/loadElem/storeElem stay branch-free. specialFlops
	// is the run-wide special-builtin FLOP total backing WatchSpecialFlops
	// the same way Flops backs WatchFlops.
	watchCycBase     float64
	watchFlopBase    int64
	watchLoadBase    int64
	watchStoreBase   int64
	watchSpecialBase int64
	specialFlops     int64

	// Bytecode engine telemetry: instructions dispatched and fused
	// (superinstruction) dispatches this run.
	bcInstrs int64
	bcFused  int64
	// biArgs is the fused-builtin argument scratch (builtins are leaf
	// calls, so one buffer per machine suffices and keeps the argument
	// slice off the heap). Frames themselves recycle through the
	// package-level frameArena.
	biArgs [2]Value

	// candLoop is the active hotspot candidate's loop, nil between
	// activations. (Last, with rec and cands in the space the binding index
	// left: the fields the dispatch loop reads stay where it was measured
	// with them, and the machine in its allocation size class.)
	candLoop *LoopProfile
}

// Run executes cfg.Entry in prog and returns the result with its profile.
// By default the program is first lowered to register bytecode
// (bytecode.go) and run on the VM; cfg.TreeWalk selects the reference
// tree-walker instead.
func Run(prog *minic.Program, cfg Config) (*Result, error) {
	entry := prog.Func(cfg.Entry)
	if entry == nil {
		return nil, fmt.Errorf("interp: no function %q", cfg.Entry)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	m := &machine{
		prog:     prog,
		prof:     newProfile(cfg.Watch),
		maxSteps: maxSteps,
		watch:    cfg.Watch,
	}
	if cfg.Watch == "" {
		m.cands = &candidates{recs: make(map[int]*watchRec)}
	} else {
		m.rec = newWatchRec()
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, &CancelError{Pos: entry.NodePos(), Cause: err}
		}
		m.ctx = cfg.Ctx
		m.done = cfg.Ctx.Done()
	}
	var ret Value
	var err error
	var compileNanos int64
	var loweredFuncs int64
	var fallbacks int64
	var progHits int64
	switch {
	case cfg.TreeWalk:
		m.loopInfo = buildLoopInfo(prog)
		ret, err = m.call(entry, cfg.Args, entry.NodePos())
	default:
		compileStart := time.Now()
		var bp *bprog
		if cfg.Progs != nil && cfg.Fingerprint != 0 {
			var lowered bool
			bp, m.loopInfo, lowered = cfg.Progs.image(cfg.Fingerprint, prog)
			if !lowered {
				progHits = 1
			}
		} else {
			bp = lowerBytecode(prog, cfg.generic)
			if bp != nil {
				m.loopInfo = buildLoopInfo(prog)
			}
		}
		compileNanos = time.Since(compileStart).Nanoseconds()
		if bp != nil {
			loweredFuncs = int64(len(bp.funcs))
			ret, err = m.callBytecode(bp.funcs[cfg.Entry], cfg.Args, entry.NodePos())
		} else {
			// Defensive fallback: a lowering panic degrades to the
			// tree-walker rather than aborting the flow. Counted so
			// the CI bench-smoke gate can assert it never fires on the
			// bundled benchmarks.
			fallbacks = 1
			m.loopInfo = buildLoopInfo(prog)
			ret, err = m.call(entry, cfg.Args, entry.NodePos())
		}
	}
	if err != nil {
		return nil, err
	}
	m.publishWatch()
	if cfg.Counters != nil {
		cfg.Counters.Add(telemetry.CounterInterpRuns, 1)
		cfg.Counters.Add(telemetry.CounterInterpOps, m.steps)
		cfg.Counters.Add(telemetry.CounterInterpCycles, int64(m.prof.Cycles))
		if m.bcInstrs > 0 {
			cfg.Counters.Add(CounterBCInstrs, m.bcInstrs)
			cfg.Counters.Add(CounterBCFused, m.bcFused)
		}
		if fallbacks > 0 {
			cfg.Counters.Add(CounterBCFallbacks, fallbacks)
		}
		switch {
		case loweredFuncs == 0: // the tree-walker ran: nothing was lowered
		case progHits > 0:
			cfg.Counters.Add(CounterBCProgHits, progHits)
		default:
			cfg.Counters.Add(CounterCompileFuncs, loweredFuncs)
			cfg.Counters.Add(CounterCompileNanos, compileNanos)
			cfg.Counters.Add(CounterBCLowerings, 1)
		}
	}
	return &Result{Ret: ret, Prof: m.prof, Steps: m.steps, Output: m.output}, nil
}

// lowerBytecode wraps compileBytecode with a panic guard: the lowering is
// exercised by the differential fuzzer and never expected to fail, but a
// defect must degrade to the tree-walker, not crash a flow.
func lowerBytecode(prog *minic.Program, generic bool) (bp *bprog) {
	defer func() {
		if recover() != nil {
			bp = nil
		}
	}()
	return compileBytecode(prog, generic)
}

// buildLoopInfo precomputes enclosing function and nesting depth for every
// loop node ID in one pass over the program.
func buildLoopInfo(prog *minic.Program) map[int]loopInfo {
	out := make(map[int]loopInfo)
	var rec func(n minic.Node, fn string, depth int)
	rec = func(n minic.Node, fn string, depth int) {
		if query.IsLoop(n) {
			depth++
			out[n.ID()] = loopInfo{fn: fn, depth: depth}
		}
		minic.EachChild(n, func(c minic.Node) { rec(c, fn, depth) })
	}
	for _, fn := range prog.Funcs {
		rec(fn, fn.Name, 0)
	}
	return out
}

func (m *machine) errf(pos minic.Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// cancelCheckInterval spaces cancellation polls: the tree-walker calls
// step() once per statement, loop iteration and expression node (the
// bytecode VM counts loop back-edges and function entries instead), so
// polling every 1024 calls bounds the cancellation latency to
// microseconds while keeping the poll off the hot path.
const cancelCheckInterval = 1024

func (m *machine) step(pos minic.Pos) error {
	m.steps++
	if m.steps > m.maxSteps {
		return m.errf(pos, "step budget exceeded (%d)", m.maxSteps)
	}
	if m.done != nil {
		m.cancelTick++
		if m.cancelTick%cancelCheckInterval == 0 {
			select {
			case <-m.done:
				return &CancelError{Pos: pos, Cause: m.ctx.Err()}
			default:
			}
		}
	}
	return nil
}

// charge and chargeFlop only bump the run-wide totals; the Watch*
// counterparts are folded in as boundary deltas by exitWatch (the charges
// issued while watchDepth > 0 are exactly the totals accumulated between
// the outermost enterWatch and its exitWatch), which keeps the hot path
// at a single read-modify-write per counter.
func (m *machine) charge(c float64) {
	m.prof.Cycles += c
}

func (m *machine) chargeFlop(c float64, n int64) {
	m.prof.Cycles += c
	m.prof.Flops += n
}

// frame is one function activation with nested scopes.
type frame struct {
	fn     *minic.FuncDecl
	scopes []map[string]*Value
	ret    Value
}

func (f *frame) push() { f.scopes = append(f.scopes, make(map[string]*Value)) }
func (f *frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) lookup(name string) *Value {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

func (f *frame) declare(name string, v Value) {
	cell := v
	f.scopes[len(f.scopes)-1][name] = &cell
}

// call invokes fn with args; pos is the call site for diagnostics.
func (m *machine) call(fn *minic.FuncDecl, args []Value, pos minic.Pos) (Value, error) {
	if len(args) != len(fn.Params) {
		return Value{}, m.errf(pos, "call %s: %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	m.charge(CostCall)
	fr := &frame{fn: fn}
	fr.push()
	for i, p := range fn.Params {
		v := args[i]
		coerced, err := m.coerce(v, p.Type, pos)
		if err != nil {
			return Value{}, m.errf(pos, "call %s param %s: %v", fn.Name, p.Name, err)
		}
		fr.declare(p.Name, coerced)
	}

	watching := fn.Name == m.watch
	var prevParamOf map[*Buffer]string
	if watching {
		prevParamOf = m.enterWatch(m.rec, fn.Params, args)
	}

	c, err := m.execBlock(fr, fn.Body)
	if watching {
		m.exitWatch(prevParamOf)
	}
	if err != nil {
		return Value{}, err
	}
	if c == ctrlBreak || c == ctrlContinue {
		return Value{}, m.errf(fn.NodePos(), "break/continue escaped function %s", fn.Name)
	}
	return fr.ret, nil
}

// coerce converts v to declared type t (scalar types only; pointers pass
// through with element-kind check).
func (m *machine) coerce(v Value, t minic.Type, pos minic.Pos) (Value, error) {
	if t.Ptr {
		if v.K != KBuf {
			return Value{}, fmt.Errorf("expected buffer for %s, got %s", t, v.K)
		}
		if v.Buf.Kind != t.Kind {
			return Value{}, fmt.Errorf("buffer element kind %s, want %s", v.Buf.Kind, t.Kind)
		}
		return v, nil
	}
	switch t.Kind {
	case minic.Int:
		return IntVal(v.AsInt()), nil
	case minic.Float:
		return FloatVal(v.AsFloat()), nil
	case minic.Double:
		return DoubleVal(v.AsFloat()), nil
	case minic.Bool:
		return BoolVal(v.AsBool()), nil
	case minic.Void:
		return Value{}, nil
	}
	return Value{}, fmt.Errorf("cannot coerce to %s", t)
}

func (m *machine) execBlock(fr *frame, b *minic.Block) (ctrl, error) {
	fr.push()
	defer fr.pop()
	for _, s := range b.Stmts {
		c, err := m.execStmt(fr, s)
		if err != nil {
			return ctrlNone, err
		}
		if c != ctrlNone {
			return c, nil
		}
	}
	return ctrlNone, nil
}

func (m *machine) execStmt(fr *frame, s minic.Stmt) (ctrl, error) {
	if err := m.step(s.NodePos()); err != nil {
		return ctrlNone, err
	}
	switch v := s.(type) {
	case *minic.Block:
		return m.execBlock(fr, v)
	case *minic.DeclStmt:
		return ctrlNone, m.execDecl(fr, v)
	case *minic.ExprStmt:
		_, err := m.eval(fr, v.X)
		return ctrlNone, err
	case *minic.ForStmt:
		return m.execFor(fr, v)
	case *minic.WhileStmt:
		return m.execWhile(fr, v)
	case *minic.IfStmt:
		cond, err := m.eval(fr, v.Cond)
		if err != nil {
			return ctrlNone, err
		}
		m.charge(CostBranch)
		if cond.AsBool() {
			return m.execBlock(fr, v.Then)
		}
		if v.Else != nil {
			return m.execStmt(fr, v.Else)
		}
		return ctrlNone, nil
	case *minic.ReturnStmt:
		if v.X != nil {
			rv, err := m.eval(fr, v.X)
			if err != nil {
				return ctrlNone, err
			}
			coerced, err := m.coerce(rv, fr.fn.Ret, v.NodePos())
			if err != nil {
				return ctrlNone, m.errf(v.NodePos(), "return: %v", err)
			}
			fr.ret = coerced
		}
		return ctrlReturn, nil
	case *minic.BreakStmt:
		return ctrlBreak, nil
	case *minic.ContinueStmt:
		return ctrlContinue, nil
	case *minic.PragmaStmt:
		return ctrlNone, nil // pragmas are semantically transparent
	}
	return ctrlNone, m.errf(s.NodePos(), "unhandled statement %T", s)
}

func (m *machine) execDecl(fr *frame, d *minic.DeclStmt) error {
	if d.ArrayLen != nil {
		nv, err := m.eval(fr, d.ArrayLen)
		if err != nil {
			return err
		}
		buf, err := m.makeArray(d.Name, d.Type.Kind, nv.AsInt(), d.NodePos())
		if err != nil {
			return err
		}
		fr.declare(d.Name, BufVal(buf))
		return nil
	}
	var init Value
	if d.Init != nil {
		v, err := m.eval(fr, d.Init)
		if err != nil {
			return err
		}
		init = v
	}
	coerced, err := m.coerce(init, d.Type, d.NodePos())
	if err != nil {
		return m.errf(d.NodePos(), "declare %s: %v", d.Name, err)
	}
	m.charge(CostLocal)
	fr.declare(d.Name, coerced)
	return nil
}

// loopEnter/loopExit maintain the per-loop profile (the "loop timer"
// instrumentation of the paper, built into the virtual machine).
func (m *machine) loopProfile(id int, pos minic.Pos) *LoopProfile {
	lp, ok := m.prof.Loops[id]
	if !ok {
		info := m.loopInfo[id]
		lp = &LoopProfile{ID: id, Pos: pos, Func: info.fn, Depth: info.depth}
		m.prof.Loops[id] = lp
	}
	return lp
}

func (m *machine) execFor(fr *frame, f *minic.ForStmt) (ctrl, error) {
	fr.push()
	defer fr.pop()
	lp := m.loopProfile(f.ID(), f.NodePos())
	lp.Entries++
	start := m.prof.Cycles
	defer func() { lp.Cycles += m.prof.Cycles - start }()
	if lp.Depth == 1 && m.cands != nil && m.enterCandidateTW(fr, f, lp) {
		defer m.exitCandidate()
	}

	if f.Init != nil {
		if _, err := m.execStmt(fr, f.Init); err != nil {
			return ctrlNone, err
		}
	}
	for {
		if f.Cond != nil {
			cond, err := m.eval(fr, f.Cond)
			if err != nil {
				return ctrlNone, err
			}
			m.charge(CostBranch)
			if !cond.AsBool() {
				return ctrlNone, nil
			}
		}
		if err := m.step(f.NodePos()); err != nil {
			return ctrlNone, err
		}
		lp.Trips++
		c, err := m.execBlock(fr, f.Body)
		if err != nil {
			return ctrlNone, err
		}
		if c == ctrlBreak {
			return ctrlNone, nil
		}
		if c == ctrlReturn {
			return ctrlReturn, nil
		}
		if f.Post != nil {
			if _, err := m.eval(fr, f.Post); err != nil {
				return ctrlNone, err
			}
		}
	}
}

func (m *machine) execWhile(fr *frame, w *minic.WhileStmt) (ctrl, error) {
	lp := m.loopProfile(w.ID(), w.NodePos())
	lp.Entries++
	start := m.prof.Cycles
	defer func() { lp.Cycles += m.prof.Cycles - start }()
	if lp.Depth == 1 && m.cands != nil && m.enterCandidateTW(fr, w, lp) {
		defer m.exitCandidate()
	}
	for {
		cond, err := m.eval(fr, w.Cond)
		if err != nil {
			return ctrlNone, err
		}
		m.charge(CostBranch)
		if !cond.AsBool() {
			return ctrlNone, nil
		}
		if err := m.step(w.NodePos()); err != nil {
			return ctrlNone, err
		}
		lp.Trips++
		c, err := m.execBlock(fr, w.Body)
		if err != nil {
			return ctrlNone, err
		}
		if c == ctrlBreak {
			return ctrlNone, nil
		}
		if c == ctrlReturn {
			return ctrlReturn, nil
		}
	}
}
