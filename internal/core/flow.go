package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psaflow/internal/events"
	"psaflow/internal/faults"
	"psaflow/internal/interp"
	"psaflow/internal/platform"
	"psaflow/internal/telemetry"
)

// TaskKind classifies tasks as in the paper's Fig. 4 legend.
type TaskKind int

// Task classifications: Analysis (A), Transform (T), Code-Generation (CG),
// Optimisation/DSE (O).
const (
	Analysis TaskKind = iota
	Transform
	CodeGen
	Optimisation
)

// String returns the paper's one-letter task class.
func (k TaskKind) String() string {
	switch k {
	case Analysis:
		return "A"
	case Transform:
		return "T"
	case CodeGen:
		return "CG"
	case Optimisation:
		return "O"
	}
	return "?"
}

// Context carries the environment tasks run in.
type Context struct {
	// Ctx carries cancellation and deadlines into the flow run: the engine
	// checks it at every task boundary and branch revision, the bundled DSE
	// loops check it per iteration, and dynamic tasks hand it to the
	// interpreter so an in-flight profiled run aborts promptly. Nil means
	// the run cannot be interrupted (the historical CLI behaviour).
	Ctx      context.Context
	Workload Workload
	CPU      platform.CPUSpec
	// Budget is the user cost budget for the Fig. 3 cost-evaluation
	// feedback loop; 0 disables the gate.
	Budget float64
	// Cost evaluates a completed design's cost for the budget gate.
	Cost func(*Design) float64
	// Parallel evaluates forked branch paths concurrently (each path works
	// on its own design fork; Workload.Args must allocate fresh buffers per
	// call, which every bundled workload does). Results keep path order.
	Parallel bool
	// Telemetry records hierarchical flow-run spans (flow → branch → path
	// → task) and named counters from the hot layers. Nil disables
	// recording at zero cost; the recorder is race-safe, so it can be
	// shared by parallel branch paths.
	Telemetry *telemetry.Recorder
	// Runs memoizes profiled interpreter executions across flows, sibling
	// forked paths and — where the kernel analyses cannot read the hotspot
	// run's own record of the kernel (Design.HotspotProf) — those analyses,
	// keyed by program fingerprint + workload identity (see RunCache). Nil
	// disables memoization; every task that needs a run it was not handed
	// then executes the program. The cache is race-safe and shared as-is by
	// parallel branch paths.
	Runs *RunCache
	// Progs keeps one immutable lowered image per program fingerprint (see
	// interp.ProgramCache). It is consulted only when Runs is nil, and it
	// serves again only where such a flow executes one program more than
	// once: the three kernel analyses on their fallback path (no record of
	// the kernel in the hotspot run, or a kernel rewritten since outlining)
	// then run the image instead of lowering again. With a run cache no
	// program runs twice, so nothing is kept and a lowered image is
	// collected with its run. Nil lowers afresh per run. Race-safe and
	// shared as-is by parallel branch paths.
	Progs *interp.ProgramCache
	// Faults injects deterministic synthetic failures at the instrumented
	// tool call sites (partial compiles, profiled runs, device claims —
	// see internal/faults and docs/FAULTS.md). Nil disables injection;
	// zero-fault runs are bit-for-bit identical to a Context without the
	// resilience fields set.
	Faults *faults.Injector
	// Retry tunes the engine's per-task retry loop (transient faults are
	// retried in place with deterministic backoff). The zero value means
	// faults.DefaultRetry; the policy's Budget caps total retries across
	// the whole flow run.
	Retry faults.RetryPolicy
	// TaskTimeout bounds each task attempt; an attempt that exceeds it is
	// classified as a transient faults.Timeout and retried. 0 disables.
	TaskTimeout time.Duration

	// shared is the run-scoped mutable state (the retry budget) installed
	// by Flow.Run before any parallel work starts and propagated by pointer
	// through the per-attempt copies of runTaskAttempt.
	shared *sharedState
}

// sharedState is the per-flow-run state shared by every goroutine and
// every per-attempt Context copy of one run.
type sharedState struct {
	retryTokens atomic.Int64
	hasBudget   bool
}

// ensureShared installs the shared state. Idempotent; called from the
// single-threaded Flow.Run entry before goroutines exist.
func (c *Context) ensureShared() {
	if c.shared != nil {
		return
	}
	s := &sharedState{}
	if b := c.Retry.WithDefaults().Budget; b > 0 {
		s.hasBudget = true
		s.retryTokens.Store(int64(b))
	}
	c.shared = s
}

// takeRetryToken consumes one retry from the flow's shared budget and
// reports whether one was available. Contexts never run through Flow.Run
// (direct Task.Run in tests) have no budget and always grant.
func (c *Context) takeRetryToken() bool {
	s := c.shared
	return s == nil || !s.hasBudget || s.retryTokens.Add(-1) >= 0
}

// resilient reports whether fault-recovery machinery is active for this
// run. When false the engine takes exactly its historical code paths, so
// fault-free runs stay bit-for-bit identical.
func (c *Context) resilient() bool {
	return c.Faults.Enabled() || c.TaskTimeout > 0
}

// FailPoint consults the fault injector for one instrumented operation,
// recording telemetry when a fault fires. Instrumented call sites invoke
// it immediately before the simulated tool step (and before any cache
// lookup, so failures never poison memoized results). Returns the
// injected fault as an error, or nil to proceed.
func (c *Context) FailPoint(kind faults.Kind, op string) error {
	err := c.Faults.Fail(kind, op)
	if err != nil {
		c.Count(telemetry.CounterFaultsInjected, 1)
		c.Count(telemetry.FaultCounter(string(kind)), 1)
		c.Emit(events.FaultInjected, op, []string{err.Error()})
	}
	return err
}

// Interrupted returns the context's error once cancellation or a deadline
// has landed, and nil before that (or when no context is attached). Tasks
// with internal iteration (DSE sweeps) should poll it so long explorations
// stop at the next iteration boundary.
func (c *Context) Interrupted() error {
	if c.Ctx == nil {
		return nil
	}
	select {
	case <-c.Ctx.Done():
		return c.Ctx.Err()
	default:
		return nil
	}
}

// Count increments a named telemetry counter; no-op without a recorder.
// Tasks use this to report DSE iterations and other per-run quantities.
func (c *Context) Count(name string, delta int64) {
	c.Telemetry.Add(name, delta)
}

// Emit publishes one typed live event (see internal/events) through the
// recorder's event sink — branch decisions, DSE progress, faults, and
// retries reach streaming clients this way. f fixes the event's type and
// text, strs and nums are its operands; nothing is rendered unless a sink
// keeps the event, and without one an event costs a nil check.
func (c *Context) Emit(f events.Format, name string, strs []string, nums ...float64) {
	c.Telemetry.Emit(f, name, strs, nums...)
}

// Task is one codified design-flow task (a meta-program in the paper's
// terms): a self-contained analysis, transform, code generation, or
// optimisation that operates on a design.
type Task interface {
	Name() string
	Kind() TaskKind
	Dynamic() bool // requires program execution (the paper's ⚡ marker)
	Run(ctx *Context, d *Design) error
}

// Fact is a set of things the flow has established about a design, each
// given by the task that establishes it. Tasks declare the facts they need
// and give, so the order a task needs is stated once, on the task: the
// engine checks it in TaskFunc.Run and flowlang.Check checks it before a
// flow document is accepted.
type Fact uint8

// The facts a design can hold.
const (
	FactHotspot Fact = 1 << iota // the hotspot loop is identified
	FactKernel                   // the hotspot is outlined into a kernel function
	FactDeps                     // the kernel's outer loop dependences are analysed
	FactTarget                   // a target class is chosen
	FactDevice                   // a device of that class is chosen
)

var factNames = [...]string{"hotspot", "kernel", "deps", "target", "device"}

// Choices are the facts a path gives once: it chooses its target and its
// device once, and a task that would choose either again is refused.
const Choices = FactTarget | FactDevice

// ChosenTwice is the error of a task giving again the choices in again,
// which the design already holds.
func ChosenTwice(again Fact) error {
	return fmt.Errorf("chooses %v twice: a path chooses its target and its device once", again)
}

// String names the facts in f: "kernel and deps".
func (f Fact) String() string {
	var names []string
	for i, name := range factNames {
		if f&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, " and ")
}

// TaskFunc adapts a function to the Task interface. Need is what the design
// must hold before Fn runs; Give is what it holds once Fn succeeds.
type TaskFunc struct {
	TaskName   string
	TaskKind   TaskKind
	IsDyn      bool
	Need, Give Fact
	Fn         func(ctx *Context, d *Design) error
}

// Name returns the task name.
func (t TaskFunc) Name() string { return t.TaskName }

// Kind returns the task classification.
func (t TaskFunc) Kind() TaskKind { return t.TaskKind }

// Dynamic reports whether the task executes the program.
func (t TaskFunc) Dynamic() bool { return t.IsDyn }

// Run executes the task on a design that holds every fact it needs and
// none of the choices it gives, and records the facts it gives once it
// succeeds.
func (t TaskFunc) Run(ctx *Context, d *Design) error {
	if missing := t.Need &^ d.facts; missing != 0 {
		return fmt.Errorf("needs %v", missing)
	}
	if again := t.Give & d.facts & Choices; again != 0 {
		return ChosenTwice(again)
	}
	if err := t.Fn(ctx, d); err != nil {
		return err
	}
	d.facts |= t.Give
	return nil
}

// Node is a flow element: a *Step or a Branch point.
type Node interface{ flowNode() }

// Step wraps a task as a flow node. A flow holds steps by pointer, so a
// lowering can hand out a compile's steps from one slice.
type Step struct{ Task Task }

func (*Step) flowNode() {}

// Path is one alternative at a branch point.
type Path struct {
	Name string
	Flow *Flow
}

// Alternative is one entry of a strategy's preference list at a branch
// point: the indices of the paths to take together.
type Alternative struct {
	Paths []int
}

// Prefer builds the preference list of an informed strategy: one
// single-path alternative per index, in order.
func Prefer(idxs ...int) []Alternative {
	alts := make([]Alternative, len(idxs))
	for k := range idxs {
		alts[k].Paths = idxs[k : k+1 : k+1] // one backing array, so capacity 1 each
	}
	return alts
}

// Selector implements Path Selection Automation at a branch point. Select
// is called once per (branch point, design) and returns the strategy's
// alternatives in order of preference: one path each for an informed
// strategy, one alternative holding several (or all) paths for uninformed
// generation, none for "terminate". The engine walks the list — it alone
// knows which alternatives the budget gate or a fault ruled out — so every
// path may appear at most once.
type Selector interface {
	Name() string
	Select(ctx *Context, d *Design, paths []Path) ([]Alternative, error)
}

// SelectAll is the uninformed selector: every path is taken, generating
// all design versions (paper §IV-B "Uninformed" mode).
type SelectAll struct{}

// Name identifies the selector.
func (SelectAll) Name() string { return "select-all" }

// Select returns one alternative holding every path.
func (SelectAll) Select(_ *Context, _ *Design, paths []Path) ([]Alternative, error) {
	all := make([]int, len(paths))
	for i := range all {
		all[i] = i
	}
	return []Alternative{{Paths: all}}, nil
}

// SelectorFunc adapts a function to Selector.
type SelectorFunc struct {
	SelName string
	Fn      func(ctx *Context, d *Design, paths []Path) ([]Alternative, error)
}

// Name identifies the selector.
func (s SelectorFunc) Name() string { return s.SelName }

// Select delegates to the wrapped function.
func (s SelectorFunc) Select(ctx *Context, d *Design, paths []Path) ([]Alternative, error) {
	return s.Fn(ctx, d, paths)
}

// Branch is a PSA branch point: alternative sub-flows plus a selection
// strategy, and optionally the cost/budget feedback gate of Fig. 3 (when
// ctx.Budget > 0 and ctx.Cost is set, an alternative whose resulting
// designs all exceed the budget is dropped for the strategy's next one).
type Branch struct {
	PointName string
	Paths     []Path
	Select    Selector
	// Gated enables the cost/budget feedback loop at this branch point
	// (Fig. 3 places it at the target-selection branch). Ungated branches
	// ignore ctx.Budget.
	Gated bool
	// MaxRevisions bounds the feedback loop (default 4).
	MaxRevisions int
}

func (Branch) flowNode() {}

// Flow is a sequence of steps and branch points — one PSA-flow (or a
// sub-flow forming a branch path).
type Flow struct {
	Name  string
	Nodes []Node
}

// AddTask appends a task step and returns the flow for chaining.
func (f *Flow) AddTask(t Task) *Flow {
	f.Nodes = append(f.Nodes, &Step{Task: t})
	return f
}

// AddBranch appends a branch point and returns the flow for chaining.
func (f *Flow) AddBranch(b Branch) *Flow {
	f.Nodes = append(f.Nodes, b)
	return f
}

// edit returns a deep copy of f — new flows, node slices and path slices;
// tasks and selectors hold no per-run state and are shared — with each node
// passed through keep, which returns the node to keep or nil to drop it.
func (f *Flow) edit(keep func(Node) Node) *Flow {
	out := &Flow{Name: f.Name, Nodes: make([]Node, 0, len(f.Nodes))}
	for _, n := range f.Nodes {
		if b, ok := n.(Branch); ok {
			paths := make([]Path, len(b.Paths))
			for i, p := range b.Paths {
				paths[i] = Path{Name: p.Name, Flow: p.Flow.edit(keep)}
			}
			b.Paths = paths
			n = b
		}
		if n = keep(n); n != nil {
			out.Nodes = append(out.Nodes, n)
		}
	}
	return out
}

// Without returns a copy of f in which no step, in any sub-flow, runs a task
// named like one of tasks. A task no step runs is an error: a renamed task
// must not turn an ablation into a second baseline.
func (f *Flow) Without(tasks ...Task) (*Flow, error) {
	removed := map[string]bool{}
	out := f.edit(func(n Node) Node {
		s, ok := n.(*Step)
		if ok && slices.ContainsFunc(tasks, func(t Task) bool { return t.Name() == s.Task.Name() }) {
			removed[s.Task.Name()] = true
			return nil
		}
		return n
	})
	for _, t := range tasks {
		if !removed[t.Name()] {
			return nil, fmt.Errorf("flow %s: no step runs task %q", f.Name, t.Name())
		}
	}
	return out, nil
}

// FlowError wraps a task failure with its flow position.
type FlowError struct {
	Flow string
	Task string
	Err  error
}

// Error implements the error interface.
func (e *FlowError) Error() string {
	return fmt.Sprintf("flow %s: task %s: %v", e.Flow, e.Task, e.Err)
}

// Unwrap exposes the cause.
func (e *FlowError) Unwrap() error { return e.Err }

// Run executes the flow on design d and returns the leaf designs — one per
// branch path ultimately taken. Designs that become infeasible (e.g. FPGA
// overmap) are still returned, marked via Design.Infeasible, so harnesses
// can report them as the paper does ("n/a" bars).
func (f *Flow) Run(ctx *Context, d *Design) ([]*Design, error) {
	ctx.ensureShared()
	span := ctx.Telemetry.StartSpan(nil, telemetry.KindFlow, f.Name)
	defer span.End()
	return f.run(ctx, d, span)
}

// run executes the flow's nodes with telemetry attached under parent
// (sub-flows of a branch path attach to the path's span).
func (f *Flow) run(ctx *Context, d *Design, parent *telemetry.Span) ([]*Design, error) {
	designs := []*Design{d}
	for _, node := range f.Nodes {
		switch n := node.(type) {
		case *Step:
			// A step keeps every design it is given, so it runs on designs
			// in place.
			for _, cur := range designs {
				if cur.Infeasible != "" {
					continue
				}
				if err := ctx.Interrupted(); err != nil {
					return nil, &FlowError{Flow: f.Name, Task: n.Task.Name(), Err: err}
				}
				span := ctx.Telemetry.StartSpan(parent, telemetry.KindTask, n.Task.Name())
				if span != nil {
					span.SetDetail(cur.Label())
				}
				err := runTask(ctx, n.Task, cur, span)
				span.End()
				if err != nil {
					return nil, &FlowError{Flow: f.Name, Task: n.Task.Name(), Err: err}
				}
				cur.Record(events.TaskKind, n.Task.Name(), []string{n.Task.Kind().String()})
			}
		case Branch:
			next := make([]*Design, 0, len(designs))
			for _, cur := range designs {
				if cur.Infeasible != "" {
					next = append(next, cur)
					continue
				}
				out, err := runBranch(ctx, n, cur, f.Name, parent)
				if err != nil {
					return nil, err
				}
				next = append(next, out...)
			}
			designs = next
		default:
			return nil, fmt.Errorf("flow %s: unknown node %T", f.Name, node)
		}
	}
	return designs, nil
}

// taskHook, when set, is called before every task a flow runs on a design,
// and the function it returns after the task. Only tests set it, before any
// flow runs (export_test.go: the write guard over shared functions).
var taskHook func(t Task, d *Design) func()

// runTask executes one task with the engine's resilience wrapper: an
// optional per-attempt timeout, plus retry-with-backoff for transient
// faults bounded by the retry policy's MaxAttempts and the flow's shared
// retry budget. With injection off and no timeout this reduces to exactly
// one plain Task.Run call, so fault-free flows behave identically to the
// pre-resilience engine.
func runTask(ctx *Context, t Task, d *Design, span *telemetry.Span) error {
	if taskHook != nil {
		defer taskHook(t, d)()
	}
	pol := ctx.Retry.WithDefaults()
	for attempt := 1; ; attempt++ {
		err := runTaskAttempt(ctx, t, d)
		if err == nil || !faults.Transient(err) {
			return err
		}
		if ctx.Interrupted() != nil {
			return err
		}
		if attempt >= pol.MaxAttempts {
			ctx.Count(telemetry.CounterRetryGiveups, 1)
			span.Note(events.NoteGaveUp, []string{err.Error()}, float64(attempt))
			return fmt.Errorf("%d attempts exhausted: %w", attempt, err)
		}
		if !ctx.takeRetryToken() {
			ctx.Count(telemetry.CounterRetryBudgetExhausted, 1)
			span.Note(events.NoteBudgetSpent, []string{err.Error()}, float64(attempt))
			return fmt.Errorf("flow retry budget exhausted: %w", err)
		}
		delay := pol.Delay(t.Name(), attempt)
		ctx.Count(telemetry.CounterRetryAttempts, 1)
		ctx.Count(telemetry.CounterRetryBackoffMillis, delay.Milliseconds())
		cause := []string{err.Error(), delay.String()}
		ctx.Emit(events.RetryScheduled, t.Name(), cause, float64(attempt))
		span.Note(events.NoteRetry, cause, float64(attempt))
		if faults.Sleep(ctx.Ctx, delay) != nil {
			return err
		}
	}
}

// runTaskAttempt runs one attempt, imposing Context.TaskTimeout when set.
// An attempt killed by its own deadline — while the flow's context is
// still alive — is reclassified as a transient faults.Timeout so the
// retry loop treats a hung tool invocation like a failed one.
func runTaskAttempt(ctx *Context, t Task, d *Design) error {
	if ctx.TaskTimeout <= 0 {
		return t.Run(ctx, d)
	}
	base := ctx.Ctx
	if base == nil {
		base = context.Background()
	}
	tctx, cancel := context.WithTimeout(base, ctx.TaskTimeout)
	defer cancel()
	// The attempt runs on a copy carrying its deadline, so sibling paths keep
	// the run's own context; the run's mutable state stays shared through
	// the shared pointer (go vet's copylocks keeps a lock out of Context).
	attempt := *ctx
	attempt.Ctx = tctx
	err := t.Run(&attempt, d)
	if err != nil && errors.Is(err, context.DeadlineExceeded) &&
		(ctx.Ctx == nil || ctx.Ctx.Err() == nil) {
		ctx.Count(telemetry.CounterTaskTimeouts, 1)
		return fmt.Errorf("task %s exceeded timeout %s: %w", t.Name(), ctx.TaskTimeout,
			&faults.Fault{Kind: faults.Timeout, Op: t.Name(), N: 1, Transient: true})
	}
	return err
}

// emitDecision emits the branch_decision event of the alternative idxs:
// the strategy and the names of the paths it takes, each quoted. A list
// longer than an event detail holds is rendered here, once.
func emitDecision(ctx *Context, b Branch, idxs []int) {
	var buf [events.MaxStrs]string
	strs := append(buf[:0], b.Select.Name())
	if len(idxs) < events.MaxStrs {
		for _, i := range idxs {
			strs = append(strs, b.Paths[i].Name)
		}
		ctx.Emit(events.Decision, b.PointName, strs)
		return
	}
	names := make([]string, len(idxs))
	for k, i := range idxs {
		names[k] = b.Paths[i].Name
	}
	list := string(events.AppendList(nil, 'q', names))
	ctx.Emit(events.DecisionJoined, b.PointName, append(strs, list))
}

// checkAlternatives validates a selector's preference list against a branch
// point of n paths, once, before any path runs: every alternative takes at
// least one path, every index is in range, and no path is offered twice —
// within an alternative it would run twice, across alternatives it would
// re-run after the engine ruled it out.
func checkAlternatives(alts []Alternative, n int) error {
	seen := make([]bool, n)
	for k, alt := range alts {
		if len(alt.Paths) == 0 {
			return fmt.Errorf("selector returned empty alternative %d", k)
		}
		for _, i := range alt.Paths {
			if i < 0 || i >= n {
				return fmt.Errorf("selector returned invalid path index %d", i)
			}
			if seen[i] {
				return fmt.Errorf("selector offered path index %d twice", i)
			}
			seen[i] = true
		}
	}
	return nil
}

// runBranch executes one branch point on one design: it asks the strategy
// once for its alternatives and walks them in order of preference. Both
// feedback edges are the same step, "next alternative":
//
//   - the budget gate (Fig. 3): every leaf of the alternative costs more
//     than ctx.Budget — at most MaxRevisions times;
//   - the graceful-degradation tier (docs/FAULTS.md): a path whose sub-flow
//     fails with a degradable error (a retry-exhausted or non-transient
//     fault) is not allowed to abort the flow. Its fork is marked Infeasible
//     and kept as a failure verdict, and when it was the alternative's only
//     path (informed strategy) the walk falls back to the next-best target.
//
// Out of alternatives is Fig. 3's "design-flow terminates": the design
// continues unspecialized.
func runBranch(ctx *Context, b Branch, d *Design, flowName string, parent *telemetry.Span) ([]*Design, error) {
	maxRev := b.MaxRevisions
	if maxRev <= 0 {
		maxRev = 4
	}
	gated := b.Gated && ctx.Budget > 0 && ctx.Cost != nil
	resilient := ctx.resilient()
	branchSpan := ctx.Telemetry.StartSpan(parent, telemetry.KindBranch, b.PointName)
	defer branchSpan.End()
	fail := func(err error) error {
		return &FlowError{Flow: flowName, Task: "branch:" + b.PointName, Err: err}
	}
	alts, err := b.Select.Select(ctx, d, b.Paths)
	if err == nil {
		err = checkAlternatives(alts, len(b.Paths))
	}
	if err != nil {
		return nil, fail(err)
	}
	// degraded accumulates the Infeasible failure verdicts of fault-degraded
	// paths across fallbacks; they are returned alongside the surviving
	// designs so harnesses see per-branch failure outcomes.
	var degraded []*Design
	rev, fallbacks := 0, 0
	for _, alt := range alts {
		if err := ctx.Interrupted(); err != nil {
			return nil, fail(err)
		}
		idxs := alt.Paths
		emitDecision(ctx, b, idxs)
		perPath := make([][]*Design, len(idxs))
		errs := make([]error, len(idxs))
		forks := make([]*Design, len(idxs))
		for slot := range idxs {
			forks[slot] = d
			// Fork when several paths run, when the budget gate may reject
			// this path, or when resilience is active: budget revisions and
			// fault fallbacks must both restart from the unmodified design.
			// Every fork is taken here, before any path runs, because Fork
			// writes d as well.
			if len(idxs) > 1 || gated || resilient {
				forks[slot] = d.Fork()
				ctx.Count(telemetry.CounterDesignsForked, 1)
			}
		}
		runPath := func(slot, i int) {
			p := b.Paths[i]
			fork := forks[slot]
			fork.Record(events.BranchSelected, b.PointName, []string{p.Name, b.Select.Name()})
			pathSpan := ctx.Telemetry.StartSpan(branchSpan, telemetry.KindPath, b.PointName+"/"+p.Name)
			pathSpan.SetDetail(fork.Label())
			perPath[slot], errs[slot] = p.Flow.run(ctx, fork, pathSpan)
			pathSpan.End()
		}
		if ctx.Parallel && len(idxs) > 1 {
			var wg sync.WaitGroup
			for slot, i := range idxs {
				wg.Add(1)
				go func(slot, i int) {
					defer wg.Done()
					runPath(slot, i)
				}(slot, i)
			}
			wg.Wait()
		} else {
			for slot, i := range idxs {
				runPath(slot, i)
			}
		}
		var out []*Design
		overBudget := true
		failedSlots := 0
		var firstFail error
		for slot, i := range idxs {
			if err := errs[slot]; err != nil {
				if !resilient || !faults.Degradable(err) {
					// Programming/specification errors (or any failure with
					// resilience off) still abort the flow.
					return nil, err
				}
				// Graceful degradation: the failed fork becomes an
				// Infeasible failure verdict instead of aborting the flow.
				p := b.Paths[i]
				fork := forks[slot]
				fork.Infeasible = fmt.Sprintf("path %q failed: %v", p.Name, err)
				cause := []string{p.Name, err.Error()}
				fork.Record(events.BranchDegraded, b.PointName, cause[1:])
				ctx.Count(telemetry.CounterFaultDegradations, 1)
				ctx.Emit(events.PathDegraded, b.PointName+"/"+p.Name, cause[1:])
				branchSpan.Note(events.NotePathDegraded, cause)
				degraded = append(degraded, fork)
				failedSlots++
				if firstFail == nil {
					firstFail = err
				}
				// Like any infeasible leaf, a failure verdict suppresses
				// budget revision for this alternative.
				overBudget = false
				continue
			}
			out = append(out, perPath[slot]...)
			for _, leaf := range perPath[slot] {
				if !gated || leaf.Infeasible != "" {
					overBudget = false
					continue
				}
				if cost := ctx.Cost(leaf); cost <= ctx.Budget {
					overBudget = false
				} else {
					leaf.Record(events.BranchOverBudget, b.PointName, nil, cost, ctx.Budget)
				}
			}
		}
		// A multi-select alternative whose every path failed produced nothing
		// to continue with: surface one degradable error so an enclosing
		// branch (informed mode's target selection) can fall back in turn.
		if failedSlots == len(idxs) && len(idxs) > 1 {
			return nil, fail(fmt.Errorf("all %d selected paths failed: %w", len(idxs), firstFail))
		}
		switch {
		case failedSlots > 0 && len(idxs) == 1:
			// Informed fallback: the strategy's single pick failed, so its
			// next-best target runs.
			fallbacks++
			ctx.Count(telemetry.CounterFaultFallbacks, 1)
			branchSpan.Note(events.NoteFallback, []string{b.Paths[idxs[0]].Name}, float64(fallbacks))
			d.Record(events.BranchFallback, b.PointName, []string{b.Paths[idxs[0]].Name}, float64(fallbacks))
		case !gated || !overBudget:
			return append(degraded, out...), nil
		case rev == maxRev:
			return nil, fail(fmt.Errorf("budget feedback exhausted %d revisions", maxRev))
		default:
			// Budget feedback: every leaf is over budget, revise.
			rev++
			ctx.Count(telemetry.CounterBudgetRevisions, 1)
			d.Record(events.BranchRevision, b.PointName, nil, float64(rev))
		}
	}
	d.Record(events.BranchNoPath, b.PointName, nil)
	return append(degraded, d), nil
}
