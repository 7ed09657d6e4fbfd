package flowlang

import (
	"psaflow/internal/core"
	"psaflow/internal/faults"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// Options fixes the compile-time flow options: the DSL's when-conditions
// (sharing, informed, uninformed) and the "auto" strategy resolve against
// them.
type Options = tasks.FlowOptions

// Compiled is a lowered flow plus the flow-level settings the caller wires
// into the execution context (core.Context.Budget, the fault injector, the
// engine retry policy).
type Compiled struct {
	Flow     *core.Flow
	Budget   float64
	Faults   string // faults-spec text; "" when the flow sets none
	Retry    faults.RetryPolicy
	HasRetry bool
}

// Doc is a checked flow document. Only Check builds one and nothing writes
// it afterwards, so every job may lower the same Doc.
type Doc struct {
	f *File
}

// Check is the one definition of a valid document: src parses and
// validates. The flow registry, psaflow -check, psaflow -flow and the
// bundled flow all accept exactly what Check accepts, and keep the Doc it
// returns to lower per job.
func Check(src string) (*Doc, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Validate(f); err != nil {
		return nil, err
	}
	return &Doc{f: f}, nil
}

// Name is the document's own `flow "..."` declaration name.
func (d *Doc) Name() string { return d.f.Flow.Name }

// Compile lowers the document onto the core engine with opts. Lowering is
// total on what Check admits: it checks nothing and cannot fail.
func (d *Doc) Compile(opts Options) *Compiled {
	f := d.f
	c := &compiler{opts: opts, defs: map[string]*DefDecl{}}
	for _, def := range f.Defs {
		c.defs[def.Name] = def
	}
	out := &Compiled{Flow: &core.Flow{Name: f.Flow.Name}}
	for _, s := range f.Flow.Settings {
		switch s.Kind {
		case SetBudget:
			out.Budget = s.Value
		case SetFaults:
			out.Faults = s.Text
		case SetRetry:
			out.HasRetry = true
			out.Retry = faults.RetryPolicy{MaxAttempts: s.Attempts, Budget: s.RetryBudget}
			if s.HasBudget && s.RetryBudget == 0 {
				out.Retry.Budget = -1 // explicit budget=0 means unlimited
			}
		}
	}
	c.lower(out.Flow, f.Flow.Body, binding{pathName: f.Flow.Name})
	return out
}

// CompileSource checks and compiles a .psa document.
func CompileSource(src string, opts Options) (*Compiled, error) {
	d, err := Check(src)
	if err != nil {
		return nil, err
	}
	return d.Compile(opts), nil
}

// binding is the lowering context: the enclosing path name (prefix for
// foreach-generated sub-flow names) and the device the enclosing foreach
// bound, if any.
type binding struct {
	pathName string
	gpu      platform.GPUSpec
	fpga     platform.FPGASpec
}

// compiler lowers validated statements onto core flows.
type compiler struct {
	opts Options
	defs map[string]*DefDecl
}

// lower appends the lowered form of stmts to flow.
func (c *compiler) lower(flow *core.Flow, stmts []Stmt, b binding) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *TaskStmt:
			flow.AddTask(lowerTask(s, b))
		case *UseStmt:
			c.lower(flow, c.defs[s.Name].Body, b)
		case *WhenStmt:
			if c.eval(s.Cond, b) {
				c.lower(flow, s.Body, b)
			}
		case *BranchStmt:
			flow.AddBranch(c.lowerBranch(s, b))
		}
	}
}

// lowerTask instantiates a task. Validate admits a device argument only
// when it names the enclosing foreach variable and its class matches the
// task's, so b holds the device the task wants.
func lowerTask(s *TaskStmt, b binding) core.Task {
	entry := taskRegistry[s.Name]
	switch {
	case s.Arg == "":
		return entry.Plain
	case entry.Class == DevGPU:
		return entry.GPU(b.gpu)
	default:
		return entry.FPGA(b.fpga)
	}
}

// eval resolves a when-condition at compile time. A condition on a device
// is <var>.usm on an FPGA foreach variable: the only device property
// Validate admits.
func (c *compiler) eval(cond Cond, b binding) bool {
	val := b.fpga.USM
	if cond.Prop == "" {
		switch cond.Name {
		case "sharing":
			val = c.opts.ResourceSharing
		case "informed":
			val = c.opts.Mode == tasks.Informed
		default: // "uninformed"
			val = c.opts.Mode == tasks.Uninformed
		}
	}
	return val != cond.Neg
}

func (c *compiler) lowerBranch(s *BranchStmt, b binding) core.Branch {
	br := core.Branch{PointName: s.Name, Gated: s.Gated}
	if s.HasRev {
		br.MaxRevisions = s.Revisions
	}

	cfg := c.opts.StrategyOrDefault()
	for _, a := range s.Strategy.Args {
		switch a.Key {
		case "ai-threshold":
			cfg.AIThreshold = a.Val
		case "transfer-bw":
			cfg.TransferBW = a.Val
		}
	}
	switch s.Strategy.Name {
	case "informed":
		br.Select = tasks.InformedSelector(cfg)
	case "auto":
		if c.opts.Mode == tasks.Informed {
			br.Select = tasks.InformedSelector(cfg)
		} else {
			br.Select = core.SelectAll{}
		}
	default: // "all"
		br.Select = core.SelectAll{}
	}

	for _, arm := range s.Arms {
		switch a := arm.(type) {
		case *PathArm:
			name := a.FlowName
			if name == "" {
				name = a.Name
			}
			sub := &core.Flow{Name: name}
			inner := b
			inner.pathName = a.Name
			c.lower(sub, a.Body, inner)
			br.Paths = append(br.Paths, core.Path{Name: a.Name, Flow: sub})
		case *ForeachArm:
			br.Paths = append(br.Paths, c.lowerForeach(a, b)...)
		}
	}
	return br
}

// lowerForeach expands a foreach arm into one path per catalog device, in
// catalog order. Each device's sub-flow is named "<enclosing path>/<device>"
// — the built-in flow's "gpu/<dev>" and "fpga/<dev>" — and the path itself
// is named after the device.
func (c *compiler) lowerForeach(a *ForeachArm, b binding) []core.Path {
	var paths []core.Path
	expand := func(name string, inner binding) {
		sub := &core.Flow{Name: b.pathName + "/" + name}
		inner.pathName = name
		c.lower(sub, a.Body, inner)
		paths = append(paths, core.Path{Name: name, Flow: sub})
	}
	switch deviceSets[a.Set] {
	case DevGPU:
		for _, dev := range platform.GPUs() {
			inner := b
			inner.gpu = dev
			expand(dev.Name, inner)
		}
	default: // DevFPGA
		for _, dev := range platform.FPGAs() {
			inner := b
			inner.fpga = dev
			expand(dev.Name, inner)
		}
	}
	return paths
}
