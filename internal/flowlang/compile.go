package flowlang

import (
	"fmt"

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

// Compile lowers a parsed file onto the core engine. It validates first —
// passing an invalid file returns the full *ErrorList — so lowering itself
// only deals with well-formed input.
func Compile(f *File, opts Options) (*Compiled, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	c := &compiler{opts: opts, defs: map[string]*DefDecl{}}
	for _, d := range f.Defs {
		c.defs[d.Name] = d
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
	if err := c.lower(out.Flow, f.Flow.Body, binding{pathName: f.Flow.Name}); err != nil {
		return nil, err
	}
	return out, nil
}

// CompileSource parses, validates, and compiles a .psa document.
func CompileSource(src string, opts Options) (*Compiled, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f, opts)
}

// Check is the one definition of a valid document: src parses, validates,
// and compiles under every mode × sharing combination a job can ask for.
// The flow registry, psaflow -check and the bundled flow all accept exactly
// what Check accepts; the registry and the bundled flow keep the parsed
// file it returns and Compile it per job.
func Check(src string) (*File, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
		for _, sharing := range []bool{false, true} {
			if _, err := Compile(f, Options{Mode: mode, ResourceSharing: sharing}); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// binding is the lowering context: the enclosing path name (prefix for
// foreach-generated sub-flow names) and the bound device, if any.
type binding struct {
	pathName string
	devVar   string
	devClass DeviceClass
	gpu      platform.GPUSpec
	fpga     platform.FPGASpec
}

// compiler lowers validated statements onto core flows.
type compiler struct {
	opts Options
	defs map[string]*DefDecl
}

// lower appends the lowered form of stmts to flow.
func (c *compiler) lower(flow *core.Flow, stmts []Stmt, b binding) error {
	for _, st := range stmts {
		switch s := st.(type) {
		case *TaskStmt:
			t, err := c.lowerTask(s, b)
			if err != nil {
				return err
			}
			flow.AddTask(t)
		case *UseStmt:
			if err := c.lower(flow, c.defs[s.Name].Body, b); err != nil {
				return err
			}
		case *WhenStmt:
			ok, err := c.eval(s.Cond, b)
			if err != nil {
				return err
			}
			if ok {
				if err := c.lower(flow, s.Body, b); err != nil {
					return err
				}
			}
		case *BranchStmt:
			br, err := c.lowerBranch(s, b)
			if err != nil {
				return err
			}
			flow.AddBranch(br)
		}
	}
	return nil
}

func (c *compiler) lowerTask(s *TaskStmt, b binding) (core.Task, error) {
	entry := taskRegistry[s.Name]
	if s.Arg == "" {
		return entry.Plain, nil
	}
	if s.Arg != b.devVar {
		return nil, fmt.Errorf("flowlang: internal: unbound device variable %q at %s", s.Arg, s.ArgPos)
	}
	if entry.Class == DevGPU {
		return entry.GPU(b.gpu), nil
	}
	return entry.FPGA(b.fpga), nil
}

// eval resolves a when-condition at compile time.
func (c *compiler) eval(cond Cond, b binding) (bool, error) {
	var val bool
	switch {
	case cond.Prop == "":
		switch cond.Name {
		case "sharing":
			val = c.opts.ResourceSharing
		case "informed":
			val = c.opts.Mode == tasks.Informed
		case "uninformed":
			val = c.opts.Mode == tasks.Uninformed
		default:
			return false, fmt.Errorf("flowlang: internal: unknown condition %q at %s", cond.Name, cond.NamePos)
		}
	case cond.Name == b.devVar && b.devClass == DevFPGA && cond.Prop == "usm":
		val = b.fpga.USM
	default:
		return false, fmt.Errorf("flowlang: internal: unresolvable condition %q at %s", cond, cond.NamePos)
	}
	if cond.Neg {
		val = !val
	}
	return val, nil
}

func (c *compiler) lowerBranch(s *BranchStmt, b binding) (core.Branch, error) {
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
			if err := c.lower(sub, a.Body, inner); err != nil {
				return core.Branch{}, err
			}
			br.Paths = append(br.Paths, core.Path{Name: a.Name, Flow: sub})
		case *ForeachArm:
			paths, err := c.lowerForeach(a, b)
			if err != nil {
				return core.Branch{}, err
			}
			br.Paths = append(br.Paths, paths...)
		}
	}
	return br, nil
}

// lowerForeach expands a foreach arm into one path per catalog device, in
// catalog order. Each device's sub-flow is named "<enclosing path>/<device>"
// — the built-in flow's "gpu/<dev>" and "fpga/<dev>" — and the path itself
// is named after the device.
func (c *compiler) lowerForeach(a *ForeachArm, b binding) ([]core.Path, error) {
	var paths []core.Path
	expand := func(name string, inner binding) error {
		sub := &core.Flow{Name: b.pathName + "/" + name}
		inner.pathName = name
		if err := c.lower(sub, a.Body, inner); err != nil {
			return err
		}
		paths = append(paths, core.Path{Name: name, Flow: sub})
		return nil
	}
	switch deviceSets[a.Set] {
	case DevGPU:
		for _, dev := range platform.GPUs() {
			inner := b
			inner.devVar, inner.devClass, inner.gpu = a.Var, DevGPU, dev
			if err := expand(dev.Name, inner); err != nil {
				return nil, err
			}
		}
	default: // DevFPGA
		for _, dev := range platform.FPGAs() {
			inner := b
			inner.devVar, inner.devClass, inner.fpga = a.Var, DevFPGA, dev
			if err := expand(dev.Name, inner); err != nil {
				return nil, err
			}
		}
	}
	return paths, nil
}
