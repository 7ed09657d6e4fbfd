package flowlang

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"psaflow/internal/core"
	"psaflow/internal/faults"
	"psaflow/internal/tasks"
)

// Diag is one validation diagnostic: a stable error code (catalogued in
// docs/FLOWS.md), a source position, and a human-readable message.
type Diag struct {
	Code string
	Pos  Pos
	Msg  string
}

// Error implements the error interface.
func (d Diag) Error() string { return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Msg, d.Code) }

// ErrorList collects every diagnostic from one validation pass, sorted by
// source position. Unlike the parser (which stops at the first syntax
// error), the validator reports all semantic errors in one go.
type ErrorList struct {
	Diags []Diag
}

// Error renders all diagnostics, one per line.
func (e *ErrorList) Error() string {
	lines := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		lines[i] = d.Error()
	}
	return strings.Join(lines, "\n")
}

func (e *ErrorList) add(code string, pos Pos, format string, args ...any) {
	e.Diags = append(e.Diags, Diag{Code: code, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Validation error codes. Every code here is documented in docs/FLOWS.md;
// the docs-coverage test enforces that.
const (
	ErrUnknownTask          = "unknown-task"
	ErrTaskTakesNoDevice    = "task-takes-no-device"
	ErrTaskNeedsDevice      = "task-needs-device"
	ErrUnknownDeviceVar     = "unknown-device-var"
	ErrDeviceClassMismatch  = "device-class-mismatch"
	ErrUnknownDeviceSet     = "unknown-device-set"
	ErrNestedForeach        = "nested-foreach"
	ErrDuplicatePath        = "duplicate-path"
	ErrDuplicateBranch      = "duplicate-branch"
	ErrEmptyBranch          = "empty-branch"
	ErrEmptyPath            = "empty-path"
	ErrUnknownStrategy      = "unknown-strategy"
	ErrBadStrategyArg       = "bad-strategy-arg"
	ErrInformedNeedsTargets = "informed-needs-targets"
	ErrUnknownCondition     = "unknown-condition"
	ErrCondOutsideForeach   = "condition-outside-foreach"
	ErrUnknownDeviceProp    = "unknown-device-property"
	ErrUnknownDef           = "unknown-def"
	ErrDuplicateDef         = "duplicate-def"
	ErrDefCycle             = "def-cycle"
	ErrDeviceRefInDef       = "device-ref-in-def"
	ErrBadSetting           = "bad-setting"
	ErrDuplicateSetting     = "duplicate-setting"
	ErrEmptyFlow            = "empty-flow"
	ErrUnmetNeed            = "unmet-need"
	ErrTargetTwice          = "target-twice"
)

// ErrorCodes returns every validation error code, sorted — used by the
// docs-coverage gate.
func ErrorCodes() []string {
	codes := []string{
		ErrUnknownTask, ErrTaskTakesNoDevice, ErrTaskNeedsDevice,
		ErrUnknownDeviceVar, ErrDeviceClassMismatch, ErrUnknownDeviceSet,
		ErrNestedForeach, ErrDuplicatePath, ErrDuplicateBranch,
		ErrEmptyBranch, ErrEmptyPath, ErrUnknownStrategy, ErrBadStrategyArg,
		ErrInformedNeedsTargets, ErrUnknownCondition, ErrCondOutsideForeach,
		ErrUnknownDeviceProp, ErrUnknownDef, ErrDuplicateDef, ErrDefCycle,
		ErrDeviceRefInDef, ErrBadSetting, ErrDuplicateSetting, ErrEmptyFlow,
		ErrUnmetNeed, ErrTargetTwice,
	}
	sort.Strings(codes)
	return codes
}

// validator walks a File accumulating diagnostics.
type validator struct {
	errs *ErrorList
	defs map[string]*DefDecl
}

// Validate checks every semantic rule on a parsed file and returns either
// nil or an *ErrorList carrying all violations sorted by position.
func Validate(f *File) error {
	v := &validator{errs: &ErrorList{}, defs: map[string]*DefDecl{}}

	// Index defs, flagging duplicates, then check each def body in a
	// device-free scope (defs inline anywhere, so they may not capture a
	// foreach variable) and reject use-cycles among defs.
	for _, d := range f.Defs {
		if prev, ok := v.defs[d.Name]; ok {
			v.errs.add(ErrDuplicateDef, d.NamePos, "duplicate def %q (first defined at %s)", d.Name, prev.NamePos)
			continue
		}
		v.defs[d.Name] = d
	}
	v.checkDefCycles(f.Defs)
	for _, d := range f.Defs {
		v.checkStmts(d.Body, scope{inDef: true})
	}

	if f.Flow != nil {
		v.checkSettings(f.Flow.Settings)
		if len(f.Flow.Body) == 0 {
			v.errs.add(ErrEmptyFlow, f.Flow.KwPos, "flow %q has no statements", f.Flow.Name)
		}
		v.checkStmts(f.Flow.Body, scope{})
		// Needs are read off the lowered tasks, so they are checked only
		// once every name resolves and no def uses itself: under each
		// mode × sharing a job may lower the document with.
		if len(v.errs.Diags) == 0 {
			for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
				for _, sharing := range []bool{false, true} {
					c := &compiler{opts: Options{Mode: mode, ResourceSharing: sharing}}
					v.checkNeeds(f.Flow.Body, held{}, c)
				}
			}
		}
	}

	if len(v.errs.Diags) == 0 {
		return nil
	}
	sort.SliceStable(v.errs.Diags, func(i, j int) bool {
		a, b := v.errs.Diags[i].Pos, v.errs.Diags[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return v.errs
}

// scope carries the lexical context while walking statements.
type scope struct {
	inDef    bool        // inside a def body: device vars can't exist
	devVar   string      // foreach loop variable in scope; "" if none
	devClass DeviceClass // class of devVar
}

func (v *validator) checkSettings(settings []*Setting) {
	seen := map[SettingKind]Pos{}
	for _, s := range settings {
		if prev, ok := seen[s.Kind]; ok {
			v.errs.add(ErrDuplicateSetting, s.KwPos, "duplicate %s setting (first at %s)", s.Kind, prev)
		} else {
			seen[s.Kind] = s.KwPos
		}
		switch s.Kind {
		case SetBudget:
			if s.Value <= 0 {
				v.errs.add(ErrBadSetting, s.ValuePos, "budget must be positive, got %g", s.Value)
			}
		case SetFaults:
			if _, err := faults.ParseSpec(s.Text); err != nil {
				v.errs.add(ErrBadSetting, s.TextPos, "invalid faults spec %q: %v", s.Text, err)
			}
		case SetRetry:
			if s.HasAttempts && s.Attempts < 1 {
				v.errs.add(ErrBadSetting, s.KwPos, "retry attempts must be at least 1, got %d", s.Attempts)
			}
			if s.HasBudget && s.RetryBudget < 0 {
				v.errs.add(ErrBadSetting, s.KwPos, "retry budget must not be negative, got %d", s.RetryBudget)
			}
		}
	}
}

// checkDefCycles rejects use-cycles among defs (a def that eventually
// inlines itself would expand forever).
func (v *validator) checkDefCycles(defs []*DefDecl) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(d *DefDecl) bool
	visit = func(d *DefDecl) bool {
		color[d.Name] = grey
		cyclic := false
		var walk func(stmts []Stmt)
		walk = func(stmts []Stmt) {
			for _, st := range stmts {
				switch s := st.(type) {
				case *UseStmt:
					ref, ok := v.defs[s.Name]
					if !ok {
						continue // unknown-def reported by checkStmts
					}
					switch color[ref.Name] {
					case grey:
						v.errs.add(ErrDefCycle, s.NamePos, "def cycle: %q uses %q which (transitively) uses it back", d.Name, ref.Name)
						cyclic = true
					case white:
						if visit(ref) {
							cyclic = true
						}
					}
				case *WhenStmt:
					walk(s.Body)
				case *BranchStmt:
					for _, arm := range s.Arms {
						switch a := arm.(type) {
						case *PathArm:
							walk(a.Body)
						case *ForeachArm:
							walk(a.Body)
						}
					}
				}
			}
		}
		walk(d.Body)
		color[d.Name] = black
		return cyclic
	}
	for _, d := range defs {
		if v.defs[d.Name] == d && color[d.Name] == white {
			visit(d)
		}
	}
}

func (v *validator) checkStmts(stmts []Stmt, sc scope) {
	branchNames := map[string]Pos{}
	for _, st := range stmts {
		switch s := st.(type) {
		case *TaskStmt:
			v.checkTask(s, sc)
		case *UseStmt:
			if _, ok := v.defs[s.Name]; !ok {
				v.errs.add(ErrUnknownDef, s.NamePos, "unknown def %q", s.Name)
			}
		case *WhenStmt:
			v.checkCond(s.Cond, sc)
			v.checkStmts(s.Body, sc)
		case *BranchStmt:
			if prev, ok := branchNames[s.Name]; ok {
				v.errs.add(ErrDuplicateBranch, s.NamePos, "duplicate branch %q in this block (first at %s)", s.Name, prev)
			} else {
				branchNames[s.Name] = s.NamePos
			}
			v.checkBranch(s, sc)
		}
	}
}

// held is what the checker knows of a design's facts at one point of a
// document: every path to the point gives all of them, and some path gives
// each of some.
type held struct{ all, some core.Fact }

// checkNeeds walks stmts in run order from a design holding h, under the
// flow options c lowers with, and returns what the design holds after
// stmts. It reports every task and informed strategy that needs a fact
// some path to it does not give (unmet-need), and every task that gives a
// target or a device some path to it has already chosen (target-twice). A
// when on a flow option runs or not, as lowering decides; a when on a
// device property, or a branch arm, may not run, or may hand on the design
// that entered it, so what it gives only may be held after it.
func (v *validator) checkNeeds(stmts []Stmt, h held, c *compiler) held {
	report := func(code string, pos Pos, msg string) {
		d := Diag{Code: code, Pos: pos, Msg: msg}
		if !slices.Contains(v.errs.Diags, d) { // a def used twice, a statement checked under several options
			v.errs.Diags = append(v.errs.Diags, d)
		}
	}
	unmet := func(pos Pos, what string, need core.Fact) {
		if miss := need &^ h.all; miss != 0 {
			report(ErrUnmetNeed, pos, fmt.Sprintf("%s needs %v, which not every path to it gives", what, miss))
		}
	}
	for _, st := range stmts {
		switch s := st.(type) {
		case *TaskStmt:
			t := lowerTask(s, binding{}).(core.TaskFunc)
			what := fmt.Sprintf("task %q", s.Name)
			unmet(s.NamePos, what, t.Need)
			if again := t.Give & h.some & core.Choices; again != 0 {
				report(ErrTargetTwice, s.NamePos, what+" "+core.ChosenTwice(again).Error())
			}
			h.all |= t.Give
			h.some |= t.Give
		case *UseStmt:
			h = v.checkNeeds(v.defs[s.Name].Body, h, c)
		case *WhenStmt:
			switch {
			case s.Cond.Prop != "":
				h.some |= v.checkNeeds(s.Body, h, c).some
			case c.eval(s.Cond, binding{}):
				h = v.checkNeeds(s.Body, h, c)
			}
		case *BranchStmt:
			if s.Strategy.Name != "all" {
				unmet(s.Strategy.Pos, fmt.Sprintf("strategy %s on branch %q", s.Strategy.Name, s.Name), core.FactDeps)
			}
			some := h.some
			for _, arm := range s.Arms {
				switch a := arm.(type) {
				case *PathArm:
					some |= v.checkNeeds(a.Body, h, c).some
				case *ForeachArm:
					some |= v.checkNeeds(a.Body, h, c).some
				}
			}
			h.some = some
		}
	}
	return h
}

func (v *validator) checkTask(s *TaskStmt, sc scope) {
	entry, ok := taskRegistry[s.Name]
	if !ok {
		v.errs.add(ErrUnknownTask, s.NamePos, "unknown task %q (see docs/FLOWS.md for the task catalog)", s.Name)
		return
	}
	switch {
	case s.Arg == "" && entry.needsDevice():
		v.errs.add(ErrTaskNeedsDevice, s.NamePos, "task %q needs a %s device argument", s.Name, entry.Class)
	case s.Arg != "" && !entry.needsDevice():
		v.errs.add(ErrTaskTakesNoDevice, s.ArgPos, "task %q takes no device argument", s.Name)
	case s.Arg != "":
		if sc.inDef {
			v.errs.add(ErrDeviceRefInDef, s.ArgPos, "defs may not reference device variables (%q): defs inline outside any foreach", s.Arg)
		} else if sc.devVar == "" || s.Arg != sc.devVar {
			v.errs.add(ErrUnknownDeviceVar, s.ArgPos, "unknown device variable %q (no enclosing foreach binds it)", s.Arg)
		} else if sc.devClass != entry.Class {
			v.errs.add(ErrDeviceClassMismatch, s.ArgPos, "task %q wants a %s device but %q ranges over %ss", s.Name, entry.Class, s.Arg, sc.devClass)
		}
	}
}

func (v *validator) checkCond(c Cond, sc scope) {
	if c.Prop == "" {
		if !flowConds[c.Name] {
			v.errs.add(ErrUnknownCondition, c.NamePos, "unknown condition %q (want sharing, informed, uninformed, or <var>.<property>)", c.Name)
		}
		return
	}
	if sc.inDef {
		v.errs.add(ErrDeviceRefInDef, c.NamePos, "defs may not reference device variables (%q): defs inline outside any foreach", c.Name)
		return
	}
	if sc.devVar == "" || c.Name != sc.devVar {
		v.errs.add(ErrCondOutsideForeach, c.NamePos, "device condition %q needs an enclosing foreach binding %q", c, c.Name)
		return
	}
	if !deviceProps[sc.devClass][c.Prop] {
		v.errs.add(ErrUnknownDeviceProp, c.PropPos, "unknown %s device property %q", sc.devClass, c.Prop)
	}
}

func (v *validator) checkBranch(s *BranchStmt, sc scope) {
	strat := s.Strategy
	if !strategyNames[strat.Name] {
		v.errs.add(ErrUnknownStrategy, strat.Pos, "unknown strategy %q (want auto, informed, or all)", strat.Name)
	}
	argSeen := map[string]Pos{}
	for _, a := range strat.Args {
		if !strategyArgKeys[a.Key] {
			v.errs.add(ErrBadStrategyArg, a.KeyPos, "unknown strategy argument %q (want ai-threshold or transfer-bw)", a.Key)
			continue
		}
		if prev, ok := argSeen[a.Key]; ok {
			v.errs.add(ErrBadStrategyArg, a.KeyPos, "duplicate strategy argument %q (first at %s)", a.Key, prev)
			continue
		}
		argSeen[a.Key] = a.KeyPos
		if a.Val <= 0 {
			v.errs.add(ErrBadStrategyArg, a.ValPos, "strategy argument %s must be positive, got %g", a.Key, a.Val)
		}
		if strat.Name == "all" {
			v.errs.add(ErrBadStrategyArg, a.KeyPos, "strategy all takes no arguments")
		}
	}
	if s.HasRev && s.Revisions < 1 {
		v.errs.add(ErrBadSetting, s.RevPos, "revisions must be at least 1, got %d", s.Revisions)
	}

	if len(s.Arms) == 0 {
		v.errs.add(ErrEmptyBranch, s.KwPos, "branch %q has no paths", s.Name)
	}

	informed := strat.Name == "auto" || strat.Name == "informed"
	pathNames := map[string]Pos{}
	for _, arm := range s.Arms {
		switch a := arm.(type) {
		case *PathArm:
			if prev, ok := pathNames[a.Name]; ok {
				v.errs.add(ErrDuplicatePath, a.NamePos, "duplicate path %q in branch %q (first at %s)", a.Name, s.Name, prev)
			} else {
				pathNames[a.Name] = a.NamePos
			}
			if len(a.Body) == 0 {
				v.errs.add(ErrEmptyPath, a.KwPos, "path %q has no statements", a.Name)
			}
			v.checkStmts(a.Body, sc)
		case *ForeachArm:
			if sc.devVar != "" && !sc.inDef {
				v.errs.add(ErrNestedForeach, a.KwPos, "nested foreach: %q is already bound by an enclosing foreach", sc.devVar)
			}
			class, ok := deviceSets[a.Set]
			if !ok {
				v.errs.add(ErrUnknownDeviceSet, a.SetPos, "unknown device set %q (want gpus or fpgas)", a.Set)
				continue
			}
			if len(a.Body) == 0 {
				v.errs.add(ErrEmptyPath, a.KwPos, "foreach over %q has an empty body", a.Set)
			}
			inner := sc
			inner.devVar, inner.devClass = a.Var, class
			v.checkStmts(a.Body, inner)
		}
	}

	// The informed Fig. 3 selector picks among paths named gpu/fpga/cpu; a
	// branch that routes to it must offer all three or selection fails at
	// run time.
	if informed {
		for _, want := range []string{"gpu", "fpga", "cpu"} {
			if _, ok := pathNames[want]; !ok {
				v.errs.add(ErrInformedNeedsTargets, s.NamePos, "strategy %s on branch %q needs paths named gpu, fpga, and cpu (missing %q)", strat.Name, s.Name, want)
			}
		}
	}
}
