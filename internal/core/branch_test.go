package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"psaflow/internal/faults"
	"psaflow/internal/telemetry"
)

// outcome is what running one branch path does in the branch-walk tests.
type outcome int

const (
	pathOK     outcome = iota // stamps the design, cost within budget
	pathOver                  // stamps the design, cost over budget
	pathFault                 // fails with a degradable (non-transient device) fault
	pathBroken                // fails with a plain error: never degradable
)

// branchCase is one branch point: what the strategy offers, what each
// path does, and which of the engine's two feedback edges are live.
type branchCase struct {
	outcomes  []outcome // per path
	alts      [][]int   // the strategy's preference list
	gated     bool
	resilient bool
	parallel  bool
	maxRev    int // 0 = the engine's default
}

func pathName(i int) string { return string(rune('a' + i)) }

// branchWant is what a walk over a branchCase must produce.
type branchWant struct {
	leaves    []string // path name per survivor, "!"+name per failure verdict, "" for the unmodified design
	err       string   // substring of the branch's error, "" for success
	markers   []string // the "revision N" / "fallback N" trace lines on the input design, in order
	revisions int64
	fallbacks int64
	forks     int64
}

// modelBranch is the reference model of runBranch: the same walk, over
// names and counters instead of designs, spans and events.
func modelBranch(c branchCase) branchWant {
	var w branchWant
	maxRev := c.maxRev
	if maxRev <= 0 {
		maxRev = 4
	}
	for _, alt := range c.alts {
		if len(alt) > 1 || c.gated || c.resilient {
			w.forks += int64(len(alt))
		}
		var out []string
		failed, over := 0, true
		for _, i := range alt {
			switch o := c.outcomes[i]; {
			case o == pathBroken || o == pathFault && !c.resilient:
				return branchWant{err: "stamp-" + pathName(i), markers: w.markers,
					revisions: w.revisions, fallbacks: w.fallbacks, forks: w.forks}
			case o == pathFault:
				w.leaves = append(w.leaves, "!"+pathName(i))
				failed++
				over = false
			default:
				out = append(out, pathName(i))
				over = over && c.gated && o == pathOver
			}
		}
		switch {
		case failed == len(alt) && len(alt) > 1:
			w.leaves, w.err = nil, fmt.Sprintf("all %d selected paths failed", failed)
			return w
		case failed == 1 && len(alt) == 1:
			w.fallbacks++
			w.markers = append(w.markers, fmt.Sprintf("fallback %d", w.fallbacks))
		case !over:
			w.leaves = append(w.leaves, out...)
			return w
		case w.revisions == int64(maxRev):
			w.leaves, w.err = nil, fmt.Sprintf("exhausted %d revisions", maxRev)
			return w
		default:
			w.revisions++
			w.markers = append(w.markers, fmt.Sprintf("revision %d", w.revisions))
		}
	}
	w.leaves = append(w.leaves, "")
	return w
}

// runBranchCase drives the engine over c and reports what it did in the
// model's vocabulary, plus how often the strategy was consulted.
func runBranchCase(t *testing.T, c branchCase) (got branchWant, selects int) {
	t.Helper()
	b := Branch{PointName: "X", Gated: c.gated, MaxRevisions: c.maxRev,
		Select: SelectorFunc{SelName: "scripted",
			Fn: func(*Context, *Design, []Path) ([]Alternative, error) {
				selects++
				alts := make([]Alternative, len(c.alts))
				for k, a := range c.alts {
					alts[k].Paths = a
				}
				return alts, nil
			}}}
	for i, o := range c.outcomes {
		name, o := pathName(i), o
		f := &Flow{Name: name}
		f.AddTask(TaskFunc{TaskName: "stamp-" + name, TaskKind: Transform,
			Fn: func(_ *Context, d *Design) error {
				switch o {
				case pathFault:
					return deviceFault(name)
				case pathBroken:
					return errors.New("broken")
				}
				d.Device = name
				return nil
			}})
		b.Paths = append(b.Paths, Path{Name: name, Flow: f})
	}
	rec := telemetry.New()
	ctx := &Context{Telemetry: rec, Parallel: c.parallel, Budget: 10,
		Cost: func(d *Design) float64 {
			if c.outcomes[d.Device[0]-'a'] == pathOver {
				return 100
			}
			return 1
		}}
	if c.resilient {
		ctx.Faults, ctx.Retry = faults.New(1, 1), fastRetry // as resilientCtx: enabled, never consulted
	}
	flow := &Flow{Name: "model"}
	flow.AddBranch(b)
	in := newTestDesign()
	out, err := flow.Run(ctx, in)
	if err != nil {
		got.err = err.Error()
	}
	for _, d := range out {
		switch {
		case d.Infeasible != "":
			got.leaves = append(got.leaves, "!"+strings.SplitN(d.Infeasible, `"`, 3)[1])
		default:
			got.leaves = append(got.leaves, d.Device)
		}
	}
	for _, ev := range in.Trace {
		if ev.Kind() == "branch" && (strings.HasPrefix(ev.Detail(), "revision ") || strings.HasPrefix(ev.Detail(), "fallback ")) {
			got.markers = append(got.markers, strings.SplitN(ev.Detail(), ":", 2)[0])
		}
	}
	got.revisions = rec.Counter(telemetry.CounterBudgetRevisions)
	got.fallbacks = rec.Counter(telemetry.CounterFaultFallbacks)
	got.forks = rec.Counter(telemetry.CounterDesignsForked)
	return got, selects
}

func checkBranchCase(t *testing.T, label string, c branchCase) {
	t.Helper()
	want := modelBranch(c)
	got, selects := runBranchCase(t, c)
	if selects != 1 {
		t.Errorf("%s: strategy consulted %d times, want 1", label, selects)
	}
	if !strings.Contains(got.err, want.err) || (want.err == "") != (got.err == "") {
		t.Errorf("%s: error %q, want %q\ncase %+v", label, got.err, want.err, c)
	}
	got.err = want.err
	if !slices.Equal(got.leaves, want.leaves) || !slices.Equal(got.markers, want.markers) ||
		got.revisions != want.revisions || got.fallbacks != want.fallbacks || got.forks != want.forks {
		t.Errorf("%s:\n got %+v\nwant %+v\ncase %+v", label, got, want, c)
	}
}

// TestBranchModel checks runBranch against modelBranch: a few named
// walks, then fixed seeds of random preference lists × per-path outcomes
// (ok, over budget, degradable fault, hard error) × gated × resilient.
func TestBranchModel(t *testing.T) {
	over4 := []outcome{pathOver, pathOver, pathOver, pathOver}
	named := map[string]branchCase{
		// Four over-budget choices, two revisions allowed: three paths run,
		// then the walk gives up although a fourth is on offer.
		"max-revisions": {outcomes: over4, alts: [][]int{{0}, {1}, {2}, {3}}, gated: true, maxRev: 2},
		// One over-budget choice and no second: the flow terminates
		// unspecialized, it does not fail.
		"budget-runs-out-of-alternatives": {outcomes: over4[:1], alts: [][]int{{0}}, gated: true, maxRev: 2},
		"fallback-to-third": {outcomes: []outcome{pathFault, pathFault, pathOK},
			alts: [][]int{{0}, {1}, {2}}, resilient: true},
		"every-choice-faults": {outcomes: []outcome{pathFault, pathFault, pathFault},
			alts: [][]int{{0}, {1}, {2}}, resilient: true},
		"revision-then-fallback": {outcomes: []outcome{pathOver, pathFault, pathOK},
			alts: [][]int{{0}, {1}, {2}}, gated: true, resilient: true},
		"terminate": {outcomes: []outcome{pathOK}},
	}
	for label, c := range named {
		checkBranchCase(t, label, c)
	}
	if w := modelBranch(named["max-revisions"]); w.err != "exhausted 2 revisions" || w.forks != 3 {
		t.Errorf("max-revisions: model says %+v, want three runs and exhaustion", w)
	}
	if w := modelBranch(named["every-choice-faults"]); !slices.Equal(w.leaves, []string{"!a", "!b", "!c", ""}) || w.fallbacks != 3 {
		t.Errorf("every-choice-faults: model says %+v", w)
	}

	seen := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n < 500; n++ {
			c := branchCase{gated: rng.Intn(2) == 0, resilient: rng.Intn(2) == 0,
				parallel: rng.Intn(2) == 0, maxRev: rng.Intn(3)}
			for i, k := 0, 1+rng.Intn(5); i < k; i++ {
				// Mostly ok / over / fault; a hard error now and then.
				o := outcome(rng.Intn(3))
				if rng.Intn(8) == 0 {
					o = pathBroken
				}
				c.outcomes = append(c.outcomes, o)
			}
			// A random subset of the paths in random order, cut into
			// alternatives of one path mostly, several sometimes.
			order := rng.Perm(len(c.outcomes))[:rng.Intn(len(c.outcomes)+1)]
			for len(order) > 0 {
				k := 1
				if rng.Intn(3) == 0 {
					k = 1 + rng.Intn(len(order))
				}
				c.alts, order = append(c.alts, order[:k]), order[k:]
			}
			checkBranchCase(t, fmt.Sprintf("seed %d case %d", seed, n), c)
			w := modelBranch(c)
			switch {
			case strings.HasPrefix(w.err, "exhausted"):
				seen["exhausted"]++
			case strings.HasPrefix(w.err, "all "):
				seen["all-failed"]++
			case w.err != "":
				seen["aborted"]++
			case w.leaves[len(w.leaves)-1] == "":
				seen["terminated"]++
			default:
				seen["landed"]++
			}
			if w.revisions > 0 && w.fallbacks > 0 {
				seen["revised-and-fell-back"]++
			}
		}
	}
	t.Logf("walks exercised: %v", seen)
	for _, k := range []string{"exhausted", "all-failed", "aborted", "terminated", "landed", "revised-and-fell-back"} {
		if seen[k] == 0 {
			t.Errorf("no random case %s: the generator no longer reaches it", k)
		}
	}
}

// TestSelectCalledOnce: one budget revision plus one fault fallback walk
// three alternatives of a single Select call.
func TestSelectCalledOnce(t *testing.T) {
	c := branchCase{outcomes: []outcome{pathOver, pathFault, pathOK},
		alts: [][]int{{0}, {1}, {2}}, gated: true, resilient: true}
	got, selects := runBranchCase(t, c)
	if selects != 1 {
		t.Errorf("Select called %d times, want 1", selects)
	}
	if got.revisions != 1 || got.fallbacks != 1 || !slices.Equal(got.leaves, []string{"!b", "c"}) {
		t.Errorf("walk = %+v, want one revision, one fallback, landing on c", got)
	}
}

// TestBranchMalformedAlternatives: the engine validates a strategy's list
// once, before any path runs.
func TestBranchMalformedAlternatives(t *testing.T) {
	cases := []struct {
		name string
		alts []Alternative
		want string
	}{
		{"empty alternative", []Alternative{{Paths: []int{0}}, {}}, "empty alternative 1"},
		{"index past the paths", Prefer(0, 2), "invalid path index 2"},
		{"negative index", Prefer(-1), "invalid path index -1"},
		{"twice in one alternative", []Alternative{{Paths: []int{1, 1}}}, "path index 1 twice"},
		{"twice across alternatives", Prefer(0, 1, 0), "path index 0 twice"},
	}
	for _, c := range cases {
		ran := false
		mark := &Flow{Name: "mark"}
		mark.AddTask(TaskFunc{TaskName: "mark", TaskKind: Analysis,
			Fn: func(*Context, *Design) error { ran = true; return nil }})
		flow := &Flow{Name: "malformed"}
		flow.AddBranch(Branch{PointName: "X",
			Paths: []Path{{Name: "a", Flow: mark}, {Name: "b", Flow: mark}},
			Select: SelectorFunc{SelName: "bad",
				Fn: func(*Context, *Design, []Path) ([]Alternative, error) { return c.alts, nil }}})
		_, err := flow.Run(&Context{}, newTestDesign())
		var fe *FlowError
		if !errors.As(err, &fe) || fe.Task != "branch:X" || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a FlowError at branch:X naming %q", c.name, err, c.want)
		}
		if ran {
			t.Errorf("%s: a path ran before the list was rejected", c.name)
		}
	}
}
