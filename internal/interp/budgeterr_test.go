package interp_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
)

// budgetErrFixture holds, for each bundled application and a fixed set of
// step budgets, the error each engine reports when the budget runs out:
// its line:col and message. The VM batches an instruction's steps into one
// check and replays them one by one only when the batch crosses the
// budget, reading the positions its lowering recorded for the statements
// and expressions around the instruction; this is where a position the
// lowering records wrongly shows. It is frozen: a change to it is a
// change to what a failed job reports, made by hand.
const budgetErrFixture = "testdata/budgeterr.golden"

// budgetSweepDense is the budget up to which every budget is tried; past
// it, budgetSweepSpread budgets spread to the application's step total.
const (
	budgetSweepDense  = 2000
	budgetSweepSpread = 8
)

// budgetSweep returns the budgets tried on an application of total steps:
// every budget up to budgetSweepDense, then budgetSweepSpread budgets
// spread evenly to total, each moved by a small odd offset so that the
// sweep does not land on one loop phase, then total itself (no error).
func budgetSweep(total int64) []int64 {
	var out []int64
	for b := int64(1); b <= budgetSweepDense && b < total; b++ {
		out = append(out, b)
	}
	if total > budgetSweepDense {
		span := total - budgetSweepDense
		for k := int64(1); k < budgetSweepSpread; k++ {
			b := budgetSweepDense + span*k/budgetSweepSpread + (k*7919)%97
			if b > out[len(out)-1] && b < total {
				out = append(out, b)
			}
		}
	}
	return append(out, total)
}

// budgetOutcome is one engine's answer to a budget: "ok" when the run
// finished, else the runtime error's line:col and message.
func budgetOutcome(err error) string {
	if err == nil {
		return "ok"
	}
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		return "error " + err.Error()
	}
	return re.Pos.String() + " " + re.Msg
}

// budgetErrTable runs every application on its bundled workload under
// each budget of its sweep on both engines, the applications beside each
// other. A line is the budget, then the position and message when the
// engines agree, or both engines' answers, `vm` first, when they do not.
func budgetErrTable(t *testing.T) string {
	apps := bench.All()
	sections := make([]strings.Builder, len(apps))
	t.Run("apps", func(t *testing.T) {
		for i, b := range apps {
			sb := &sections[i]
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				prog := b.Parse()
				full, err := interp.Run(prog, interp.Config{Entry: b.Entry, Args: b.MakeArgs(), TreeWalk: true})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(sb, "app %s steps %d\n", b.Name, full.Steps)
				for _, budget := range budgetSweep(full.Steps) {
					_, vmErr := interp.Run(prog, interp.Config{Entry: b.Entry, Args: b.MakeArgs(), MaxSteps: budget})
					_, twErr := interp.Run(prog, interp.Config{Entry: b.Entry, Args: b.MakeArgs(), MaxSteps: budget, TreeWalk: true})
					if vm, tw := budgetOutcome(vmErr), budgetOutcome(twErr); vm == tw {
						fmt.Fprintf(sb, "%d %s\n", budget, vm)
					} else {
						fmt.Fprintf(sb, "%d vm %s | tw %s\n", budget, vm, tw)
					}
				}
			})
		}
	})
	var out strings.Builder
	for i := range sections {
		out.WriteString(sections[i].String())
	}
	return out.String()
}

// TestBudgetErrorFixture: under every budget of each application's sweep,
// both engines report the error the fixture holds, at its position.
func TestBudgetErrorFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every application about 4 000 times")
	}
	got := budgetErrTable(t)
	want, err := os.ReadFile(budgetErrFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %q\nwant %q", budgetErrFixture, i+1, g, w)
			if bad++; bad == 20 {
				t.Fatal("more lines differ")
			}
		}
	}
}
