package interp_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
)

// TestDispatchCounts runs each bundled application once on the VM, on its
// bundled workload. scripts/dispatch.sh profiles this test, one
// application per process under -covermode=count, and reads from the
// profile how often each clause of the dispatch loop ran: that is
// testdata/dispatch.golden, which `scripts/dispatch.sh -check` compares.
// Without coverage the test checks the part of the fixture the VM counts
// itself, the total number of dispatches (interp.bytecode.instructions);
// under coverage it only runs, so that a stale fixture can be rewritten.
func TestDispatchCounts(t *testing.T) {
	profiled := testing.CoverMode() != ""
	var want map[string]int64
	if !profiled {
		want = goldenTotals(t, "testdata/dispatch.golden")
	}
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			ctrs := mapCounters{}
			if _, err := interp.Run(b.Parse(), interp.Config{
				Entry: b.Entry, Args: b.MakeArgs(), Counters: ctrs,
			}); err != nil {
				t.Fatal(err)
			}
			if profiled {
				return
			}
			w, ok := want[b.Name]
			if !ok {
				t.Fatalf("dispatch.golden has no %s section (regenerate with scripts/dispatch.sh)", b.Name)
			}
			if got := ctrs[interp.CounterBCInstrs]; got != w {
				t.Errorf("%s dispatched %d instructions, dispatch.golden says %d", b.Name, got, w)
			}
		})
	}
}

// goldenTotals reads the `total` line of each `app` section of the fixture.
func goldenTotals(t *testing.T, path string) map[string]int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	totals := map[string]int64{}
	app := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 2 && fields[0] == "app":
			app = fields[1]
		case len(fields) == 2 && fields[0] == "total":
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			totals[app] = n
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return totals
}
