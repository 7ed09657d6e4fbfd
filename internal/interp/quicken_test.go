package interp_test

// Differential and concurrency coverage for the profile-guided
// quickening tier (quicken.go / bytecode_exec.go): type-specialized
// opcodes must be bit-for-bit equivalent to generic dispatch on results,
// profiles, buffers, AND error paths (a failed guard deoptimizes and the
// generic form re-raises the identical error), and in-place rewriting
// must stay race-free when concurrent Runs share one program-cache
// image. scripts/ci.sh runs this file under -race.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// runQuickened executes one benchmark app at the given threshold, watching
// the given function (its hotspot loop when watch is "").
func runQuickened(t *testing.T, b *bench.Benchmark, watch string, threshold int, ctrs interp.Counters) (*interp.Result, []*interp.Buffer) {
	t.Helper()
	args := b.MakeArgs()
	res, err := interp.Run(b.Parse(), interp.WithQuickenThreshold(interp.Config{
		Entry: b.Entry, Args: args, Watch: watch, Counters: ctrs,
	}, threshold))
	if err != nil {
		t.Fatalf("threshold %d: %v", threshold, err)
	}
	return res, bufferArgs(args)
}

// TestQuickenEquivalenceBenchmarks runs every bundled benchmark with
// quickening disabled, at the default threshold, and at the most
// aggressive threshold (1: every instruction specializes on its second
// execution), and asserts the entire observable surface matches the
// unquickened run bit-for-bit — watching the entry function, so that every
// quickened access is attributed to a parameter, and watching nothing, so
// that the hotspot loop's scope opens and closes around quickened code.
func TestQuickenEquivalenceBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, watch := range []string{b.Entry, ""} {
				refRes, refBufs := runQuickened(t, b, watch, -1, nil)
				for _, threshold := range []int{0, 1} {
					ctrs := mapCounters{}
					res, bufs := runQuickened(t, b, watch, threshold, ctrs)
					label := fmt.Sprintf("%s/watch=%q/threshold=%d", b.Name, watch, threshold)
					assertResultsEqual(t, label, refRes, res)
					for i := range refBufs {
						if !reflect.DeepEqual(refBufs[i].I, bufs[i].I) ||
							!reflect.DeepEqual(refBufs[i].F, bufs[i].F) {
							t.Errorf("%s: buffer %s contents differ from unquickened run", label, refBufs[i].Name)
						}
					}
					if ctrs[interp.CounterBCQuickenRewrites] == 0 {
						t.Errorf("%s: no instructions quickened", label)
					}
					if ctrs[interp.CounterBCQuickenDeopts] != 0 {
						t.Errorf("%s: %d unexpected deopts on the well-typed corpus",
							label, ctrs[interp.CounterBCQuickenDeopts])
					}
					if ctrs[interp.CounterBCFallbacks] != 0 {
						t.Errorf("%s: VM fell back to the tree-walker", label)
					}
				}
			}
		})
	}
}

// TestQuickenErrorEquivalence drives quickened instructions into runtime
// errors AFTER they have specialized — the guard fails, the instruction
// deoptimizes, and the generic form must re-raise the byte-identical
// error the unquickened VM produces. The out-of-bounds cases fail inside
// a loop that has already quickened its indexed load/store, exercising
// the deopt rollback (step and counter rewind) on the error path.
func TestQuickenErrorEquivalence(t *testing.T) {
	mkBuf := func(n int) func() []interp.Value {
		return func() []interp.Value {
			return []interp.Value{interp.BufVal(interp.NewFloatBuffer("a", minic.Double, make([]float64, n)))}
		}
	}
	cases := []struct {
		name string
		src  string
		args func() []interp.Value
		max  int64
	}{
		// a[i] quickens while i < 32, then i = 32 misses the bounds guard.
		{"store-oob-after-quicken",
			`void f(double *a) { for (int i = 0; i < 64; i++) { a[i] = 1.0; } }`,
			mkBuf(32), 0},
		{"load-oob-after-quicken",
			`void f(double *a) { double s = 0.0; for (int i = 0; i < 64; i++) { s = s + a[i]; } }`,
			mkBuf(32), 0},
		{"budget-in-quickened-loop",
			`void f(double *a) { double s = 0.0; for (int i = 0; i < 1000000; i++) { s = s + a[i % 8]; } }`,
			mkBuf(8), 9000},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog := minic.MustParse(c.src)
			errs := map[int]error{}
			for _, threshold := range []int{-1, 1, 8} {
				_, err := interp.Run(prog, interp.WithQuickenThreshold(interp.Config{
					Entry: "f", Args: c.args(), MaxSteps: c.max,
				}, threshold))
				if err == nil {
					t.Fatalf("threshold %d: expected an error", threshold)
				}
				errs[threshold] = err
			}
			for _, threshold := range []int{1, 8} {
				if errs[-1].Error() != errs[threshold].Error() {
					t.Errorf("error differs at threshold %d:\nunquickened: %v\nquickened:   %v",
						threshold, errs[-1], errs[threshold])
				}
			}
		})
	}
}

// TestQuickenConcurrentSharedProgram hammers one program-cache image from
// many goroutines: leases are exclusive, so in-place quickening must stay
// race-free while every run still observes a progressively-quickened
// program. Run under -race by scripts/ci.sh; all results must match a
// serial unquickened reference.
func TestQuickenConcurrentSharedProgram(t *testing.T) {
	src := `
double f(double *a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s + a[i] * a[i] + sqrt(a[i]);
    }
    return s;
}
`
	prog := minic.MustParse(src)
	mkArgs := func() []interp.Value {
		data := make([]float64, 256)
		for i := range data {
			data[i] = float64(i%7) + 0.5
		}
		return []interp.Value{
			interp.BufVal(interp.NewFloatBuffer("a", minic.Double, data)),
			interp.IntVal(int64(len(data))),
		}
	}
	ref, err := interp.Run(prog, interp.WithQuickenThreshold(interp.Config{Entry: "f", Args: mkArgs()}, -1))
	if err != nil {
		t.Fatal(err)
	}

	progs := interp.NewProgramCache()
	fp := minic.Fingerprint(prog)
	const workers, runsPer = 8, 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers*runsPer)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsPer; r++ {
				res, err := interp.Run(prog, interp.WithQuickenThreshold(interp.Config{
					Entry: "f", Args: mkArgs(), Progs: progs, Fingerprint: fp,
				}, 1))
				if err != nil {
					errCh <- err
					return
				}
				if res.Ret.AsFloat() != ref.Ret.AsFloat() || res.Steps != ref.Steps {
					errCh <- fmt.Errorf("concurrent run diverged: ret %v steps %d, want %v / %d",
						res.Ret.AsFloat(), res.Steps, ref.Ret.AsFloat(), ref.Steps)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if progs.Len() != 1 {
		t.Errorf("program cache holds %d entries, want 1", progs.Len())
	}
}
