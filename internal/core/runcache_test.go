package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"psaflow/internal/interp"
)

// A run that panics must not poison its key: the panic reaches the caller
// that ran it, and the next caller runs again instead of being handed the
// spent entry's (nil, nil) as a hit.
func TestRunCachePanicDoesNotPoisonKey(t *testing.T) {
	c := NewRunCache()
	key := RunKey{Fingerprint: 1, Workload: "w", Entry: "main", Watch: "main"}
	calls := 0
	run := func() (*interp.Result, error) {
		calls++
		if calls == 1 {
			panic("library corner")
		}
		return &interp.Result{Steps: 7}, nil
	}
	func() {
		defer func() {
			if r := recover(); r != "library corner" {
				t.Errorf("recovered %v, want the run's own panic", r)
			}
		}()
		c.Do(key, run)
		t.Error("Do returned after its run panicked")
	}()
	if n := c.Len(); n != 0 {
		t.Errorf("entries after the panic = %d, want 0", n)
	}
	res, err, hit := c.Do(key, run)
	if err != nil || hit || res == nil || res.Steps != 7 {
		t.Fatalf("second Do = (%v, %v, hit=%t), want a fresh successful run", res, err, hit)
	}
	if res, err, hit = c.Do(key, run); err != nil || !hit || res.Steps != 7 || calls != 2 {
		t.Errorf("third Do = (%v, %v, hit=%t) after %d runs, want the memoized result", res, err, hit, calls)
	}
}

// A caller that shares the entry of a run that panics — it was already
// waiting on the Once — gets an error naming what happened; one that
// arrives after the drop runs for itself. Neither is handed (nil, nil).
func TestRunCachePanicFailsConcurrentWaiter(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := NewRunCache()
		key := RunKey{Fingerprint: 2, Workload: "w", Entry: "main", Watch: "main"}
		started := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { recover() }()
			c.Do(key, func() (*interp.Result, error) {
				close(started)
				runtime.Gosched() // let the waiter reach the Once
				panic("library corner")
			})
		}()
		<-started
		res, err, _ := c.Do(key, func() (*interp.Result, error) {
			return &interp.Result{Steps: 7}, nil
		})
		wg.Wait()
		switch {
		case err == nil && res != nil && res.Steps == 7: // arrived after the drop
		case res == nil && errors.Is(err, errRunPanicked): // shared the entry
		default:
			t.Fatalf("iteration %d: waiter got (%v, %v)", i, res, err)
		}
	}
}
