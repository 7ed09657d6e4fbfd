package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// The cache is bounded: past runCacheCap distinct keys the oldest entry
// goes, and its key runs again when next asked for.
func TestRunCacheBoundedFIFO(t *testing.T) {
	c := NewRunCache()
	runs := 0
	do := func(fp uint64) (hit bool) {
		_, _, hit = c.Do(RunKey{Fingerprint: fp, Workload: "w", Entry: "main"}, func() (*interp.Result, error) {
			runs++
			return &interp.Result{Steps: int64(fp)}, nil
		})
		return hit
	}
	const extra = 50
	for fp := uint64(0); fp < runCacheCap+extra; fp++ {
		if do(fp) {
			t.Fatalf("first request of key %d was a hit", fp)
		}
	}
	if n := c.Len(); n != runCacheCap {
		t.Errorf("Len after %d distinct keys = %d, want %d", runCacheCap+extra, n, runCacheCap)
	}
	if !do(runCacheCap + extra - 1) {
		t.Error("the newest key was evicted")
	}
	if !do(extra) {
		t.Errorf("key %d, the oldest inside the window, was evicted", extra)
	}
	before := runs
	if do(0) || runs != before+1 {
		t.Errorf("the oldest key did not execute again after its eviction (runs %d -> %d)", before, runs)
	}
	if n := c.Len(); n != runCacheCap {
		t.Errorf("Len after re-inserting an evicted key = %d, want %d", n, runCacheCap)
	}
}

// A key evicted while its run is in flight still runs exactly once for the
// callers already waiting on it: eviction deletes the map slot, not the
// entry they hold. A caller that arrives after the eviction runs for itself.
func TestRunCacheEvictionDuringRun(t *testing.T) {
	c := NewRunCache()
	key := RunKey{Fingerprint: 1 << 40, Workload: "w", Entry: "main"}
	first := &interp.Result{Steps: 7}
	var firstRuns atomic.Int64
	var late atomic.Bool // a waiter missed the entry and cached its own
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(key, func() (*interp.Result, error) {
			firstRuns.Add(1)
			close(started)
			<-release
			return first, nil
		})
	}()
	<-started
	const waiters = 4
	entered := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered <- struct{}{}
			own := &interp.Result{Steps: 8}
			res, err, hit := c.Do(key, func() (*interp.Result, error) { return own, nil })
			if !hit {
				late.Store(true)
			}
			if err != nil || (hit && res != first) || (!hit && res != own) {
				t.Errorf("waiter got (%p, %v, hit=%t), want the in-flight run's result %p as a hit or its own %p as a miss", res, err, hit, first, own)
			}
		}()
	}
	for i := 0; i < waiters; i++ {
		<-entered
	}
	time.Sleep(10 * time.Millisecond) // let them reach the Once
	// Push the in-flight key out of the window.
	for fp := uint64(0); fp < runCacheCap; fp++ {
		c.Do(RunKey{Fingerprint: fp, Workload: "w", Entry: "main"}, func() (*interp.Result, error) {
			return &interp.Result{}, nil
		})
	}
	close(release)
	wg.Wait()
	if n := firstRuns.Load(); n != 1 {
		t.Errorf("the in-flight run executed %d times, want 1", n)
	}
	if _, _, hit := c.Do(key, func() (*interp.Result, error) { return first, nil }); hit && !late.Load() {
		t.Error("a key evicted mid-run was still cached afterwards")
	}
}
