package faults

import (
	"context"
	"time"
)

// RetryPolicy tunes per-operation retries: exponential backoff with
// deterministic jitter, a per-operation attempt cap, and a shared retry
// budget that bounds the total extra work one flow (or one service job)
// may spend recovering from faults. The zero value means "use defaults"
// — call WithDefaults before reading fields.
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation, including the first
	// (default 6 — see docs/FAULTS.md for the chaos-rate math).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry (default
	// 2ms; the substrates are simulated, so delays stay test-friendly).
	BaseDelay time.Duration
	// MaxDelay caps the post-jitter delay (default 50ms).
	MaxDelay time.Duration
	// Multiplier grows the delay per retry (default 2).
	Multiplier float64
	// Jitter is the +/- fraction applied to each delay (default 0.5, i.e.
	// a delay lands uniformly in [0.5d, 1.5d)). Jitter draws are a pure
	// function of (Seed, op, attempt), so a fixed seed fixes the schedule.
	Jitter float64
	// Budget bounds the total retries across all operations sharing one
	// budget tracker (a flow run, a service job); 0 means unlimited.
	Budget int
	// Seed fixes the jitter stream (default 1).
	Seed int64
}

// DefaultRetry is the policy applied when faults are enabled and nothing
// overrides it.
var DefaultRetry = RetryPolicy{
	MaxAttempts: 6,
	BaseDelay:   2 * time.Millisecond,
	MaxDelay:    50 * time.Millisecond,
	Multiplier:  2,
	Jitter:      0.5,
	Budget:      256,
	Seed:        1,
}

// WithDefaults fills unset fields from DefaultRetry. Negative Budget means
// "explicitly unlimited" and maps to 0.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	d := DefaultRetry
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter <= 0 {
		p.Jitter = d.Jitter
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Budget == 0 {
		p.Budget = d.Budget
	}
	if p.Budget < 0 {
		p.Budget = 0
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// Delay returns the backoff before retry number retry (1-based: the delay
// after the first failed attempt is Delay(op, 1)). Deterministic: fixed
// (Seed, op, retry) gives a fixed duration.
func (p RetryPolicy) Delay(op string, retry int) time.Duration {
	p = p.WithDefaults()
	if retry < 1 {
		retry = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	// Uniform jitter in [1-J, 1+J) from the deterministic unit hash.
	u := unitHash(p.Seed, "backoff|"+op, int64(retry))
	d *= 1 - p.Jitter + 2*p.Jitter*u
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Sleep blocks for the given backoff, returning early with ctx.Err() if
// the context lands first. A nil ctx never interrupts.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn with the policy's retry loop: transient failures are retried
// with backoff until success, attempt exhaustion, a non-transient error,
// or ctx cancellation. onRetry (optional) observes each scheduled retry —
// the daemon's store writes and the cluster's peer calls log theirs
// through it. The flow engine does not use Do: core's runTask keeps its own
// loop, because each retry there also draws on the flow-wide retry budget
// and is emitted and noted on the task's span. The returned error is fn's
// last error, unwrapped-compatible with the Fault chain.
func (p RetryPolicy) Do(ctx context.Context, op string, onRetry func(retry int, delay time.Duration, err error), fn func() error) error {
	p = p.WithDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !Transient(err) || attempt >= p.MaxAttempts {
			return err
		}
		if ctx != nil && ctx.Err() != nil {
			return err
		}
		delay := p.Delay(op, attempt)
		if onRetry != nil {
			onRetry(attempt, delay, err)
		}
		if serr := Sleep(ctx, delay); serr != nil {
			return err
		}
	}
}
