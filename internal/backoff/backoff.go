// Package backoff provides a reusable randomized exponential backoff
// timer for idle/retry loops (DESIGN.md §6e): waits grow from a base
// to a max, each drawn uniformly from [cur/2, 3·cur/2) so independent
// retriers decorrelate instead of stampeding in lockstep.
package backoff

import (
	"fmt"
	"math/rand"
	"time"
)

// Timer is a reusable backoff state machine. It is not safe for
// concurrent use; each retry loop owns one.
type Timer struct {
	base, max, cur time.Duration
	seed           int64
	rng            *rand.Rand // seeded by the first draw: most timers never back off
	timer          *time.Timer
}

// New returns a timer backing off from base to max. seed makes the
// jitter sequence deterministic (tests, chaos replay); distinct
// retriers should use distinct seeds.
func New(base, max time.Duration, seed int64) *Timer {
	if base <= 0 || max < base {
		panic(fmt.Sprintf("backoff: need 0 < base <= max, got %v..%v", base, max))
	}
	return &Timer{base: base, max: max, cur: base, seed: seed}
}

// Reset rewinds the backoff to its base delay (call after progress).
func (b *Timer) Reset() { b.cur = b.base }

// Saturate moves the backoff to its max delay: the state of a retrier
// that has no reason yet to expect progress.
func (b *Timer) Saturate() { b.cur = b.max }

// next draws the jittered current delay and doubles the backoff.
func (b *Timer) next() time.Duration {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.seed))
	}
	d := b.cur/2 + time.Duration(b.rng.Int63n(int64(b.cur)))
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	return d
}

// Arm starts (or restarts) the underlying timer with the next
// jittered delay and returns its channel for use in a select. Exactly
// one of "the channel fired" or Disarm(false) must follow before the
// next Arm.
func (b *Timer) Arm() <-chan time.Time {
	d := b.next()
	if b.timer == nil {
		b.timer = time.NewTimer(d)
	} else {
		b.timer.Reset(d)
	}
	return b.timer.C
}

// Disarm stops an armed timer; fired reports whether its channel was
// received from. It drains the channel when necessary so a stale tick
// cannot leak into the next Arm cycle.
func (b *Timer) Disarm(fired bool) {
	if b.timer == nil || fired {
		return
	}
	if !b.timer.Stop() {
		<-b.timer.C
	}
}
