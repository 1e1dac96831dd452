package runtime

import (
	"time"

	"allscale/internal/trace"
)

// CallSpec bundles the delivery policy of one RPC: an overall
// deadline, a per-attempt timeout after which the request frame is
// resent under the same call ID, a retry budget, and an exponential
// backoff cap. The zero CallSpec is "fire once, wait forever" — the
// exact pre-existing semantics, so untouched call sites pay nothing.
//
// Retried calls are at-least-once on the wire. Unless Idempotent is
// set, the request travels under the dedup frame kind, telling the
// server to record the call in its per-caller dedup window and replay
// the cached reply on duplicates, making the handler's side effects
// exactly-once (see dedup.go and DESIGN.md §6d).
type CallSpec struct {
	// Deadline bounds the whole call, across all attempts. 0 = none.
	Deadline time.Duration
	// Attempt is the per-attempt timeout before the request is resent.
	// 0 with Retries > 0 defaults to Deadline/(Retries+1), or 1s when
	// Deadline is also unset.
	Attempt time.Duration
	// Retries is how many times the request may be resent after the
	// first attempt.
	Retries int
	// MaxBackoff caps the attempt timeout as it doubles between
	// resends. 0 = uncapped (bounded by Retries anyway).
	MaxBackoff time.Duration
	// Idempotent marks the handler as safe to re-execute: the server
	// skips reply caching and duplicates may run the handler again.
	// Use it for pure reads and naturally idempotent effects.
	Idempotent bool
	// Parent is the span the call's rpc.call span nests under (0 = a
	// root span). It is not part of the delivery policy: WithSpec
	// replaces it, so WithParent goes after WithSpec.
	Parent trace.SpanID
	// ackOnly is set by AckOnly; a profile cannot carry it.
	ackOnly bool
}

// active reports whether the spec requires supervision (a timer).
func (s CallSpec) active() bool { return s.Deadline > 0 || s.Retries > 0 }

// normalize fills derived defaults.
func (s *CallSpec) normalize() {
	if s.Retries > 0 && s.Attempt <= 0 {
		if s.Deadline > 0 {
			s.Attempt = s.Deadline / time.Duration(s.Retries+1)
		} else {
			s.Attempt = time.Second
		}
		if s.Attempt <= 0 {
			s.Attempt = time.Millisecond
		}
	}
}

// CallOption mutates the CallSpec of one Call/CallAsync invocation.
type CallOption func(*CallSpec)

// WithDeadline bounds the whole call: when it expires the future
// fails with ErrCallTimeout instead of waiting forever.
func WithDeadline(d time.Duration) CallOption {
	return func(s *CallSpec) { s.Deadline = d }
}

// WithRetries resends the request up to n times, waiting attempt
// (doubling, capped by WithMaxBackoff) before each resend.
func WithRetries(n int, attempt time.Duration) CallOption {
	return func(s *CallSpec) { s.Retries = n; s.Attempt = attempt }
}

// WithMaxBackoff caps the doubling per-attempt timeout.
func WithMaxBackoff(d time.Duration) CallOption {
	return func(s *CallSpec) { s.MaxBackoff = d }
}

// WithIdempotent marks the call's handler as safe to re-execute, so
// the server need not cache the reply for duplicate suppression.
func WithIdempotent() CallOption {
	return func(s *CallSpec) { s.Idempotent = true }
}

// WithSpec applies a whole CallSpec at once — the usual way to pass a
// locality's control- or data-plane profile to a call site.
func WithSpec(spec CallSpec) CallOption {
	return func(s *CallSpec) { *s = spec }
}

// WithParent nests the call's rpc.call span under the given span — the
// dim.acquire span for the transfers an acquisition issues.
func WithParent(parent trace.SpanID) CallOption {
	return func(s *CallSpec) { s.Parent = parent }
}

// AckOnly marks a call whose caller never reads the reply body: its
// future says only whether the handler ran. On success the server sends
// no reply frame; the call's ID rides on a later frame (acks.go). Like
// WithParent it goes after WithSpec.
func AckOnly() CallOption {
	return func(s *CallSpec) { s.ackOnly = true }
}

// CallProfile is a locality-wide pair of default delivery policies:
// Control for small metadata RPCs (DIM bookkeeping, scheduler ships,
// recovery probes) and Data for bulk fragment transfers. Call sites
// opt in via WithSpec(loc.ControlSpec()) etc.; plain Call/CallAsync
// invocations without options are never affected.
type CallProfile struct {
	Control CallSpec
	Data    CallSpec
}

// DefaultCallProfile bounds control-plane calls (30s deadline, 5
// resends) and leaves the data plane unbounded, preserving the
// historical semantics of large transfers on slow links.
func DefaultCallProfile() CallProfile {
	return CallProfile{
		Control: CallSpec{Deadline: 30 * time.Second, Attempt: 5 * time.Second, Retries: 5},
	}
}

// SetCallProfile replaces the locality's default delivery policies.
// Install it before traffic starts (alongside SetTracer).
func (l *Locality) SetCallProfile(p CallProfile) { l.profile.Store(&p) }

// ControlSpec returns the control-plane delivery policy.
func (l *Locality) ControlSpec() CallSpec { return l.profile.Load().Control }

// DataSpec returns the data-plane delivery policy.
func (l *Locality) DataSpec() CallSpec { return l.profile.Load().Data }
