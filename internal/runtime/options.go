package runtime

import (
	"time"

	"allscale/internal/trace"
)

// CallSpec bundles the delivery policy of one RPC. Delivery itself is
// the link's (link.go): a request is resent until the peer acks it and
// runs once, so what a call chooses is only how long it waits for its
// answer. The zero CallSpec waits until the answer comes or the peer
// fails.
type CallSpec struct {
	// Deadline bounds the call: once it passes the future fails with
	// ErrCallTimeout. 0 = none.
	Deadline time.Duration
	// Parent is the span the call's rpc.call span nests under (0 = a
	// root span). It is not part of the delivery policy: WithSpec
	// replaces it, so WithParent goes after WithSpec.
	Parent trace.SpanID
	// ackOnly is set by AckOnly; a profile cannot carry it.
	ackOnly bool
}

// CallOption sets part of the CallSpec of one Call/CallAsync
// invocation. It is a value, not a function, so that applying it lets
// nothing escape to the heap.
type CallOption struct {
	set  uint8 // which of the setters below made it
	d    time.Duration
	spec CallSpec
}

const (
	setDeadline = iota
	setRetries
	setSpec
	setParent
	setAckOnly
)

func (o CallOption) apply(s *CallSpec) {
	switch o.set {
	case setDeadline:
		s.Deadline = o.d
	case setRetries:
		if s.Deadline == 0 {
			s.Deadline = o.d
		}
	case setSpec:
		*s = o.spec
	case setParent:
		s.Parent = o.spec.Parent
	case setAckOnly:
		s.ackOnly = true
	}
}

// WithDeadline bounds the whole call: when it expires the future
// fails with ErrCallTimeout instead of waiting forever.
func WithDeadline(d time.Duration) CallOption {
	return CallOption{set: setDeadline, d: d}
}

// WithRetries bounds a call that has no deadline by n+1 intervals of
// attempt: the deadline it sets is (n+1)·attempt. Resending is the
// link's, not the call's — a call with a deadline already keeps it.
func WithRetries(n int, attempt time.Duration) CallOption {
	return CallOption{set: setRetries, d: time.Duration(n+1) * attempt}
}

// WithSpec applies a whole CallSpec at once — the usual way to pass a
// locality's control- or data-plane profile to a call site.
func WithSpec(spec CallSpec) CallOption {
	return CallOption{set: setSpec, spec: spec}
}

// WithParent nests the call's rpc.call span under the given span — the
// dim.acquire span for the transfers an acquisition issues.
func WithParent(parent trace.SpanID) CallOption {
	return CallOption{set: setParent, spec: CallSpec{Parent: parent}}
}

// AckOnly marks a call whose caller never reads the reply body: its
// future says only whether the handler ran. On success the server sends
// no reply frame: the link's ack, which passes the request once its
// handler has returned, answers it (link.go). Like WithParent it goes
// after WithSpec.
func AckOnly() CallOption { return CallOption{set: setAckOnly} }

// CallProfile is a locality-wide pair of default delivery policies:
// Control for small metadata RPCs (DIM bookkeeping, scheduler ships,
// recovery probes) and Data for bulk fragment transfers. Call sites
// opt in via WithSpec(loc.ControlSpec()) etc.; plain Call/CallAsync
// invocations without options are never affected.
type CallProfile struct {
	Control CallSpec
	Data    CallSpec
}

// DefaultCallProfile bounds control-plane calls by a 30s deadline and
// leaves the data plane unbounded: a large transfer on a slow link
// waits as long as it takes.
func DefaultCallProfile() CallProfile {
	return CallProfile{Control: CallSpec{Deadline: 30 * time.Second}}
}

// SetCallProfile replaces the locality's default delivery policies.
// Install it before traffic starts (alongside SetTracer).
func (l *Locality) SetCallProfile(p CallProfile) { l.profile.Store(&p) }

// ControlSpec returns the control-plane delivery policy.
func (l *Locality) ControlSpec() CallSpec { return l.profile.Load().Control }

// DataSpec returns the data-plane delivery policy.
func (l *Locality) DataSpec() CallSpec { return l.profile.Load().Data }
