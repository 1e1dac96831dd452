// Package trace provides low-overhead task-lifecycle tracing for the
// runtime: per-rank tracers record pooled span records for the task
// lifecycle (spawn → split/schedule → data-acquire → exec → complete),
// RPC send/serve pairs and DIM locate/acquire operations, and link
// them into a cross-rank DAG via parent span IDs carried in the wire
// envelope. Finished spans land in a bounded ring (oldest overwritten
// first) and can be exported as Chrome trace_event JSON (see
// WriteChrome) for about:tracing / Perfetto.
//
// The whole API is nil-safe: a nil *Tracer hands out nil *Span, and
// every Span method no-ops on nil, so instrumented code pays one
// pointer test when tracing is disabled — no build tags, no
// indirection through interfaces.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span across ranks. The zero value means "no
// span" and is used as the root parent. IDs embed the issuing rank so
// cross-rank parent references can be attributed without a lookup.
type SpanID uint64

const rankShift = 40

// Rank returns the rank that issued the ID (-1 for the zero ID).
func (id SpanID) Rank() int {
	if id == 0 {
		return -1
	}
	return int(id>>rankShift) - 1
}

// Span is one timed event. Instrumented code receives a pooled *Span
// from Tracer.Begin, optionally tags it (SetErr, SetTask), and End()s
// it; the record is then copied into the tracer's ring and recycled.
type Span struct {
	ID     SpanID
	Parent SpanID
	Rank   int
	Name   string // e.g. "task.exec", "rpc.call", "dim.acquire"
	Detail string // method name, task path, item id, ...
	Task   uint64 // task ID, when the span belongs to a task
	Err    string // non-empty for failed operations
	Start  int64  // nanoseconds since the tracer epoch
	Dur    int64  // nanoseconds

	t *Tracer // owner while in flight; nil once archived
}

// epoch is shared by every tracer in the process so that spans from
// different ranks of an in-process system merge onto one comparable
// timeline. (Cross-process clock alignment is out of scope; each
// process exports its own trace.)
var epoch = time.Now()

// Tracer records spans for one rank. Create one with New and attach
// it to the locality; a nil Tracer disables tracing with near-zero
// cost at every instrumentation site.
type Tracer struct {
	rank    int
	seq     atomic.Uint64
	active  atomic.Int64
	dropped atomic.Uint64
	stopped atomic.Bool
	pool    sync.Pool

	mu   sync.Mutex
	ring []Span // grows up to capacity, then wraps
	cap  int    // configured bound on len(ring)
	next int    // next write position once the ring is full
	full bool   // ring has wrapped at least once
}

// DefaultCapacity is the ring size used when New is given capacity<=0.
const DefaultCapacity = 1 << 14

// New creates a tracer for the given rank with a bounded ring of
// capacity finished spans (DefaultCapacity if capacity <= 0). The
// ring grows on demand up to the bound, so short runs only pay for
// the spans they record.
func New(rank, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{
		rank: rank,
		cap:  capacity,
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Rank returns the tracer's rank.
func (t *Tracer) Rank() int {
	if t == nil {
		return -1
	}
	return t.rank
}

// Begin starts a span. Safe on a nil tracer (returns nil) and after
// Stop (returns nil): callers chain Begin(...).End() without checks.
func (t *Tracer) Begin(name, detail string, parent SpanID) *Span {
	if t == nil || t.stopped.Load() {
		return nil
	}
	sp := t.pool.Get().(*Span)
	seq := t.seq.Add(1)
	*sp = Span{
		ID:     SpanID(uint64(t.rank+1)<<rankShift | seq),
		Parent: parent,
		Rank:   t.rank,
		Name:   name,
		Detail: detail,
		Start:  int64(time.Since(epoch)),
		t:      t,
	}
	t.active.Add(1)
	return sp
}

// End finishes the span: its duration is fixed, the record is copied
// into the tracer's ring and the pooled object recycled. End on a nil
// or already-ended span is a no-op.
func (sp *Span) End() {
	if sp == nil || sp.t == nil {
		return
	}
	t := sp.t
	sp.t = nil
	sp.Dur = int64(time.Since(epoch)) - sp.Start
	t.mu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, *sp)
	} else {
		t.full = true
		t.ring[t.next] = *sp
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
		t.dropped.Add(1)
	}
	t.mu.Unlock()
	t.active.Add(-1)
	t.pool.Put(sp)
}

// SetErr tags the span with an error (no-op on nil span or nil error).
func (sp *Span) SetErr(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.Err = err.Error()
}

// SetTask tags the span with a task ID.
func (sp *Span) SetTask(id uint64) {
	if sp == nil {
		return
	}
	sp.Task = id
}

// SpanID returns the span's ID (0 for a nil span), for propagation to
// children — including across ranks via the wire envelope.
func (sp *Span) SpanID() SpanID {
	if sp == nil {
		return 0
	}
	return sp.ID
}

// Snapshot returns the finished spans currently retained, oldest
// first. The result is a copy; it does not alias the ring.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Span, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Active returns the number of spans begun but not yet ended.
func (t *Tracer) Active() int64 {
	if t == nil {
		return 0
	}
	return t.active.Load()
}

// Dropped returns how many finished spans were overwritten because
// the ring was full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Stop blocks new spans from being started. In-flight spans may still
// End; once they have, Active reports 0 and the retained spans are
// stable.
func (t *Tracer) Stop() {
	if t == nil {
		return
	}
	t.stopped.Store(true)
}

// Merge concatenates the snapshots of several tracers (typically one
// per rank of a system) into one span set for whole-run analysis.
func Merge(tracers ...*Tracer) []Span {
	var out []Span
	for _, t := range tracers {
		out = append(out, t.Snapshot()...)
	}
	return out
}

// VerifyParents checks the causal integrity of a merged span set:
// every non-zero parent reference must resolve to a span in the set
// whose ID rank matches the reference. Spans dropped from a full ring
// are tolerated only if the tracer set reports drops — callers
// asserting a complete DAG should size rings generously and check
// Dropped()==0 first.
func VerifyParents(spans []Span) error {
	ids := make(map[SpanID]struct{}, len(spans))
	for i := range spans {
		if spans[i].ID == 0 {
			return fmt.Errorf("span %d (%s) has zero ID", i, spans[i].Name)
		}
		if _, dup := ids[spans[i].ID]; dup {
			return fmt.Errorf("duplicate span ID %#x (%s)", uint64(spans[i].ID), spans[i].Name)
		}
		ids[spans[i].ID] = struct{}{}
	}
	for i := range spans {
		p := spans[i].Parent
		if p == 0 {
			continue
		}
		if _, ok := ids[p]; !ok {
			return fmt.Errorf("span %#x (%s, rank %d) references missing parent %#x (rank %d)",
				uint64(spans[i].ID), spans[i].Name, spans[i].Rank, uint64(p), p.Rank())
		}
	}
	return nil
}
