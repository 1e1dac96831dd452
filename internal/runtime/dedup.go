package runtime

import (
	"sync"
	"sync/atomic"
	"time"
)

// defaultDedupWindow is how long a completed entry's cached reply is
// retained past completion. It must exceed the longest retry horizon
// of any client, otherwise a straggler duplicate could re-execute the
// handler after eviction. For a call with a deadline that is the
// deadline (default control profile: 30s); a task ship has none and is
// resent until the peer answers or is declared failed, so there the
// horizon is the failure detector's verdict time (DESIGN.md §6d).
const defaultDedupWindow = 2 * time.Minute

// dedupEntry is one registered call from one caller. While the
// handler runs, done is false and duplicates are dropped (the caller
// will retry after the reply lands in the cache). Once done, rsp
// holds the exact encoded response frame for byte-identical replay.
type dedupEntry struct {
	done bool
	rsp  []byte
	at   int64 // UnixNano completion time, for age eviction
}

// callerWindow is the dedup state for one caller rank. acked is the
// caller's watermark: every call ID ≤ acked has been resolved at the
// caller, so its entry can never be retried again and is evicted.
type callerWindow struct {
	entries   map[uint64]*dedupEntry
	acked     uint64
	lastSweep int64
}

// dedupState is a locality's server-side dedup window. Entries are
// evicted only by age (window past completion) or by the caller's ack
// watermark — never by capacity, so a live retryable call can never
// lose its exactly-once guarantee to an unrelated burst of traffic.
type dedupState struct {
	mu     sync.Mutex
	window time.Duration
	byFrom map[int]*callerWindow
}

func newDedupState(window time.Duration) *dedupState {
	return &dedupState{window: window, byFrom: make(map[int]*callerWindow)}
}

func (d *dedupState) setWindow(w time.Duration) {
	d.mu.Lock()
	d.window = w
	d.mu.Unlock()
}

// observe processes one inbound request of the dedup kind (a retryable
// non-idempotent call, whose duplicates replay the cached reply instead
// of re-running the handler): it applies the
// caller's ack watermark, opportunistically sweeps aged entries, and
// registers id. It returns the cached reply when this is a duplicate
// of a completed call (replay=true), or inflight=true when the
// duplicate must be dropped: the first execution is still running, or
// the call lies behind the caller's watermark.
func (d *dedupState) observe(from int, id, ack uint64, now time.Time) (rsp []byte, replay, inflight bool) {
	nowNS := now.UnixNano()
	d.mu.Lock()
	defer d.mu.Unlock()
	cw := d.byFrom[from]
	if cw == nil {
		cw = &callerWindow{entries: make(map[uint64]*dedupEntry), lastSweep: nowNS}
		d.byFrom[from] = cw
	}
	if ack > cw.acked {
		cw.acked = ack
		for eid, e := range cw.entries {
			if eid <= ack && e.done {
				delete(cw.entries, eid)
			}
		}
	}
	if nowNS-cw.lastSweep > int64(d.window/4) {
		cw.lastSweep = nowNS
		cutoff := nowNS - int64(d.window)
		for eid, e := range cw.entries {
			if e.done && e.at < cutoff {
				delete(cw.entries, eid)
			}
		}
	}
	if e := cw.entries[id]; e != nil {
		if !e.done {
			return nil, false, true
		}
		return e.rsp, true, false
	}
	if id <= cw.acked {
		// The caller has resolved this call and its entry went with the
		// watermark: a duplicate that the fabric delayed past both. Nobody
		// waits for an answer, and running the handler again would break
		// exactly-once — drop it like an in-flight duplicate.
		return nil, false, true
	}
	cw.entries[id] = &dedupEntry{}
	return nil, false, false
}

// complete caches the encoded response frame of a registered call so
// later duplicates replay it byte-identically.
func (d *dedupState) complete(from int, id uint64, rsp []byte, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cw := d.byFrom[from]; cw != nil {
		if e := cw.entries[id]; e != nil {
			e.done = true
			e.rsp = rsp
			e.at = now.UnixNano()
		}
	}
}

// size returns the total number of live entries (tests/monitoring).
func (d *dedupState) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, cw := range d.byFrom {
		n += len(cw.entries)
	}
	return n
}

// DedupSize returns the number of entries currently held in the
// locality's server-side dedup window.
func (l *Locality) DedupSize() int { return l.dedup.size() }

// SetDedupWindow overrides the retention window of the server-side
// dedup cache (tests shrink it to exercise age eviction).
func (l *Locality) SetDedupWindow(w time.Duration) { l.dedup.setWindow(w) }

// ackState tracks, per destination rank, which retryable call IDs are
// still outstanding at this caller. Its watermark — piggybacked on
// every outgoing retryable request — tells the server the highest ID
// below which every call has been resolved here, bounding the
// server's dedup window without any extra messages.
type ackState struct {
	mu  sync.Mutex
	out map[uint64]struct{}
	hi  uint64
}

// beginAlloc atomically allocates the next call ID from seq and
// registers it as outstanding, returning the ID and the current
// watermark: min(outstanding)-1, i.e. every ID at or below it is
// resolved here. Allocation must happen under the same lock as
// registration: otherwise a concurrent later call to the same
// destination could compute a watermark covering this ID before it is
// registered — a lying ack that evicts the server's dedup entry while
// this call can still be retried or duplicated in flight.
func (a *ackState) beginAlloc(seq *atomic.Uint64) (id, ack uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id = seq.Add(1)
	if a.out == nil {
		a.out = make(map[uint64]struct{})
	}
	a.out[id] = struct{}{}
	if id > a.hi {
		a.hi = id
	}
	ack = a.hi
	for o := range a.out {
		if o-1 < ack {
			ack = o - 1
		}
	}
	return id, ack
}

// done removes a resolved call from the outstanding set.
func (a *ackState) done(id uint64) {
	a.mu.Lock()
	delete(a.out, id)
	a.mu.Unlock()
}
