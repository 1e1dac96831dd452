package simnet

// Time is virtual time in seconds.
type Time float64

// event is one scheduled callback. seq breaks ties deterministically:
// events at equal times fire in scheduling order. An event that ends a
// Resource use names the resource in release, which frees its unit
// before fn (the use's done, possibly nil) runs.
type event struct {
	at      Time
	seq     uint64
	fn      func()
	release *Resource
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded event loop over virtual time; the zero
// value is an engine at time zero. All callbacks run on the caller's
// goroutine inside Run; they may schedule further events.
type Engine struct {
	now    Time
	seq    uint64
	events []event // a binary min-heap ordered by (at, seq)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after the given virtual delay; negative delays are
// clamped to zero (fire "now", after already-queued events at the
// current instant).
func (e *Engine) Schedule(delay Time, fn func()) {
	e.schedule(delay, fn, nil)
}

func (e *Engine) schedule(delay Time, fn func(), release *Resource) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev := event{at: e.now + delay, seq: e.seq, fn: fn, release: release}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// Run processes events until none remain, returning the final time.
func (e *Engine) Run() Time {
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.release != nil {
			ev.release.release()
		}
		if ev.fn != nil {
			ev.fn()
		}
	}
	return e.now
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback for the collector
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	e.events = h
	return top
}

// Resource is a FCFS server with fixed capacity (e.g. the cores of a
// node, or a NIC serializing messages): holders occupy one unit for a
// virtual duration, excess requests queue.
type Resource struct {
	eng      *Engine
	capacity int
	busy     int
	queue    []use
}

// use is one queued request for a unit of a Resource.
type use struct {
	duration Time
	done     func()
}

func newResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("simnet: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Use occupies one unit for the duration, then calls done (which may
// be nil). If the resource is saturated the request queues FCFS.
func (r *Resource) Use(duration Time, done func()) {
	if r.busy < r.capacity {
		r.start(duration, done)
	} else {
		r.queue = append(r.queue, use{duration, done})
	}
}

func (r *Resource) start(duration Time, done func()) {
	r.busy++
	r.eng.schedule(duration, done, r)
}

// release ends one use: it frees the unit and hands it to the first
// queued request.
func (r *Resource) release() {
	r.busy--
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.start(next.duration, next.done)
	}
}
