package sched

import (
	"sync"
	"sync/atomic"

	"allscale/internal/metrics"
)

// deque is one worker's run queue: a growable ring buffer of task
// pointers under a per-deque mutex. The owner pushes and pops at the
// tail (LIFO keeps the working set warm); thieves — sibling workers and
// the remote steal handler — take batches from the head (FIFO: old
// tasks are the least likely to be in anyone's cache). size mirrors the
// occupancy so victim selection can scan deques without taking their
// locks.
type deque struct {
	mu    sync.Mutex
	buf   []*task      // ring storage; len(buf) is the capacity
	head  int          // index of the oldest element
	n     int          // occupancy
	size  atomic.Int64 // lock-free mirror of n
	gauge *metrics.Gauge
}

// dequeMinCap is the initial ring capacity (power of two).
const dequeMinCap = 64

func newDeque(gauge *metrics.Gauge) *deque {
	return &deque{buf: make([]*task, dequeMinCap), gauge: gauge}
}

// setSize updates the lock-free mirror and the published gauge; called
// with d.mu held.
func (d *deque) setSize() {
	d.size.Store(int64(d.n))
	d.gauge.Set(int64(d.n))
}

// pushTail appends t as the newest element, growing the ring when
// full.
func (d *deque) pushTail(t *task) {
	d.mu.Lock()
	if d.n == len(d.buf) {
		grown := make([]*task, 2*len(d.buf))
		for i := 0; i < d.n; i++ {
			grown[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
		}
		d.buf = grown
		d.head = 0
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = t
	d.n++
	d.setSize()
	d.mu.Unlock()
}

// popTail removes and returns the newest element (owner LIFO), nil
// when the deque is empty.
func (d *deque) popTail() *task {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return nil
	}
	d.n--
	i := (d.head + d.n) & (len(d.buf) - 1)
	t := d.buf[i]
	d.buf[i] = nil // release the reference held by the slot
	d.setSize()
	d.mu.Unlock()
	return t
}

// stealHead removes up to max elements from the head (thief FIFO),
// taking at most half of the occupancy — but always at least one when
// the deque is non-empty — so the owner is never fully drained by a
// single thief.
func (d *deque) stealHead(max int) []*task {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return nil
	}
	k := (d.n + 1) / 2
	if k > max {
		k = max
	}
	out := make([]*task, k)
	for i := 0; i < k; i++ {
		out[i] = d.buf[d.head]
		d.buf[d.head] = nil
		d.head = (d.head + 1) & (len(d.buf) - 1)
	}
	d.n -= k
	d.setSize()
	d.mu.Unlock()
	return out
}

// takeIf removes and returns, oldest first, up to max queued tasks that
// match (all of them with a nil match), keeping the order of the rest:
// job cancellation purges a job's tasks with it, the remote steal
// handler picks what it may grant, a stopping or draining queue takes
// everything. match runs under the deque's lock and must not block.
func (d *deque) takeIf(max int, match func(*TaskSpec) bool) []*task {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*task
	mask, kept := len(d.buf)-1, 0
	for i := 0; i < d.n; i++ {
		t := d.buf[(d.head+i)&mask]
		if len(out) < max && (match == nil || match(&t.spec)) {
			out = append(out, t)
			continue
		}
		if kept != i {
			d.buf[(d.head+kept)&mask] = t
		}
		kept++
	}
	for i := kept; i < d.n; i++ {
		d.buf[(d.head+i)&mask] = nil
	}
	d.n = kept
	d.setSize()
	return out
}
