// Package gopool runs functions on reused goroutines. A goroutine
// started by a go statement begins on a minimal stack and grows it by
// copying; a handler or task body that needs a few kilobytes pays that
// copy every time. A Pool parks finished goroutines instead and hands
// the next function to the most recently parked one, whose stack is
// already grown (and still warm in the cache).
//
// A Pool never bounds concurrency: Go starts a new goroutine whenever
// none is parked, because the functions it runs — RPC handlers, task
// split variants — block on one another in cycles, and a bounded pool
// would deadlock them.
package gopool

import "sync"

// maxIdle caps the parked goroutines of one Pool; a goroutine that
// finishes while this many are parked exits instead. Bursts beyond it
// behave like the plain go statement.
const maxIdle = 64

// Pool is a LIFO free-list of parked goroutines. The zero value is
// ready to use.
type Pool struct {
	mu     sync.Mutex
	idle   []chan func() // parked goroutines, most recently parked last
	closed bool
}

// Go runs f on another goroutine without blocking the caller.
func (p *Pool) Go(f func()) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		ch := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		ch <- f // buffered: the parked goroutine need not be receiving yet
		return
	}
	p.mu.Unlock()
	go p.run(f)
}

func (p *Pool) run(f func()) {
	ch := make(chan func(), 1)
	for f != nil {
		f()
		p.mu.Lock()
		if p.closed || len(p.idle) >= maxIdle {
			p.mu.Unlock()
			return
		}
		p.idle = append(p.idle, ch)
		p.mu.Unlock()
		f = <-ch
	}
}

// Close releases the parked goroutines and stops later ones from
// parking. Functions already running finish; Go keeps working.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, ch := range idle {
		ch <- nil
	}
}
