package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"allscale/internal/metrics"
)

// Fabric is an in-process communication fabric hosting one endpoint
// per simulated runtime process. Delivery is via buffered channels
// with one delivery goroutine per endpoint, preserving per-sender
// order (all senders share the receiver's single inbox, so delivery
// is even totally ordered per receiver).
type Fabric struct {
	endpoints []*inprocEndpoint
	started   bool
	mu        sync.Mutex
}

// NewFabric creates a fabric of n endpoints. Handlers must be
// installed on every endpoint before calling Start.
func NewFabric(n int) *Fabric {
	f := &Fabric{}
	for i := 0; i < n; i++ {
		ep := &inprocEndpoint{
			fabric: f,
			rank:   i,
			inbox:  make(chan Message, 1024),
			done:   make(chan struct{}),
		}
		ep.stats.Store(newCounters(nil))
		f.endpoints = append(f.endpoints, ep)
	}
	return f
}

// Endpoint returns the endpoint of process rank.
func (f *Fabric) Endpoint(rank int) Endpoint { return f.endpoints[rank] }

// Start launches the delivery goroutines. It panics if an endpoint
// has no handler, which would silently drop messages.
func (f *Fabric) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	for _, ep := range f.endpoints {
		if h := ep.handler.Load(); h == nil || *h == nil {
			panic(fmt.Sprintf("transport: endpoint %d has no handler", ep.rank))
		}
		go ep.deliver()
	}
	f.started = true
}

// Close shuts down all endpoints.
func (f *Fabric) Close() error {
	for _, ep := range f.endpoints {
		ep.Close()
	}
	return nil
}

type inprocEndpoint struct {
	fabric  *Fabric
	rank    int
	inbox   chan Message
	handler atomic.Pointer[Handler]
	failure atomic.Pointer[FailureHandler]
	done    chan struct{}
	closed  sync.Once
	stats   atomic.Pointer[counters]
}

var _ Endpoint = (*inprocEndpoint)(nil)

func (e *inprocEndpoint) Rank() int { return e.rank }

func (e *inprocEndpoint) Size() int { return len(e.fabric.endpoints) }

func (e *inprocEndpoint) SetHandler(h Handler) { e.handler.Store(&h) }

func (e *inprocEndpoint) SetFailureHandler(h FailureHandler) { e.failure.Store(&h) }

func (e *inprocEndpoint) SetMetrics(reg *metrics.Registry) { e.stats.Store(newCounters(reg)) }

func (e *inprocEndpoint) Send(to int, kind string, payload []byte) error {
	if err := checkRank(to, e.Size()); err != nil {
		return err
	}
	dst := e.fabric.endpoints[to]
	msg := Message{From: e.rank, To: to, Kind: kind, Payload: payload}
	e.stats.Load().sent(len(payload)) // before the receiver can see it
	select {
	case dst.inbox <- msg:
		return nil
	case <-dst.done:
		e.stats.Load().sendErrors.Inc()
		err := fmt.Errorf("transport: endpoint %d closed", to)
		if p := e.failure.Load(); p != nil && *p != nil {
			(*p)(to, err)
		}
		return err
	}
}

func (e *inprocEndpoint) deliver() {
	handle := func(msg Message) {
		e.stats.Load().received(len(msg.Payload))
		if p := e.handler.Load(); p != nil && *p != nil {
			(*p)(msg)
		}
	}
	for {
		select {
		case msg := <-e.inbox:
			handle(msg)
		case <-e.done:
			// Drain what is already queued, then stop.
			for {
				select {
				case msg := <-e.inbox:
					handle(msg)
				default:
					return
				}
			}
		}
	}
}

func (e *inprocEndpoint) Close() error {
	e.closed.Do(func() { close(e.done) })
	return nil
}
