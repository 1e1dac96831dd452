package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"allscale/internal/metrics"
)

// TCPConfig tunes the failure-handling behaviour of a TCPEndpoint.
// The zero value selects production defaults; tests shrink the
// timeouts to keep fault-injection runs fast.
type TCPConfig struct {
	// WriteTimeout bounds each frame write; a stalled peer makes Send
	// fail (and evicts the connection) instead of blocking forever.
	// Default 10s.
	WriteTimeout time.Duration
	// DialTimeout bounds a single dial attempt. Default 1s.
	DialTimeout time.Duration
	// RetryBudget bounds the total time spent redialing one peer
	// within a single Send before giving up. Default 5s.
	RetryBudget time.Duration
	// MaxBackoff caps the exponential redial backoff, which starts at
	// 20ms and doubles per failed attempt. Default 500ms.
	MaxBackoff time.Duration
	// MaxFrame is the sanity limit for the kind and payload length
	// prefixes of inbound frames; a corrupt 4-byte length can
	// otherwise trigger a multi-GB allocation. Default 64 MiB.
	MaxFrame int
}

func (c *TCPConfig) fillDefaults() {
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 5 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 64 << 20
	}
}

// TCPEndpoint is a plain-TCP implementation of Endpoint, mirroring
// the "plain TCP" communication layer of the HPX substrate
// (Section 3.2). Each process listens on its own address and lazily
// dials peers; one TCP connection carries each ordered peer-to-peer
// direction. Frames are length-prefixed: 4-byte big-endian sender
// rank, 4-byte kind length, kind bytes, 4-byte payload length,
// payload bytes. Outgoing frames are assembled straight into the
// connection's pending batch and coalesced: a per-connection flusher
// goroutine writes every frame
// queued since its previous write with one syscall (see tcpConn).
// Incoming frames are parsed out of one buffered reader per accepted
// connection, so a coalesced batch also costs one read (frame.go).
//
// Failure semantics: writes carry a deadline, broken connections are
// evicted from the cache and redialed with exponential backoff under
// a bounded budget, inbound frames beyond MaxFrame are dropped with
// their connection, and every detected link failure is reported
// through the FailureHandler exactly once per connection.
type TCPEndpoint struct {
	rank int
	cfg  TCPConfig

	listener net.Listener
	handler  atomic.Pointer[Handler]
	failure  atomic.Pointer[FailureHandler]
	stats    atomic.Pointer[counters]

	mu       sync.Mutex
	addrs    []string
	size     atomic.Int32 // len(addrs), read per frame without mu
	conns    map[int]*tcpConn
	dialed   map[int]bool // peers that have had at least one connection
	incoming map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// maxPendingWrites is the per-connection backpressure cap: once this
// many coalesced bytes are queued, senders block until the flusher
// drains (or the connection breaks, which is bounded by WriteTimeout).
const maxPendingWrites = 1 << 20

// tcpConn is one outgoing connection with a coalescing writer.
// Senders append complete frames to pend under mu; a per-connection
// flusher goroutine swaps the accumulated batch out and writes it with
// a single syscall. While the flusher is busy writing, new small
// frames pile up and go out together in the next batch — the write
// side's analogue of Nagle, but without delaying an idle connection:
// the flusher starts the moment the first frame arrives.
//
// A Send succeeds once its frame is queued; like bytes accepted into
// an OS socket buffer, queued frames are lost if the connection dies
// (the Endpoint contract already declares frames in flight lossy on
// peer failure). The first write failure is sticky: it surfaces on
// every later Send so the caller evicts and redials.
type tcpConn struct {
	c net.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	pend    []byte // frames queued for the flusher, in send order
	spare   []byte // recycled batch buffer, reused by the next swap
	err     error  // sticky first write failure
	closing bool
}

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{c: c}
	tc.cond = sync.NewCond(&tc.mu)
	return tc
}

// enqueue assembles one frame straight into the pending batch, blocking
// while the backpressure cap is exceeded. Frames from concurrent
// senders never interleave and keep their enqueue order.
func (tc *tcpConn) enqueue(from int, kind string, payload []byte) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for tc.err == nil && !tc.closing && len(tc.pend) > maxPendingWrites {
		tc.cond.Wait()
	}
	if tc.err != nil {
		return tc.err
	}
	if tc.closing {
		return fmt.Errorf("transport: connection closing")
	}
	tc.pend = appendFrame(tc.pend, from, kind, payload)
	tc.cond.Broadcast()
	return nil
}

// beginShutdown asks the flusher to drain the pending batch and then
// close the socket; used by the graceful endpoint Close.
func (tc *tcpConn) beginShutdown() {
	tc.mu.Lock()
	tc.closing = true
	tc.cond.Broadcast()
	tc.mu.Unlock()
}

// teardown abandons the connection immediately (failure path): wake
// everyone and close the socket, failing any in-flight flush.
func (tc *tcpConn) teardown() {
	tc.beginShutdown()
	tc.c.Close()
}

// flush is the per-connection writer goroutine: it batches all frames
// queued since the previous write into one deadline-bounded syscall.
// On a write failure it records the sticky error, evicts the
// connection, and reports the peer failure (at most once per
// connection, via evict's dedup).
func (e *TCPEndpoint) flush(to int, tc *tcpConn) {
	defer e.wg.Done()
	tc.mu.Lock()
	for {
		for len(tc.pend) == 0 && tc.err == nil && !tc.closing {
			tc.cond.Wait()
		}
		if tc.err != nil {
			tc.mu.Unlock()
			return
		}
		if len(tc.pend) == 0 { // closing and drained
			tc.mu.Unlock()
			tc.c.Close()
			return
		}
		batch := tc.pend
		tc.pend = tc.spare[:0]
		tc.cond.Broadcast() // wake senders blocked on backpressure
		tc.mu.Unlock()

		// A failing SetWriteDeadline means the socket is already dead;
		// treat it exactly like a failed write instead of issuing an
		// unbounded Write on a broken connection.
		err := tc.c.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
		if err == nil {
			_, err = tc.c.Write(batch)
		}

		tc.mu.Lock()
		if cap(batch) <= 4<<20 { // don't pin huge batch buffers forever
			tc.spare = batch[:0]
		}
		if err != nil {
			tc.err = fmt.Errorf("transport: write to rank %d: %w", to, err)
			tc.cond.Broadcast()
			tc.mu.Unlock()
			if e.evict(to, tc) {
				e.notifyFailure(to, tc.err)
			}
			return
		}
	}
}

var _ Endpoint = (*TCPEndpoint)(nil)

// NewTCPEndpoint creates and starts the endpoint of process rank
// within the process group enumerated by addrs, with default
// TCPConfig. The handler must be installed via SetHandler before
// peers start sending.
func NewTCPEndpoint(rank int, addrs []string) (*TCPEndpoint, error) {
	return NewTCPEndpointConfig(rank, addrs, TCPConfig{})
}

// NewTCPEndpointConfig is NewTCPEndpoint with explicit failure-handling
// configuration.
func NewTCPEndpointConfig(rank int, addrs []string, cfg TCPConfig) (*TCPEndpoint, error) {
	if err := checkRank(rank, len(addrs)); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[rank], err)
	}
	e := &TCPEndpoint{
		rank:     rank,
		cfg:      cfg,
		addrs:    append([]string(nil), addrs...),
		listener: ln,
		conns:    make(map[int]*tcpConn),
		dialed:   make(map[int]bool),
		incoming: make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	e.size.Store(int32(len(addrs)))
	e.stats.Store(newCounters(nil))
	e.wg.Add(1)
	go e.accept()
	return e, nil
}

// NewTCPLoopback creates and starts the n endpoints of one process
// group on OS-assigned 127.0.0.1 ports, each knowing the others' actual
// addresses: the bootstrap of every single-host fabric (allscaled
// -fabric tcp, tests). On error nothing is left listening.
func NewTCPLoopback(n int, cfg TCPConfig) ([]Endpoint, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcps := make([]*TCPEndpoint, n)
	for i := range tcps {
		ep, err := NewTCPEndpointConfig(i, addrs, cfg)
		if err != nil {
			for _, started := range tcps[:i] {
				started.Close()
			}
			return nil, err
		}
		tcps[i] = ep
	}
	eps := make([]Endpoint, n)
	for i, ep := range tcps {
		addrs[i] = ep.Addr()
		eps[i] = ep
	}
	for _, ep := range tcps {
		ep.SetAddrs(addrs)
	}
	return eps, nil
}

// Addr returns the actual listen address (useful with ":0" ports).
func (e *TCPEndpoint) Addr() string { return e.listener.Addr().String() }

// SetAddrs replaces the peer address book. It exists to support
// bootstrap with OS-assigned ports (":0"): create all endpoints, then
// distribute the actual addresses before any Send.
func (e *TCPEndpoint) SetAddrs(addrs []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addrs = append([]string(nil), addrs...)
	e.size.Store(int32(len(addrs)))
}

func (e *TCPEndpoint) Rank() int { return e.rank }

func (e *TCPEndpoint) Size() int { return int(e.size.Load()) }

func (e *TCPEndpoint) SetHandler(h Handler) { e.handler.Store(&h) }

func (e *TCPEndpoint) SetFailureHandler(h FailureHandler) { e.failure.Store(&h) }

// SetMetrics rebinds the traffic counters to reg. Call it before
// traffic flows (the accept loop runs from construction, so frames
// received before the rebind land in the private registry).
func (e *TCPEndpoint) SetMetrics(reg *metrics.Registry) { e.stats.Store(newCounters(reg)) }

func (e *TCPEndpoint) notifyFailure(peer int, err error) {
	select {
	case <-e.closed:
		return // local shutdown, not a peer failure
	default:
	}
	if p := e.failure.Load(); p != nil && *p != nil {
		(*p)(peer, err)
	}
}

func (e *TCPEndpoint) accept() {
	defer e.wg.Done()
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		select {
		case <-e.closed:
			e.mu.Unlock()
			c.Close()
			return
		default:
		}
		e.incoming[c] = struct{}{}
		// The Add must happen under the same lock as the incoming
		// registration: otherwise Close can observe the registered
		// connection, run wg.Wait, and return while the read goroutine
		// is still being started.
		e.wg.Add(1)
		e.mu.Unlock()
		go e.read(c)
	}
}

// read is the per-accepted-connection delivery goroutine. Its buffer
// is allocated here, not at endpoint construction: an endpoint that is
// never dialed pays nothing for it.
func (e *TCPEndpoint) read(c net.Conn) {
	defer e.wg.Done()
	from := -1 // sender rank, learned from the first valid frame
	readErr := fmt.Errorf("connection closed")
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.incoming, c)
		e.mu.Unlock()
		if from >= 0 {
			e.notifyFailure(from, fmt.Errorf("transport: link from rank %d broken: %w", from, readErr))
		}
	}()
	r := newFrameReader(c)
	for {
		f, kind, payload, err := readFrame(r, e.Size(), e.cfg.MaxFrame)
		if err != nil {
			readErr = err
			if errors.Is(err, errCorruptFrame) {
				e.stats.Load().droppedFrames.Inc()
				if f >= 0 {
					from = f
				}
			}
			return
		}
		from = f
		e.stats.Load().received(kind, len(payload))
		if p := e.handler.Load(); p != nil && *p != nil {
			(*p)(Message{From: f, To: e.rank, Kind: kind, Payload: payload})
		}
	}
}

// dial returns the (cached) outgoing connection to peer `to`,
// retrying with exponential backoff under the RetryBudget so that
// process groups may start in any order and crashed peers may be
// redialed after a restart.
func (e *TCPEndpoint) dial(to int) (*tcpConn, error) {
	e.mu.Lock()
	if tc, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return tc, nil
	}
	addr := e.addrs[to]
	e.mu.Unlock()

	var c net.Conn
	var err error
	backoff := 20 * time.Millisecond
	deadline := time.Now().Add(e.cfg.RetryBudget)
	for {
		c, err = net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			err = fmt.Errorf("transport: dial rank %d (%s): retry budget exhausted: %w", to, addr, err)
			e.notifyFailure(to, err)
			return nil, err
		}
		select {
		case <-e.closed:
			return nil, fmt.Errorf("transport: endpoint closed")
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > e.cfg.MaxBackoff {
			backoff = e.cfg.MaxBackoff
		}
	}

	e.mu.Lock()
	select {
	case <-e.closed: // Close already swept the connection cache
		e.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("transport: endpoint closed")
	default:
	}
	if tc, ok := e.conns[to]; ok { // lost the race; keep the first
		e.mu.Unlock()
		c.Close()
		return tc, nil
	}
	tc := newTCPConn(c)
	e.conns[to] = tc
	if e.dialed[to] {
		e.stats.Load().reconnects.Inc()
	}
	e.dialed[to] = true
	e.wg.Add(2)
	e.mu.Unlock()
	go e.watchOutgoing(to, tc)
	go e.flush(to, tc)
	return tc, nil
}

// watchOutgoing detects a dead outgoing link without waiting for the
// next Send: peers never write on this side's outgoing connection, so
// any read result — data or error — means the link is unusable. The
// eviction keeps a dead cached connection from poisoning later sends.
func (e *TCPEndpoint) watchOutgoing(to int, tc *tcpConn) {
	defer e.wg.Done()
	var one [1]byte
	_, err := tc.c.Read(one[:])
	if err == nil {
		err = fmt.Errorf("unexpected inbound data")
	}
	if e.evict(to, tc) {
		e.notifyFailure(to, fmt.Errorf("transport: link to rank %d broken: %w", to, err))
	}
}

// evict closes tc and removes it from the connection cache if it is
// still the cached connection for rank `to`. It reports whether this
// call performed the removal, so that the concurrent detectors (Send
// write errors and watchOutgoing) notify the failure handler at most
// once per connection.
func (e *TCPEndpoint) evict(to int, tc *tcpConn) bool {
	e.mu.Lock()
	evicted := e.conns[to] == tc
	if evicted {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	tc.teardown()
	return evicted
}

func (e *TCPEndpoint) Send(to int, kind string, payload []byte) error {
	if err := checkRank(to, e.Size()); err != nil {
		return err
	}
	// An enqueue error means the connection broke since the last send
	// (peer crash or restart): evict it and retry once over a fresh
	// dial before surfacing the error. The frame is counted before the
	// receiver can see it.
	e.stats.Load().sent(kind, len(payload))
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var tc *tcpConn
		tc, err = e.dial(to)
		if err != nil {
			e.stats.Load().sendErrors.Inc()
			return err
		}
		if err = tc.enqueue(e.rank, kind, payload); err == nil {
			return nil
		}
		if e.evict(to, tc) {
			e.notifyFailure(to, err)
		}
	}
	e.stats.Load().sendErrors.Inc()
	return fmt.Errorf("transport: send to rank %d: %w", to, err)
}

func (e *TCPEndpoint) Close() error {
	e.once.Do(func() {
		close(e.closed)
		e.listener.Close()
		e.mu.Lock()
		// Graceful: the flusher drains queued frames (bounded by the
		// write deadline) and closes the socket itself.
		for _, tc := range e.conns {
			tc.beginShutdown()
		}
		// Close accepted connections too: their reader goroutines
		// would otherwise block in Read until the remote side closes,
		// deadlocking the wg.Wait below when peers close after us.
		for c := range e.incoming {
			c.Close()
		}
		e.mu.Unlock()
	})
	e.wg.Wait()
	return nil
}
