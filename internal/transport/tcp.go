package transport

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"allscale/internal/metrics"
)

// TCPConfig tunes the failure-handling behaviour of a TCPEndpoint.
// The zero value selects production defaults; tests shrink the
// timeouts to keep fault-injection runs fast.
type TCPConfig struct {
	// WriteTimeout bounds a write the socket cannot take at once; a
	// stalled peer makes Send fail (and evicts the connection) instead
	// of blocking forever. Default 10s.
	WriteTimeout time.Duration
	// DialTimeout bounds the one dial a Send makes when it finds no
	// connection. Default 1s.
	DialTimeout time.Duration
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
	if c.MaxFrame <= 0 {
		c.MaxFrame = 64 << 20
	}
}

// TCPEndpoint is a plain-TCP implementation of Endpoint, mirroring
// the "plain TCP" communication layer of the HPX substrate
// (Section 3.2). Each process listens on its own address and lazily
// dials peers. One TCP connection carries both directions of a rank
// pair, so a reply carries the TCP acknowledgement of its request: Send
// uses the cached connection to its peer whether this side dialed or
// accepted it (see deliver). Frames are length-prefixed (frame.go),
// coalesced on the way out (tcpConn) and read once per arrival (read).
//
// Failure semantics: a Send hands its frame off once and retries
// nothing (see Send). A write the socket cannot take at once is bounded
// by WriteTimeout, inbound frames beyond MaxFrame are dropped with
// their connection, and a connection that breaks under no Send is
// reported once.
type TCPEndpoint struct {
	rank int
	cfg  TCPConfig

	listener *net.TCPListener
	handler  atomic.Pointer[Handler]
	failure  atomic.Pointer[FailureHandler]
	stats    atomic.Pointer[counters]

	mu    sync.Mutex
	addrs []string
	size  atomic.Int32          // len(addrs), read per frame without mu
	conns map[int]*tcpConn      // nil once dropped: the next is a reconnect
	all   map[*tcpConn]struct{} // every connection whose reader runs

	wg     sync.WaitGroup
	closed atomic.Bool
}

// maxPendingWrites is the per-connection backpressure cap: once this
// many coalesced bytes are queued, senders block until the flusher
// drains (or the connection breaks, which is bounded by WriteTimeout).
const maxPendingWrites = 1 << 20

// tcpConn is one connection, dialed or accepted, with its reader and,
// once it is its peer's cached connection, a coalescing writer: the
// flusher writes every frame queued since its previous write with one
// syscall, without delaying an idle connection. A Send succeeds once
// its frame is queued (lost if the connection dies, as the Endpoint
// contract allows); the first write failure is sticky.
//
// Only the reader closes the socket, once its read loop has returned:
// closing waits for the read in progress, and the reader may be running
// a handler that waits for the goroutine that would close it. Everyone
// else ends the connection with teardown.
type tcpConn struct {
	c    *net.TCPConn
	raw  syscall.RawConn
	peer int // -1 until an accepted connection's first frame; set under the endpoint's mu

	mu      sync.Mutex
	cond    *sync.Cond
	pend    []byte // frames queued for the flusher, in send order
	spare   []byte // recycled batch buffer, reused by the next swap
	err     error  // sticky first write failure
	closing bool
}

func newTCPConn(c *net.TCPConn, peer int) *tcpConn {
	raw, _ := c.SyscallConn()    // fails only for a nil connection
	if runtime.GOOS == "linux" { // without TCP_INQ, here or elsewhere, the reader reads until EAGAIN
		_ = raw.Control(func(fd uintptr) { _ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpInq, 1) })
	}
	tc := &tcpConn{c: c, raw: raw, peer: peer}
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
// tear the connection down; used by the graceful endpoint Close.
func (tc *tcpConn) beginShutdown() {
	tc.mu.Lock()
	tc.closing = true
	tc.cond.Broadcast()
	tc.mu.Unlock()
}

// teardown ends the connection without waiting for the I/O in progress:
// shutdown(2) shows the peer its end and fails a write in flight, and
// the expired deadline wakes the reader whatever it last read.
func (tc *tcpConn) teardown() {
	tc.beginShutdown()
	// Either fails only on a socket already ended or closed.
	_ = tc.raw.Control(func(fd uintptr) { _ = syscall.Shutdown(int(fd), syscall.SHUT_RDWR) })
	_ = tc.c.SetReadDeadline(time.Unix(1, 0))
}

// writeRest is the one write that waits and carries a deadline. A
// failing SetWriteDeadline means the socket is dead: a failed write.
func (tc *tcpConn) writeRest(rest []byte, timeout time.Duration) error {
	if err := tc.c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := tc.c.Write(rest); err != nil {
		return err
	}
	return tc.c.SetWriteDeadline(time.Time{}) // the next batch's raw write must not meet it
}

// flush is the per-connection writer goroutine: it writes all frames
// queued since its previous write with one non-blocking write(2); only
// a remainder the socket did not take waits (writeRest), so a socket
// with room costs no clock read and no timer. A write failure becomes
// the sticky error, and the connection is dropped and reported.
func (e *TCPEndpoint) flush(tc *tcpConn) {
	defer e.wg.Done()
	var batch []byte
	n := 0 // made once: a closure per batch would allocate
	rawWrite := func(fd uintptr) bool {
		n, _ = syscall.Write(int(fd), batch) // on an error -1, and writeRest meets it again
		return true
	}
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
			tc.teardown()
			return
		}
		batch = tc.pend
		tc.pend = tc.spare[:0]
		tc.cond.Broadcast() // wake senders blocked on backpressure
		tc.mu.Unlock()

		n = 0
		e.stats.Load().writes.Inc()
		err := tc.raw.Write(rawWrite)
		if n = max(n, 0); err == nil && n < len(batch) {
			err = tc.writeRest(batch[n:], e.cfg.WriteTimeout)
		}

		tc.mu.Lock()
		if cap(batch) <= 4<<20 { // don't pin huge batch buffers forever
			tc.spare = batch[:0]
		}
		if err != nil {
			tc.err = fmt.Errorf("transport: write to rank %d: %w", tc.peer, err)
			tc.cond.Broadcast()
			tc.mu.Unlock()
			if peer, first := e.drop(tc); first {
				e.notifyFailure(peer, tc.err)
			}
			return
		}
	}
}

var _ Endpoint = (*TCPEndpoint)(nil)

// NewTCPEndpoint starts the endpoint of process rank among addrs with
// the default TCPConfig; SetHandler must precede the peers' first Send.
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
		listener: ln.(*net.TCPListener),
		conns:    make(map[int]*tcpConn),
		all:      make(map[*tcpConn]struct{}),
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
	if e.closed.Load() {
		return // local shutdown, not a peer failure
	}
	if p := e.failure.Load(); p != nil && *p != nil {
		(*p)(peer, err)
	}
}

func (e *TCPEndpoint) accept() {
	defer e.wg.Done()
	for {
		c, err := e.listener.AcceptTCP()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		started := e.startLocked(newTCPConn(c, -1))
		e.mu.Unlock()
		if !started {
			return
		}
	}
}

// startLocked registers tc and runs its reader; once Close has swept
// the connections it closes tc and reports false. The Add is made under
// the lock of the registration, so that Close cannot wait before it.
func (e *TCPEndpoint) startLocked(tc *tcpConn) bool {
	if e.closed.Load() {
		tc.c.Close()
		return false
	}
	e.all[tc] = struct{}{}
	e.wg.Add(1)
	go e.read(tc)
	return true
}

// cacheLocked makes tc its peer's connection for Send, with a flusher.
func (e *TCPEndpoint) cacheLocked(tc *tcpConn) {
	if _, had := e.conns[tc.peer]; had {
		e.stats.Load().reconnects.Inc()
	}
	e.conns[tc.peer] = tc
	e.wg.Add(1)
	go e.flush(tc)
}

// tcpInq is Linux's TCP_INQ: recvmsg(2) reports the bytes the socket
// still holds, as 1 once a FIN or a reset has arrived.
const tcpInq = 36

type sockReader struct { // the recvmsg(2) arguments of one reader
	msg syscall.Msghdr
	iov syscall.Iovec
	oob [4]uint64 // one control message header and its int32, aligned
}

// recv reads into p. more is false only when the socket said it holds
// nothing further (never without TCP_INQ): a short read does not say
// whether a FIN came with it.
func (s *sockReader) recv(fd uintptr, p []byte) (n int, more bool, err error) {
	s.iov.Base = &p[0]
	s.iov.SetLen(len(p))
	s.msg.Iov = &s.iov
	s.msg.Iovlen = 1
	s.msg.Control = (*byte)(unsafe.Pointer(&s.oob[0]))
	s.msg.SetControllen(len(s.oob) * 8)
	r, _, errno := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&s.msg)), 0)
	if errno != 0 {
		return 0, false, errno
	}
	if int(s.msg.Controllen) >= syscall.CmsgLen(4) { // TCP_INQ's, the only one asked for
		return int(r), *(*int32)(unsafe.Add(unsafe.Pointer(&s.oob[0]), syscall.CmsgLen(0))) != 0, nil
	}
	return int(r), true, nil
}

// read is the delivery goroutine of one connection: one RawConn.Read
// for its life, one read per arrival. Once the socket holds nothing
// further the loop waits in the netpoller instead of issuing the read
// that would return EAGAIN; the poll descriptor keeps an edge that
// fires between the read and the wait, reset only when a RawConn.Read
// starts.
func (e *TCPEndpoint) read(tc *tcpConn) {
	defer e.wg.Done()
	fr := newFrameReader()
	var sr sockReader
	var err error
	rerr := tc.raw.Read(func(fd uintptr) bool {
		for {
			n, more, serr := sr.recv(fd, fr.space())
			e.stats.Load().reads.Inc()
			switch {
			case serr == syscall.EINTR:
				continue
			case serr == syscall.EAGAIN:
				return false
			case serr != nil:
				err = os.NewSyscallError("recvmsg", serr)
				return true
			case n == 0:
				err = fr.eof()
				return true
			}
			fr.fill(n)
			if err = e.deliver(tc, fr); err != nil || !more {
				return err != nil
			}
		}
	})
	if err == nil {
		err = rerr
	}
	if peer, first := e.drop(tc); first && peer >= 0 {
		e.notifyFailure(peer, fmt.Errorf("transport: link with rank %d broken: %w", peer, err))
	}
	tc.c.Close()
}

// deliver hands every complete frame read so far to the handler. An
// accepted connection is trusted with the rank its first frame states,
// as every inbound frame is, and a valid one makes it that rank's
// cached connection if it has none. A live connection is never
// switched: ranks whose first frames cross keep two one-way ones.
func (e *TCPEndpoint) deliver(tc *tcpConn, fr *frameReader) error {
	for {
		from, kind, payload, ok, err := fr.next(e.Size(), e.cfg.MaxFrame)
		if tc.peer < 0 && from >= 0 {
			e.mu.Lock()
			tc.peer = from
			if err == nil && e.conns[from] == nil && !e.closed.Load() {
				e.cacheLocked(tc)
			}
			e.mu.Unlock()
		}
		if err != nil {
			e.stats.Load().droppedFrames.Inc()
			return err
		}
		if !ok {
			return nil
		}
		e.stats.Load().received(len(payload))
		if p := e.handler.Load(); p != nil && *p != nil {
			(*p)(Message{From: from, To: e.rank, Kind: kind, Payload: payload})
		}
	}
}

// dial returns the cached connection to peer `to`, or makes one
// attempt, bounded by DialTimeout, to open it.
func (e *TCPEndpoint) dial(to int) (*tcpConn, error) {
	e.mu.Lock()
	if tc := e.conns[to]; tc != nil {
		e.mu.Unlock()
		return tc, nil
	}
	addr := e.addrs[to]
	e.mu.Unlock()

	c, err := net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	tc := newTCPConn(c.(*net.TCPConn), to)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached := e.conns[to]; cached != nil { // lost the race; keep the first
		tc.c.Close()
		return cached, nil
	}
	if !e.startLocked(tc) {
		return nil, fmt.Errorf("transport: endpoint closed")
	}
	e.cacheLocked(tc)
	return tc, nil
}

// drop tears tc down and forgets it. It reports tc's peer and whether
// this was tc's first drop, so that the detectors that run under no
// Send (a failed flush, the reader's end) report a connection once.
func (e *TCPEndpoint) drop(tc *tcpConn) (peer int, first bool) {
	e.mu.Lock()
	if e.conns[tc.peer] == tc {
		e.conns[tc.peer] = nil
	}
	_, first = e.all[tc]
	delete(e.all, tc)
	peer = tc.peer
	e.mu.Unlock()
	tc.teardown()
	return peer, first
}

// Send hands the frame off once: it is queued on the cached connection,
// or on the one a single dial opens. A failure evicts the connection and
// reports the peer before Send returns, so that the layer above sees the
// break before it sees the error; the frame itself is not retried.
func (e *TCPEndpoint) Send(to int, kind string, payload []byte) error {
	if err := checkRank(to, e.Size()); err != nil {
		return err
	}
	e.stats.Load().sent(len(payload)) // before the receiver can see it
	tc, err := e.dial(to)
	if err == nil {
		if err = tc.enqueue(e.rank, kind, payload); err == nil {
			return nil
		}
		e.drop(tc)
	}
	e.stats.Load().sendErrors.Inc()
	err = fmt.Errorf("transport: send to rank %d: %w", to, err)
	e.notifyFailure(to, err)
	return err
}

func (e *TCPEndpoint) Close() error {
	if !e.closed.Swap(true) {
		e.listener.Close()
		e.mu.Lock()
		// Graceful: a flusher drains its queued frames (bounded by the
		// write deadline) and tears its connection down itself. The
		// others are torn down here, or their readers would wait for
		// the remote side, deadlocking the wg.Wait below.
		for tc := range e.all {
			if e.conns[tc.peer] == tc {
				tc.beginShutdown()
			} else {
				tc.teardown()
			}
		}
		e.mu.Unlock()
	}
	e.wg.Wait()
	return nil
}
