// Package runtime provides the HPX-like substrate the AllScale
// runtime prototype builds on (Section 3.2): runtime processes
// ("localities"), globally addressable services via remote procedure
// calls, one-way service messages, and promises/futures for task
// completion. By default a System hosts one locality per simulated
// cluster node inside a single OS process over the in-process
// transport; the same Locality type runs over the TCP transport for
// genuinely distributed operation.
package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"allscale/internal/gopool"
	"allscale/internal/metrics"
	"allscale/internal/trace"
	"allscale/internal/transport"
	"allscale/internal/wire"
)

// Method is a named RPC handler: it receives the caller's rank and
// the wire-encoded request body and returns the wire-encoded reply.
type Method func(from int, body []byte) ([]byte, error)

// OneWay is a named fire-and-forget message handler.
type OneWay func(from int, body []byte)

const (
	kindRequest  = "rpc.req"
	kindResponse = "rpc.rsp"
	kindOneWay   = "msg"
	// kindAcks is a pure ack: the ack owed to a peer that found no frame
	// to ride on within ackDelay (link.go), or a heartbeat.
	kindAcks = "rpc.acks"
)

// ErrPeerFailed marks RPC errors caused by the transport reporting
// the destination rank as failed while the call was outstanding;
// callers distinguish it from application errors via errors.Is.
var ErrPeerFailed = errors.New("runtime: peer failed")

// ErrCallTimeout marks RPC errors caused by a call whose deadline
// (CallSpec) passed before its answer came.
var ErrCallTimeout = errors.New("runtime: call timed out")

// Registry names under which the RPC layer publishes its metrics.
const (
	MetricRPCCalls     = "rpc.calls"
	MetricRPCErrors    = "rpc.errors"
	MetricRPCRoundtrip = "rpc.roundtrip"
	// MetricRPCOneWays counts one-way sends (local and remote).
	MetricRPCOneWays = "rpc.oneways"
	// MetricRPCRetries counts frames a link resent because the peer had
	// not acked them within the link's resend interval.
	MetricRPCRetries = "rpc.retries"
	// MetricRPCTimeouts counts calls failed by their deadline.
	MetricRPCTimeouts = "rpc.timeouts"
	// MetricRPCDuplicates counts numbered frames a link dropped because it
	// had delivered or was holding their number already.
	MetricRPCDuplicates = "rpc.duplicates"
	// MetricRPCFencedFrames counts inbound frames rejected because the
	// sending rank is fenced (marked dead / stale incarnation epoch).
	MetricRPCFencedFrames = "rpc.fenced_frames"
	// MetricRPCAckFrames counts rpc.acks frames sent, each before its
	// hand-off: owed acks that found no numbered frame to ride on within
	// ackDelay. A heartbeat, a pure ack too, is not counted.
	MetricRPCAckFrames = "rpc.ack_frames"
	// MetricRPCInline counts the requests served on the goroutine that
	// delivered them, in frame order (HandleInline).
	MetricRPCInline = "rpc.inline"
	// MetricRPCCallFrames counts the request and reply frames a link
	// delivers, each once, before any handler or waiting caller sees them:
	// once a protocol's calls are settled, its frames are counted, and no
	// one-way, ack or resent frame is among them.
	MetricRPCCallFrames = "rpc.call_frames"
	// MetricPromisesNamed counts the futures entered in the promise
	// table (NamePromise): one per task that left the rank it was
	// spawned on.
	MetricPromisesNamed = "runtime.promises_named"
)

// resolve finishes a call's instrumentation and fulfills its future
// (if it has one). The span is ended before the fulfill so that a
// waiter unblocked by the call's completion observes the span as
// archived ("no span leaks" holds at quiescence). An ack-only call is
// not a round trip: it has no start time.
func (l *Locality) resolve(pc *pendingCall, body []byte, err error) {
	if err != nil {
		l.rpcErrors.Inc()
		pc.sp.SetErr(err)
	}
	pc.sp.End()
	if !pc.start.IsZero() {
		l.rpcRT.Observe(time.Since(pc.start))
	}
	if pc.fut != nil {
		pc.fut.fulfill(body, err)
	}
}

// Locality is one runtime process: the unit that owns an address
// space in the application model. It multiplexes RPC methods, one-way
// messages and promises over a single transport endpoint.
type Locality struct {
	ep transport.Endpoint

	// pool runs every per-message function (Go): handlers start on stacks
	// already grown by their predecessors instead of growing a fresh one.
	pool gopool.Pool

	mu      sync.RWMutex
	methods map[string]Method
	inlined map[string]bool // the methods registered with HandleInline
	oneWays map[string]OneWay

	// links holds, per peer rank, this locality's half of the link to it
	// (link.go): the one place a frame's delivery is tracked.
	links []link

	nextPromise atomic.Uint64
	promises    promiseTable

	// reg is the locality-wide metrics registry: the endpoint, the RPC
	// layer, the scheduler and the data item manager all publish into
	// it, making it the one source of truth readers of the runtime have.
	reg           *metrics.Registry
	rpcCalls      *metrics.Counter
	rpcErrors     *metrics.Counter
	rpcOneWays    *metrics.Counter
	rpcRetries    *metrics.Counter
	rpcTimeouts   *metrics.Counter
	rpcDups       *metrics.Counter
	rpcFenced     *metrics.Counter
	rpcAckFrames  *metrics.Counter
	rpcCallFrames *metrics.Counter
	rpcInline     *metrics.Counter
	promisesNamed *metrics.Counter
	rpcRT         *metrics.Histogram
	tracer        atomic.Pointer[trace.Tracer]

	// profile holds the locality's default control/data delivery
	// policies.
	profile atomic.Pointer[CallProfile]

	// peers holds, per rank, this locality's view of it: its PeerState
	// and its fence epoch in one word (peer.go). heard records, per peer,
	// the UnixNano timestamp of the last inbound message of any kind — the
	// substrate of heartbeat failure detection.
	peers []atomic.Uint64
	heard []atomic.Int64

	// epoch is this locality's incarnation epoch: the largest fence
	// epoch it has adopted. Every outbound frame is stamped with it.
	epoch atomic.Uint64

	// deathMu guards the subscriber list; the callbacks themselves run
	// outside the lock.
	deathMu    sync.Mutex
	onPeerFail []func(peer int, err error)

	closed atomic.Bool
}

// NewLocality wraps a transport endpoint. The caller must install all
// methods before traffic starts (for the in-process fabric: before
// Fabric.Start).
func NewLocality(ep transport.Endpoint) *Locality {
	reg := metrics.NewRegistry()
	l := &Locality{
		ep:            ep,
		methods:       make(map[string]Method, 16), // a core system registers 15: set up without regrowing
		inlined:       make(map[string]bool),
		oneWays:       make(map[string]OneWay),
		reg:           reg,
		rpcCalls:      reg.Counter(MetricRPCCalls),
		rpcErrors:     reg.Counter(MetricRPCErrors),
		rpcOneWays:    reg.Counter(MetricRPCOneWays),
		rpcRetries:    reg.Counter(MetricRPCRetries),
		rpcTimeouts:   reg.Counter(MetricRPCTimeouts),
		rpcDups:       reg.Counter(MetricRPCDuplicates),
		rpcFenced:     reg.Counter(MetricRPCFencedFrames),
		rpcAckFrames:  reg.Counter(MetricRPCAckFrames),
		rpcCallFrames: reg.Counter(MetricRPCCallFrames),
		rpcInline:     reg.Counter(MetricRPCInline),
		promisesNamed: reg.Counter(MetricPromisesNamed),
		rpcRT:         reg.Histogram(MetricRPCRoundtrip),
		links:         make([]link, ep.Size()),
		peers:         make([]atomic.Uint64, ep.Size()),
		heard:         make([]atomic.Int64, ep.Size()),
	}
	prof := DefaultCallProfile()
	l.profile.Store(&prof)
	now := time.Now().UnixNano()
	for i := range l.heard {
		l.heard[i].Store(now)
		l.links[i].loc, l.links[i].peer = l, i
	}
	ep.SetMetrics(reg)
	ep.SetHandler(l.dispatch)
	ep.SetFailureHandler(l.peerFailure)
	return l
}

// Metrics returns the locality-wide metrics registry.
func (l *Locality) Metrics() *metrics.Registry { return l.reg }

// SetTracer attaches a tracer (nil disables tracing). Install it
// before traffic starts so every span lands in one tracer.
func (l *Locality) SetTracer(t *trace.Tracer) { l.tracer.Store(t) }

// Tracer returns the attached tracer (nil when tracing is off).
func (l *Locality) Tracer() *trace.Tracer { return l.tracer.Load() }

// peerFailure runs on a transport goroutine when the fabric reports
// the link to a peer as broken: every call waiting on that rank fails
// with ErrPeerFailed instead of hanging on an answer that may never
// arrive. The link keeps its frames and resends them, so a peer that is
// still alive gets each of them once over the redial.
func (l *Locality) peerFailure(peer int, cause error) {
	if peer >= 0 && peer < len(l.links) {
		l.links[peer].failCalls(fmt.Errorf("%w: rank %d: %v", ErrPeerFailed, peer, cause), true)
	}
	l.deathMu.Lock()
	subs := make([]func(int, error), len(l.onPeerFail))
	copy(subs, l.onPeerFail)
	l.deathMu.Unlock()
	for _, fn := range subs {
		fn(peer, cause)
	}
}

// OnPeerFailure subscribes to transport link-failure notifications
// (see transport.FailureHandler: per-connection events, not permanent
// verdicts). Callbacks run on transport goroutines and must not block.
func (l *Locality) OnPeerFailure(fn func(peer int, err error)) {
	l.deathMu.Lock()
	l.onPeerFail = append(l.onPeerFail, fn)
	l.deathMu.Unlock()
}

// Epoch returns the locality's incarnation epoch (the largest fence
// epoch adopted so far; 0 before any death).
func (l *Locality) Epoch() uint64 { return l.epoch.Load() }

// adoptEpoch raises the local epoch to e (monotonic).
func (l *Locality) adoptEpoch(e uint64) {
	for {
		cur := l.epoch.Load()
		if e <= cur || l.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// LastHeard returns the time of the last inbound message from the
// peer (of any kind, heartbeats included). Before any traffic it
// reports the locality's creation time.
func (l *Locality) LastHeard(rank int) time.Time {
	if rank < 0 || rank >= len(l.heard) {
		return time.Time{}
	}
	return time.Unix(0, l.heard[rank].Load())
}

// Heartbeat sends dst the link's pure ack — the last number the link
// gave a frame and the current cumulative ack, taken in stream order like
// any ack — outside the link's send lock. Its receipt refreshes this
// rank's last-heard timestamp at dst; it is not the owed ack.
func (l *Locality) Heartbeat(dst int) error {
	if dst == l.Rank() {
		return nil
	}
	k, err := l.linkTo(dst)
	if err != nil {
		return err
	}
	k.mu.Lock()
	frame := appendHeader(nil, linkHeader{Seq: k.next, Ack: k.ackLocked(), Epoch: l.epoch.Load()})
	k.mu.Unlock()
	return l.ep.Send(dst, kindAcks, frame)
}

// Closed reports whether Close has been called.
func (l *Locality) Closed() bool { return l.closed.Load() }

func errClosed(rank int) error { return fmt.Errorf("runtime: locality %d closed", rank) }

func timeoutErr(method string, dst int) error {
	return fmt.Errorf("%w: %q to rank %d", ErrCallTimeout, method, dst)
}

// Rank returns the locality's process rank.
func (l *Locality) Rank() int { return l.ep.Rank() }

// Size returns the number of localities in the system.
func (l *Locality) Size() int { return l.ep.Size() }

// Handle registers the RPC method name.
func (l *Locality) Handle(name string, m Method) { l.handle(name, m, false) }

// HandleInline registers the RPC method name to be served in frame order:
// an ack-only request to it runs on the goroutine that delivered it,
// before the frame behind it. Its handler neither waits nor sends — it
// hands what would to Go (DESIGN.md §6d "Served in frame order").
func (l *Locality) HandleInline(name string, m Method) { l.handle(name, m, true) }

func (l *Locality) handle(name string, m Method, inline bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.methods[name]; dup {
		panic(fmt.Sprintf("runtime: method %q registered twice", name))
	}
	l.methods[name] = m
	if inline {
		l.inlined[name] = true
	}
}

// HandleOneWay registers the one-way message handler name.
func (l *Locality) HandleOneWay(name string, h OneWay) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.oneWays[name]; dup {
		panic(fmt.Sprintf("runtime: one-way %q registered twice", name))
	}
	l.oneWays[name] = h
}

// Go runs f on a reused goroutine of the locality (gopool): the
// replacement for a go statement wherever one function runs per
// message or per ship. Concurrency is unbounded, as with go.
func (l *Locality) Go(f func()) { l.pool.Go(f) }

// dispatch runs on a transport delivery goroutine. It puts each frame
// of a link in number order and takes in the ack it carries; a request
// or one-way is then handed to a goroutine of its own, so that a
// blocking handler can never stall delivery (and in particular never
// deadlock an RPC cycle), while a reply, and an ack-only request to a
// method registered with HandleInline, are served here.
func (l *Locality) dispatch(msg transport.Message) {
	if l.Peer(msg.From).Gone() {
		// Fenced: a rank declared dead may in fact be alive across a
		// healed partition, and a departed rank may have straggler
		// frames in flight. Either way the frames are rejected before
		// touching any state — not even the heartbeat timestamp, so the
		// sender can neither mutate the index nor talk itself back in.
		l.rpcFenced.Inc()
		return
	}
	if msg.From < 0 || msg.From >= len(l.links) {
		return
	}
	l.heard[msg.From].Store(time.Now().UnixNano())
	if l.closed.Load() {
		return
	}
	h, body, ok := readHeader(msg.Payload)
	if !ok {
		return
	}
	k := &l.links[msg.From]
	if msg.Kind == kindAcks {
		if l.staleEpoch(msg.From, h.Epoch) {
			return
		}
		var buf [8]*Future
		done := buf[:0]
		k.mu.Lock()
		if !k.gone && k.delivered >= h.Seq {
			done = k.ackedLocked(h.Ack, done)
		}
		k.mu.Unlock()
		for _, f := range done {
			f.fulfill(nil, nil)
		}
		return
	}
	for {
		var buf [8]*Future
		done := buf[:0]
		k.mu.Lock()
		if k.gone {
			k.mu.Unlock()
			return
		}
		switch {
		case h.Seq <= k.delivered:
			// The peer resends what it has not seen acked: the ack goes
			// again.
			l.rpcDups.Inc()
			k.reack = true
			k.oweLocked()
			k.mu.Unlock()
			return
		case h.Seq > k.delivered+1:
			if _, dup := k.held[h.Seq]; dup {
				l.rpcDups.Inc()
			} else {
				if k.held == nil {
					k.held = make(map[uint64]transport.Message)
				}
				k.held[h.Seq] = msg
			}
			k.mu.Unlock()
			return
		}
		k.delivered = h.Seq
		stale := l.staleEpoch(msg.From, h.Epoch)
		if !stale {
			done = k.ackedLocked(h.Ack, done)
		}
		var pc pendingCall
		var call bool
		var rsp rpcResponse
		var refused *Future
		switch msg.Kind {
		case kindRequest:
			l.rpcCallFrames.Inc()
			if h.AckOnly {
				k.busy = append(k.busy, h.Seq)
			}
		case kindResponse:
			l.rpcCallFrames.Inc()
			if !stale && decodeResponse(body, &rsp) == nil {
				if pc, call = k.calls[rsp.ID]; call {
					delete(k.calls, rsp.ID)
				} else if rsp.Err != "" {
					refused = k.refusedLocked(rsp.ID)
				}
			}
		}
		k.oweLocked()
		next, more := k.held[k.delivered+1]
		if more {
			delete(k.held, k.delivered+1)
		}
		k.mu.Unlock()
		// An ack-only call's error reply precedes any ack that covers it.
		if refused != nil {
			refused.fulfill(nil, errors.New(rsp.Err))
		}
		for _, f := range done {
			f.fulfill(nil, nil)
		}
		switch {
		case msg.Kind == kindRequest && (!stale || h.AckOnly):
			// A fenced request runs nothing and is not answered — unless
			// only an ack was asked for, which would tell it succeeded.
			from, seq, ackOnly, b := msg.From, h.Seq, h.AckOnly, body
			if ackOnly && !stale && l.inline(b) {
				l.rpcInline.Inc()
				l.serve(k, from, seq, true, false, true, b)
			} else {
				l.Go(func() { l.serve(k, from, seq, ackOnly, stale, false, b) })
			}
		case call:
			var err error
			if rsp.Err != "" {
				err = errors.New(rsp.Err)
			}
			l.resolve(&pc, rsp.Body, err)
		case msg.Kind == kindOneWay && !stale:
			from, b := msg.From, body
			l.Go(func() { l.serveOneWay(from, b) })
		}
		if !more {
			return
		}
		msg = next
		h, body, _ = readHeader(msg.Payload) // read when it was held
	}
}

// decodeResponse decodes a reply through a decoder on the stack.
func decodeResponse(frame []byte, rsp *rpcResponse) error {
	var d wire.Decoder
	if err := d.Reset(frame); err != nil {
		return err
	}
	rsp.UnmarshalWire(&d)
	return d.Finish()
}

// refusedLocked ends the unacked ack-only call seq, whose handler failed
// at the peer, which answered before acking it; it returns the call's
// future, for the caller to fail once it has let go of the lock.
func (k *link) refusedLocked(seq uint64) *Future {
	for i := range k.out {
		if f := &k.out[i]; f.seq == seq && f.waits {
			k.loc.rpcErrors.Inc()
			fut := f.fut
			f.waits, f.fut = false, nil
			return fut
		}
	}
	return nil
}

// staleEpoch reports (and counts) a frame from a sender that is gone or
// whose stamped epoch predates its fence.
func (l *Locality) staleEpoch(from int, epoch uint64) bool {
	if from < 0 || from >= len(l.peers) {
		return false
	}
	if w := l.peers[from].Load(); PeerState(w&stateMask).Gone() || epoch < w>>stateBits {
		l.rpcFenced.Inc()
		return true
	}
	return false
}

// inline reports whether a request frame calls a method registered with
// HandleInline.
func (l *Locality) inline(frame []byte) bool {
	var d wire.Decoder
	d.Reset(frame) // a malformed frame names no method, and serve refuses it
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inlined[string(d.Bytes())]
}

// serve runs the handler of request seq from rank from and answers it
// on the link. An ack-only request that succeeded gets no reply: the
// link's ack passes it once the handler has returned. An ack-only
// request stamped under a fenced epoch runs nothing and is answered
// with an error. Run inline on a delivery goroutine, serve hands a reply
// to a goroutine of its own: delivery never waits on a send.
func (l *Locality) serve(k *link, from int, seq uint64, ackOnly, fenced, inline bool, frame []byte) {
	var rsp rpcResponse
	var d wire.Decoder
	d.Reset(frame)
	method, span, body := readRequest(&d)
	switch err := d.Finish(); {
	case err != nil:
		rsp.Err = fmt.Sprintf("runtime: malformed request from rank %d: %v", from, err)
	case fenced:
		rsp.Err = fmt.Sprintf("runtime: request from rank %d fenced", from)
	default:
		l.mu.RLock()
		m := l.methods[string(method)]
		l.mu.RUnlock()
		// The serve span parents on the caller's rpc.call span ID from the
		// wire envelope, stitching the cross-rank causality edge. It ends
		// before the response is sent so the caller never outruns it.
		var sp *trace.Span
		if tr := l.Tracer(); tr != nil {
			sp = tr.Begin("rpc.serve", string(method), trace.SpanID(span))
		}
		if m == nil {
			rsp.Err = fmt.Sprintf("runtime: no method %q at rank %d", method, l.Rank())
		} else if rsp.Body, err = m(from, body); err != nil {
			rsp.Err = err.Error()
		}
		if rsp.Err != "" {
			sp.SetErr(errors.New(rsp.Err))
		}
		sp.End()
	}
	if !ackOnly || rsp.Err != "" {
		rsp.ID = seq
		frame := make([]byte, 1, 1+2*binary.MaxVarintLen64+len(rsp.Err)+len(rsp.Body)+maxTrailer)
		frame[0] = wire.FormatBinary
		frame, _ = rsp.AppendWire(frame)
		if inline {
			l.Go(func() {
				k.transmit(kindResponse, frame, nil, nil)
				k.finish(seq)
			})
			return
		}
		k.transmit(kindResponse, frame, nil, nil)
	}
	if ackOnly {
		k.finish(seq)
	}
}

func (l *Locality) serveOneWay(from int, frame []byte) {
	var d wire.Decoder
	d.Reset(frame)
	method, body := d.Bytes(), d.Rest()
	if d.Finish() != nil {
		return
	}
	l.mu.RLock()
	h := l.oneWays[string(method)]
	l.mu.RUnlock()
	if h != nil {
		h(from, body)
	}
}

// CallAsync invokes method at locality dst and immediately returns a
// future for the wire-encoded response. The future fails with
// ErrPeerFailed if the transport reports dst as failed or dst is
// declared dead or departed while the call is outstanding, and with a
// close error if this locality shuts down first — it never hangs on a
// peer that will not answer. Calls to the local rank short-circuit the
// transport but still pass through encoding, keeping local and remote
// semantics identical.
//
// The request travels on the link to dst, which delivers it exactly
// once while both ranks live (link.go); a deadline (CallSpec) fails the
// future with ErrCallTimeout once it passes.
func (l *Locality) CallAsync(dst int, method string, args any, opts ...CallOption) *Future {
	fut := new(Future)
	l.request(dst, method, args, fut, opts)
	return fut
}

// Notify invokes method at locality dst as an ack-only call nobody waits
// for, as FulfillRemote does: the link resends it until dst acks it, and
// only dst's death or this locality's close drops it — a reported break
// does not, since no caller would hear of it.
func (l *Locality) Notify(dst int, method string, args any, opts ...CallOption) {
	l.request(dst, method, args, nil, opts)
}

// request encodes a call of method with args and sends it to rank dst:
// one whose outcome fut takes, or, without fut, an ack-only notice.
func (l *Locality) request(dst int, method string, args any, fut *Future, opts []CallOption) {
	var spec CallSpec
	for _, o := range opts {
		o.apply(&spec)
	}
	spec.ackOnly = spec.ackOnly || fut == nil
	pc := pendingCall{meth: method, fut: fut, sp: l.Tracer().Begin("rpc.call", method, spec.Parent)}
	frame := appendRequest(append(make([]byte, 0, 128+len(method)), wire.FormatBinary), method, uint64(pc.sp.SpanID()))
	head := len(frame)
	frame, err := wire.AppendEncode(frame, args)
	if err != nil {
		err = fmt.Errorf("runtime: encode args of %q: %w", method, err)
	}
	l.call(dst, frame, head, err, pc, spec)
}

// call sends the request frame of pc, whose body starts at head, to
// rank dst, failing pc with err when there is one. An ack-only call —
// pc.fut may then be nil, when nobody waits for it — has no deadline:
// its span ends once the link has taken the frame, like a one-way
// message's, and the link's ack resolves it — or a reported break, if
// anyone waits; a failed hand-off is the link's to resend.
func (l *Locality) call(dst int, frame []byte, head int, err error, pc pendingCall, spec CallSpec) {
	l.rpcCalls.Inc()
	if !spec.ackOnly {
		pc.start = time.Now()
		if spec.Deadline > 0 {
			pc.deadline = pc.start.Add(spec.Deadline).UnixNano()
		}
	}
	if err == nil && dst == l.Rank() {
		l.mu.RLock()
		m := l.methods[pc.meth]
		l.mu.RUnlock()
		if m == nil {
			l.resolve(&pc, nil, fmt.Errorf("runtime: no method %q at rank %d", pc.meth, dst))
			return
		}
		l.Go(func() {
			rsp, err := m(l.Rank(), frame[head:])
			l.resolve(&pc, rsp, err)
		})
		return
	}
	var k *link
	if err == nil {
		k, err = l.linkTo(dst)
	}
	if err != nil {
		l.resolve(&pc, nil, err)
		return
	}
	if spec.ackOnly {
		if seq, err := k.transmit(kindRequest, frame, pc.fut, nil); seq == 0 {
			l.resolve(&pc, nil, err)
		} else {
			pc.sp.End()
		}
		return
	}
	if seq, err := k.transmit(kindRequest, frame, nil, &pc); err != nil {
		if seq == 0 {
			l.resolve(&pc, nil, err)
		} else if pc, ok := k.takeCall(seq); ok {
			l.resolve(&pc, nil, err)
		}
	}
}

// PendingCalls returns the number of calls still unresolved — zero at
// quiescence (the chaos soak asserts no call is stranded).
func (l *Locality) PendingCalls() int {
	n := 0
	for i := range l.links {
		k := &l.links[i]
		k.mu.Lock()
		n += len(k.calls)
		for i := range k.out {
			if k.out[i].waits {
				n++
			}
		}
		k.mu.Unlock()
	}
	return n
}

// Call invokes method at locality dst, wire-encoding args and decoding
// the response into reply (which may be nil for methods without
// results). It shares CallAsync's failure semantics: a dead peer or a
// local shutdown fails the call with an error instead of hanging, and
// a deadline bounds it.
func (l *Locality) Call(dst int, method string, args, reply any, opts ...CallOption) error {
	body, err := l.CallAsync(dst, method, args, opts...).Wait()
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return wire.Decode(body, reply)
}

// Send delivers a one-way message to method at locality dst, on the link
// to dst like a call. It fails, counting into rpc.errors, only when the
// message is not taken: no encoding, no local handler, a gone peer or a
// closed locality. A failed hand-off is no error: the link resends.
func (l *Locality) Send(dst int, method string, args any) error {
	l.rpcOneWays.Inc()
	if dst == l.Rank() {
		body, err := wire.Encode(args)
		if err != nil {
			l.rpcErrors.Inc()
			return fmt.Errorf("runtime: encode args of %q: %w", method, err)
		}
		l.mu.RLock()
		h := l.oneWays[method]
		l.mu.RUnlock()
		if h == nil {
			l.rpcErrors.Inc()
			return fmt.Errorf("runtime: no one-way %q at rank %d", method, dst)
		}
		l.Go(func() { h(l.Rank(), body) })
		return nil
	}
	k, err := l.linkTo(dst)
	if err == nil {
		frame := wire.AppendString(append(make([]byte, 0, 64+len(method)), wire.FormatBinary), method)
		if frame, err = wire.AppendEncode(frame, args); err != nil {
			err = fmt.Errorf("runtime: encode args of %q: %w", method, err)
		} else if seq, terr := k.transmit(kindOneWay, frame, nil, nil); seq == 0 {
			err = terr
		}
	}
	if err != nil {
		l.rpcErrors.Inc()
	}
	return err
}

// linkTo returns the link a call or one-way toward rank dst takes, or
// why there is none.
func (l *Locality) linkTo(dst int) (*link, error) {
	switch st := l.Peer(dst); {
	case l.closed.Load():
		return nil, errClosed(l.Rank())
	case st.Gone():
		return nil, errGone(dst, st)
	case dst < 0 || dst >= len(l.links):
		return nil, fmt.Errorf("runtime: rank %d out of range", dst)
	}
	return &l.links[dst], nil
}

// Close shuts the locality's endpoint down and fails every still
// outstanding call and every unfulfilled local promise — responses
// and fulfillments can no longer arrive, so leaving them pending
// would strand their waiters forever. Failing the promises also lets
// a crashed ("killed") locality's still-running task goroutines
// unwind instead of blocking on child futures. The acks owed to peers
// leave first: a call that ran here must not fail at its caller.
func (l *Locality) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	for i := range l.links {
		l.links[i].flushAck()
	}
	err := l.ep.Close()
	l.pool.Close()
	for i := range l.links {
		l.links[i].failCalls(errClosed(l.Rank()), false)
	}
	l.promises.failAll(fmt.Errorf("runtime: locality %d closed with promise outstanding", l.Rank()))
	return err
}
