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
	kindRequest = "rpc.req"
	// kindRequestDedup carries retryable non-idempotent requests. The
	// separate kind lets dispatch register them in the dedup window in
	// delivery order — on a FIFO transport a duplicate then always
	// observes the window before any later frame whose ack watermark
	// could evict its entry — while plain requests skip the window
	// entirely.
	kindRequestDedup = "rpc.reqd"
	kindResponse     = "rpc.rsp"
	kindOneWay       = "msg"
	// kindAcks carries acks owed that found no envelope to ride on
	// (acks.go).
	kindAcks = "rpc.acks"
)

type rpcRequest struct {
	ID     uint64
	Method string
	Body   []byte
	// Span carries the caller's rpc.call span ID so the serving rank
	// can parent its rpc.serve span across the wire (0 = untraced).
	Span uint64
	// Epoch is the sender's incarnation epoch at send time; receivers
	// drop frames whose epoch is older than the fence recorded for the
	// sending rank (partition fencing, DESIGN.md §6d).
	Epoch uint64
	// Ack is the caller's dedup watermark for this destination: every
	// call ID ≤ Ack is resolved at the caller and can be evicted from
	// the server's dedup window.
	Ack uint64
	// AckOnly asks for no reply frame on success (AckOnly, acks.go).
	AckOnly bool
	// Acks are the IDs of the receiver's ack-only calls that succeeded
	// at the sender.
	Acks ackIDs
}

type rpcResponse struct {
	ID    uint64
	Body  []byte
	Err   string
	Epoch uint64
	Acks  ackIDs
}

type oneWayMsg struct {
	Method string
	Body   []byte
	Epoch  uint64
}

// ErrPeerFailed marks RPC errors caused by the transport reporting
// the destination rank as failed while the call was outstanding;
// callers distinguish it from application errors via errors.Is.
var ErrPeerFailed = errors.New("runtime: peer failed")

// ErrCallTimeout marks RPC errors caused by a call exhausting its
// deadline or retry budget (CallSpec) without a response.
var ErrCallTimeout = errors.New("runtime: call timed out")

// Registry names under which the RPC layer publishes its metrics.
const (
	MetricRPCCalls     = "rpc.calls"
	MetricRPCErrors    = "rpc.errors"
	MetricRPCRoundtrip = "rpc.roundtrip"
	// MetricRPCOneWays counts one-way sends (local and remote).
	MetricRPCOneWays = "rpc.oneways"
	// MetricRPCRetries counts request frames resent by supervision.
	MetricRPCRetries = "rpc.retries"
	// MetricRPCTimeouts counts calls failed by deadline/retry exhaustion.
	MetricRPCTimeouts = "rpc.timeouts"
	// MetricRPCDedupReplays counts duplicate requests answered from the
	// dedup window's reply cache without re-executing the handler.
	MetricRPCDedupReplays = "rpc.dedup.replays"
	// MetricRPCDedupSuppressed counts duplicate requests dropped while
	// the first execution was still in flight.
	MetricRPCDedupSuppressed = "rpc.dedup.suppressed"
	// MetricRPCFencedFrames counts inbound frames rejected because the
	// sending rank is fenced (marked dead / stale incarnation epoch).
	MetricRPCFencedFrames = "rpc.fenced_frames"
	// MetricRPCAckFrames counts rpc.acks frames sent: owed acks that
	// found no request or response to ride on within ackDelay.
	MetricRPCAckFrames = "rpc.ack_frames"
	// MetricRPCCallFrames counts the request and reply frames taken in
	// from peers, as dispatch takes them and before any handler or
	// waiting caller sees them: once a protocol's calls are settled, its
	// frames are counted, and no one-way or ack frame is among them.
	MetricRPCCallFrames = "rpc.call_frames"
	// MetricPromisesNamed counts the futures entered in the promise
	// table (NamePromise): one per task that left the rank it was
	// spawned on.
	MetricPromisesNamed = "runtime.promises_named"
)

// pendingCall is one outstanding RPC: the future its response (or
// failure) resolves, plus the destination rank so a peer-failure
// notification can fail exactly the calls targeting the dead rank.
// The rpc.call span and start time ride along so the resolver — the
// response dispatch or a failure path — can close the span and feed
// the round-trip histogram.
type pendingCall struct {
	dst   int
	id    uint64
	meth  string
	fut   *Future
	sp    *trace.Span
	start time.Time
	// tracked means the call registered in the per-destination ack
	// state (retryable + dedup'd); resolve must deregister it.
	tracked bool
	// ackOnly marks an AckOnly call: a deferred ack may resolve it, its
	// span ended at the hand-off to the transport (sp is nil), and its
	// completion is not a round trip.
	ackOnly bool
	// timer is the current supervision timer (deadline or next-resend);
	// resolve stops it so fault-free calls leave no timer behind.
	timer atomic.Pointer[time.Timer]
}

// resolve finishes the call's instrumentation and fulfills its
// future. The span is ended before the fulfill so that a waiter
// unblocked by the call's completion observes the span as archived
// ("no span leaks" holds at quiescence).
func (l *Locality) resolve(pc *pendingCall, body []byte, err error) {
	if t := pc.timer.Load(); t != nil {
		t.Stop()
	}
	if pc.tracked {
		l.acks[pc.dst].done(pc.id)
	}
	if err != nil {
		l.rpcErrors.Inc()
		pc.sp.SetErr(err)
	}
	pc.sp.End()
	if !pc.ackOnly {
		l.rpcRT.Observe(time.Since(pc.start))
	}
	pc.fut.fulfill(body, err)
}

// Locality is one runtime process: the unit that owns an address
// space in the application model. It multiplexes RPC methods, one-way
// messages and promises over a single transport endpoint.
type Locality struct {
	ep transport.Endpoint

	// pool runs every per-message function (Go): handlers start on stacks
	// already grown by their predecessors instead of growing a fresh one.
	pool gopool.Pool

	mu       sync.RWMutex
	methods  map[string]Method
	oneWays  map[string]OneWay
	nextCall atomic.Uint64
	calls    sync.Map // call id -> *pendingCall

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
	rpcReplays    *metrics.Counter
	rpcSuppressed *metrics.Counter
	rpcFenced     *metrics.Counter
	rpcAckFrames  *metrics.Counter
	rpcCallFrames *metrics.Counter
	promisesNamed *metrics.Counter
	rpcRT         *metrics.Histogram
	tracer        atomic.Pointer[trace.Tracer]

	// profile holds the locality's default control/data delivery
	// policies; dedup is the server side of exactly-once effects and
	// acks the client side (per-destination watermarks). owed holds, per
	// caller rank, the deferred acks of its ack-only calls (acks.go).
	profile atomic.Pointer[CallProfile]
	dedup   *dedupState
	acks    []ackState
	owed    []ackQueue

	// peers holds, per rank, this locality's view of it: its PeerState
	// and its fence epoch in one word (peer.go). heard records, per peer,
	// the UnixNano timestamp of the last inbound message of any kind — the
	// substrate of heartbeat failure detection.
	peers []atomic.Uint64
	heard []atomic.Int64

	// epoch is this locality's incarnation epoch: the largest fence
	// epoch it has adopted. Every outbound envelope is stamped with it.
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
		methods:       make(map[string]Method),
		oneWays:       make(map[string]OneWay),
		reg:           reg,
		rpcCalls:      reg.Counter(MetricRPCCalls),
		rpcErrors:     reg.Counter(MetricRPCErrors),
		rpcOneWays:    reg.Counter(MetricRPCOneWays),
		rpcRetries:    reg.Counter(MetricRPCRetries),
		rpcTimeouts:   reg.Counter(MetricRPCTimeouts),
		rpcReplays:    reg.Counter(MetricRPCDedupReplays),
		rpcSuppressed: reg.Counter(MetricRPCDedupSuppressed),
		rpcFenced:     reg.Counter(MetricRPCFencedFrames),
		rpcAckFrames:  reg.Counter(MetricRPCAckFrames),
		rpcCallFrames: reg.Counter(MetricRPCCallFrames),
		promisesNamed: reg.Counter(MetricPromisesNamed),
		rpcRT:         reg.Histogram(MetricRPCRoundtrip),
		dedup:         newDedupState(defaultDedupWindow),
		acks:          make([]ackState, ep.Size()),
		owed:          make([]ackQueue, ep.Size()),
		peers:         make([]atomic.Uint64, ep.Size()),
		heard:         make([]atomic.Int64, ep.Size()),
	}
	prof := DefaultCallProfile()
	l.profile.Store(&prof)
	now := time.Now().UnixNano()
	for i := range l.heard {
		l.heard[i].Store(now)
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
// the link to a peer as broken: every outstanding call targeting that
// rank fails with ErrPeerFailed instead of hanging on a response that
// will never arrive.
func (l *Locality) peerFailure(peer int, cause error) {
	l.failCalls(func(dst int) bool { return dst == peer },
		fmt.Errorf("%w: rank %d: %v", ErrPeerFailed, peer, cause))
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

// Heartbeat sends one liveness probe frame to dst. Probes bypass the
// RPC layer entirely: no body, no response, no pending-call state —
// their receipt refreshes the sender's last-heard timestamp at dst.
func (l *Locality) Heartbeat(dst int) error {
	if dst == l.Rank() {
		return nil
	}
	if l.closed.Load() {
		return fmt.Errorf("runtime: locality %d closed", l.Rank())
	}
	if st := l.Peer(dst); st.Gone() {
		return errGone(dst, st)
	}
	return l.ep.Send(dst, transport.KindHeartbeat, nil)
}

// Closed reports whether Close has been called.
func (l *Locality) Closed() bool { return l.closed.Load() }

// failCalls resolves every outstanding call whose destination matches
// with err. LoadAndDelete makes each call fail at most once even when
// racing with an in-flight response (Future.fulfill is idempotent as
// a second line of defense).
func (l *Locality) failCalls(match func(dst int) bool, err error) {
	l.calls.Range(func(k, v any) bool {
		pc := v.(*pendingCall)
		if match(pc.dst) {
			if _, ok := l.calls.LoadAndDelete(k); ok {
				l.resolve(pc, nil, err)
			}
		}
		return true
	})
}

// Rank returns the locality's process rank.
func (l *Locality) Rank() int { return l.ep.Rank() }

// Size returns the number of localities in the system.
func (l *Locality) Size() int { return l.ep.Size() }

// Handle registers the RPC method name.
func (l *Locality) Handle(name string, m Method) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.methods[name]; dup {
		panic(fmt.Sprintf("runtime: method %q registered twice", name))
	}
	l.methods[name] = m
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

// dispatch runs on the transport delivery goroutine; every message is
// handed to a goroutine of its own so that a blocking handler can
// never stall delivery (and in particular never deadlock an RPC cycle).
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
	if msg.From >= 0 && msg.From < len(l.heard) {
		l.heard[msg.From].Store(time.Now().UnixNano())
	}
	if l.closed.Load() {
		return
	}
	if msg.Kind == kindRequest || msg.Kind == kindRequestDedup || msg.Kind == kindResponse {
		l.rpcCallFrames.Inc()
	}
	switch msg.Kind {
	case transport.KindHeartbeat:
		// Liveness probe: the timestamp update above is its entire effect.
	case kindRequest:
		l.Go(func() { l.serveRequest(msg) })
	case kindResponse:
		var rsp rpcResponse
		if err := wire.Decode(msg.Payload, &rsp); err != nil {
			return
		}
		if l.staleEpoch(msg.From, rsp.Epoch) {
			return
		}
		l.settleAcks(msg.From, rsp.Acks)
		if pc := l.claim(msg.From, rsp.ID, false); pc != nil {
			var err error
			if rsp.Err != "" {
				err = errors.New(rsp.Err)
			}
			l.resolve(pc, rsp.Body, err)
		}
	case kindRequestDedup:
		l.dispatchDedup(msg)
	case kindOneWay:
		l.Go(func() { l.serveOneWay(msg) })
	case kindAcks:
		var f ackFrame
		if wire.Decode(msg.Payload, &f) == nil && !l.staleEpoch(msg.From, f.Epoch) {
			l.settleAcks(msg.From, f.IDs)
		}
	}
}

// dispatchDedup handles an inbound dedup'd request. It runs on the
// delivery goroutine so the window observes frames in delivery order:
// on a FIFO transport a duplicate then always finds the original's
// entry before any later frame's ack watermark can evict it. Only the
// handler execution is handed to its own goroutine.
func (l *Locality) dispatchDedup(msg transport.Message) {
	var req rpcRequest
	if err := wire.Decode(msg.Payload, &req); err != nil {
		return
	}
	if l.staleEpoch(msg.From, req.Epoch) {
		return
	}
	l.settleAcks(msg.From, req.Acks)
	cached, replay, inflight := l.dedup.observe(msg.From, req.ID, req.Ack, time.Now())
	if inflight {
		// The first execution is still running; drop the duplicate —
		// the caller retries again after the reply lands in the cache.
		l.rpcSuppressed.Inc()
		return
	}
	if replay {
		l.rpcReplays.Inc()
		if cached == nil {
			// An ack-only call caches no reply. A resend means its caller
			// has not seen the ack, so it is answered now, at once.
			cached, _ = wire.Encode(&rpcResponse{ID: req.ID, Epoch: l.epoch.Load()})
		}
		// Off the delivery goroutine: a blocked peer inbox must not
		// stall delivery of everything queued behind this frame.
		l.Go(func() { l.ep.Send(msg.From, kindResponse, cached) })
		return
	}
	l.Go(func() { l.serveDedup(msg.From, &req) })
}

// staleEpoch reports (and counts) a frame from a sender that is gone or
// whose stamped epoch predates its fence. It backstops dispatch's
// rejection of gone senders for frames already handed to a serve
// goroutine when the sender's state moved.
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

// serveRequest decodes, executes and answers one inbound plain request.
func (l *Locality) serveRequest(msg transport.Message) {
	var req rpcRequest
	if err := wire.Decode(msg.Payload, &req); err != nil {
		return
	}
	if l.staleEpoch(msg.From, req.Epoch) {
		return
	}
	l.settleAcks(msg.From, req.Acks)
	if payload := l.execRequest(msg.From, &req, false); payload != nil {
		l.ep.Send(msg.From, kindResponse, payload)
	}
}

// serveDedup is serveRequest's counterpart for dedup'd requests,
// whose envelope was already decoded and window-registered by
// dispatch.
func (l *Locality) serveDedup(from int, req *rpcRequest) {
	if payload := l.execRequest(from, req, true); payload != nil {
		l.ep.Send(from, kindResponse, payload)
	}
}

// execRequest runs the handler for one request and encodes the
// response frame, with the acks owed to the caller in its trailer; for
// dedup'd calls the frame is also parked in the reply cache so
// duplicates replay it byte-identically. An ack-only call that
// succeeded gets no frame: its ID is owed to the caller instead.
func (l *Locality) execRequest(from int, req *rpcRequest, dedup bool) []byte {
	l.mu.RLock()
	m := l.methods[req.Method]
	l.mu.RUnlock()
	// The serve span parents on the caller's rpc.call span ID from the
	// wire envelope, stitching the cross-rank causality edge. It ends
	// before the response is sent so the caller never outruns it.
	sp := l.Tracer().Begin("rpc.serve", req.Method, trace.SpanID(req.Span))
	var body []byte
	var errStr string
	if m == nil {
		errStr = fmt.Sprintf("runtime: no method %q at rank %d", req.Method, l.Rank())
	} else {
		var err error
		if body, err = m(from, req.Body); err != nil {
			errStr = err.Error()
		}
	}
	if errStr != "" {
		sp.SetErr(errors.New(errStr))
	}
	sp.End()
	if req.AckOnly && errStr == "" {
		if dedup {
			l.dedup.complete(from, req.ID, nil, time.Now())
		}
		l.owe(from, req.ID)
		return nil
	}
	// Stamp the response epoch after the handler ran: a handler that
	// adopts a new incarnation epoch (the join handshake) must answer
	// under the new epoch, or the caller's fence rejects the reply.
	rsp := rpcResponse{ID: req.ID, Body: body, Err: errStr, Epoch: l.epoch.Load()}
	payload, err := l.stamp(from, &rsp, &rsp.Acks)
	if err != nil {
		return nil
	}
	if dedup {
		l.dedup.complete(from, req.ID, payload, time.Now())
	}
	return payload
}

func (l *Locality) serveOneWay(msg transport.Message) {
	var ow oneWayMsg
	if err := wire.Decode(msg.Payload, &ow); err != nil {
		return
	}
	if l.staleEpoch(msg.From, ow.Epoch) {
		return
	}
	l.mu.RLock()
	h := l.oneWays[ow.Method]
	l.mu.RUnlock()
	if h != nil {
		h(msg.From, ow.Body)
	}
}

// CallAsync invokes method at locality dst and immediately returns a
// future for the wire-encoded response. The future fails with
// ErrPeerFailed if the transport reports dst as dead while the call
// is outstanding, and with a close error if this locality shuts down
// first — it never hangs on a peer that will not answer. Calls to the
// local rank short-circuit the transport but still pass through
// encoding, keeping local and remote semantics identical (the delivery
// policy is ignored locally: a local call cannot be lost).
//
// With options (see CallSpec) the call is supervised: after the
// per-attempt timeout the identical request frame is resent under the
// same call ID, and the future fails with ErrCallTimeout once the
// deadline or retry budget is exhausted. Retried non-idempotent calls
// travel under the dedup kind so the server executes the handler
// exactly once.
func (l *Locality) CallAsync(dst int, method string, args any, opts ...CallOption) *Future {
	fut := new(Future)
	l.rpcCalls.Inc()
	body, err := wire.Encode(args)
	if err != nil {
		fut.fulfill(nil, fmt.Errorf("runtime: encode args of %q: %w", method, err))
		return fut
	}
	var spec CallSpec
	for _, o := range opts {
		o(&spec)
	}
	if dst == l.Rank() {
		l.mu.RLock()
		m := l.methods[method]
		l.mu.RUnlock()
		if m == nil {
			l.rpcErrors.Inc()
			fut.fulfill(nil, fmt.Errorf("runtime: no method %q at rank %d", method, dst))
			return fut
		}
		pc := &pendingCall{dst: dst, fut: fut,
			sp: l.Tracer().Begin("rpc.call", method, spec.Parent), start: time.Now()}
		l.Go(func() {
			rsp, err := m(l.Rank(), body)
			l.resolve(pc, rsp, err)
		})
		return fut
	}
	if l.closed.Load() {
		l.rpcErrors.Inc()
		fut.fulfill(nil, fmt.Errorf("runtime: locality %d closed", l.Rank()))
		return fut
	}
	if st := l.Peer(dst); st.Gone() {
		l.rpcErrors.Inc()
		fut.fulfill(nil, errGone(dst, st))
		return fut
	}
	if dst < 0 || dst >= len(l.owed) {
		l.rpcErrors.Inc()
		fut.fulfill(nil, fmt.Errorf("runtime: rank %d out of range", dst))
		return fut
	}
	spec.normalize()
	req := rpcRequest{Method: method, Body: body, Epoch: l.epoch.Load(), AckOnly: spec.ackOnly}
	kind := kindRequest
	if tracked := spec.Retries > 0 && !spec.Idempotent; tracked {
		// Retryable non-idempotent: the ID is allocated inside the ack
		// state's lock so the piggybacked watermark can never cover an
		// ID that has not been registered yet, and the frame travels
		// under the dedup kind so the server observes it in delivery
		// order.
		req.ID, req.Ack = l.acks[dst].beginAlloc(&l.nextCall)
		kind = kindRequestDedup
	} else {
		req.ID = l.nextCall.Add(1)
	}
	id := req.ID
	sp := l.Tracer().Begin("rpc.call", method, spec.Parent)
	pc := &pendingCall{dst: dst, id: id, meth: method, fut: fut,
		tracked: kind == kindRequestDedup, ackOnly: spec.ackOnly, start: time.Now()}
	if !pc.ackOnly {
		pc.sp = sp
	}
	req.Span = uint64(sp.SpanID())
	l.calls.Store(id, pc)
	payload, err := l.stamp(dst, &req, &req.Acks)
	if err == nil {
		err = l.ep.Send(dst, kind, payload)
	}
	if pc.ackOnly {
		// Like a one-way message, an ack-only call's span ends at the
		// hand-off to the transport: the ack's delay is not its latency.
		sp.SetErr(err)
		sp.End()
	}
	if err != nil {
		if _, ok := l.calls.LoadAndDelete(id); ok {
			l.resolve(pc, nil, err)
		}
		return fut
	}
	// Re-check after the Store: a move to Dead or Departed — or this
	// locality's own Close — racing with this call may have swept the
	// calls map before our entry landed.
	if l.Peer(dst).Gone() {
		if _, ok := l.calls.LoadAndDelete(id); ok {
			l.resolve(pc, nil, fmt.Errorf("%w: rank %d unreachable", ErrPeerFailed, dst))
		}
		return fut
	}
	if l.closed.Load() {
		if _, ok := l.calls.LoadAndDelete(id); ok {
			l.resolve(pc, nil, fmt.Errorf("runtime: locality %d closed with call outstanding", l.Rank()))
		}
		return fut
	}
	if spec.active() {
		l.supervise(pc, payload, spec)
	}
	return fut
}

// callState is the mutable supervision state of one call. Its fields
// are only touched by the timer-callback chain — each callback arms
// the next timer, so access is serialized.
type callState struct {
	spec     CallSpec
	payload  []byte
	wait     time.Duration
	attempt  int
	deadline time.Time
}

// supervise arms the first supervision timer for a just-sent call.
// Supervision is timer-driven (no parked goroutine): the fault-free
// hot path pays one AfterFunc + one Stop.
func (l *Locality) supervise(pc *pendingCall, payload []byte, spec CallSpec) {
	st := &callState{spec: spec, payload: payload, wait: spec.Attempt}
	if st.wait <= 0 || spec.Retries == 0 {
		st.wait = spec.Deadline
	}
	if spec.Deadline > 0 {
		st.deadline = time.Now().Add(spec.Deadline)
	}
	l.armTimer(pc, st, st.wait)
}

func (l *Locality) armTimer(pc *pendingCall, st *callState, d time.Duration) {
	if !st.deadline.IsZero() {
		if rem := time.Until(st.deadline); rem < d {
			d = rem
		}
	}
	if d < 0 {
		d = 0
	}
	pc.timer.Store(time.AfterFunc(d, func() { l.attemptExpired(pc, st) }))
}

// attemptExpired runs when a supervision timer fires: either the call
// resolved in the meantime (no-op), or the retry budget/deadline is
// exhausted (fail with ErrCallTimeout), or the identical request
// frame is resent and the next timer armed with doubled wait.
func (l *Locality) attemptExpired(pc *pendingCall, st *callState) {
	if _, live := l.calls.Load(pc.id); !live {
		return
	}
	over := !st.deadline.IsZero() && !time.Now().Before(st.deadline)
	if over || st.attempt >= st.spec.Retries {
		if _, ok := l.calls.LoadAndDelete(pc.id); ok {
			l.rpcTimeouts.Inc()
			l.resolve(pc, nil, fmt.Errorf("%w: %q to rank %d after %d attempts",
				ErrCallTimeout, pc.meth, pc.dst, st.attempt+1))
		}
		return
	}
	st.attempt++
	l.rpcRetries.Inc()
	kind := kindRequest
	if pc.tracked {
		kind = kindRequestDedup
	}
	l.ep.Send(pc.dst, kind, st.payload)
	if st.wait *= 2; st.spec.MaxBackoff > 0 && st.wait > st.spec.MaxBackoff {
		st.wait = st.spec.MaxBackoff
	}
	l.armTimer(pc, st, st.wait)
}

// PendingCalls returns the number of RPCs still outstanding — zero at
// quiescence (the chaos soak asserts no call is stranded).
func (l *Locality) PendingCalls() int {
	n := 0
	l.calls.Range(func(any, any) bool { n++; return true })
	return n
}

// Call invokes method at locality dst, wire-encoding args and decoding
// the response into reply (which may be nil for methods without
// results). It shares CallAsync's failure semantics: a dead peer or a
// local shutdown fails the call with an error instead of hanging, and
// options bound it with a deadline and retry policy.
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

// Send delivers a one-way message to method at locality dst. Unlike
// CallAsync there is no future to fail later, so every error path
// counts into rpc.errors here — a reader of the registry sees one-way
// failures through the same counter as call failures.
func (l *Locality) Send(dst int, method string, args any) error {
	l.rpcOneWays.Inc()
	body, err := wire.Encode(args)
	if err != nil {
		l.rpcErrors.Inc()
		return fmt.Errorf("runtime: encode args of %q: %w", method, err)
	}
	if dst == l.Rank() {
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
	if l.closed.Load() {
		l.rpcErrors.Inc()
		return fmt.Errorf("runtime: locality %d closed", l.Rank())
	}
	if st := l.Peer(dst); st.Gone() {
		l.rpcErrors.Inc()
		return errGone(dst, st)
	}
	payload, err := wire.Encode(&oneWayMsg{Method: method, Body: body, Epoch: l.epoch.Load()})
	if err != nil {
		l.rpcErrors.Inc()
		return err
	}
	if err := l.ep.Send(dst, kindOneWay, payload); err != nil {
		l.rpcErrors.Inc()
		return err
	}
	return nil
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
	for to := range l.owed {
		l.flushAcks(to)
	}
	err := l.ep.Close()
	l.pool.Close()
	l.failCalls(func(int) bool { return true },
		fmt.Errorf("runtime: locality %d closed with call outstanding", l.Rank()))
	l.promises.failAll(fmt.Errorf("runtime: locality %d closed with promise outstanding", l.Rank()))
	return err
}
