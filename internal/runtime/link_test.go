package runtime

import (
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/trace"
	"allscale/internal/transport"
	"allscale/internal/wire"
	"allscale/internal/wire/wiretest"
)

// owes reports whether this locality owes rank to an ack it has not
// sent yet.
func (l *Locality) owes(to int) bool { return l.owed(to) != 0 }

// owed is the ack this locality owes rank to and has not sent yet, 0
// when it owes none.
func (l *Locality) owed(to int) uint64 {
	k := &l.links[to]
	k.mu.Lock()
	defer k.mu.Unlock()
	if ack := k.ackLocked(); ack > k.sentAck {
		return ack
	}
	return 0
}

// freezeLink keeps the timer of the link to rank to from running: no
// owed ack leaves on its own, nothing is resent and no deadline is
// checked. Call it before traffic.
func (l *Locality) freezeLink(to int) { l.links[to].timer = time.NewTimer(time.Hour) }

// linkHolds counts what the link to rank to keeps: unacked frames,
// awaited calls, early frames and ack-only handlers still running.
func (l *Locality) linkHolds(to int) (out, calls, held, busy int) {
	k := &l.links[to]
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.out), len(k.calls), len(k.held), len(k.busy)
}

func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := wire.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawPeer is a bare endpoint a test speaks for: it numbers the frames it
// sends rank 0 as a link does.
type rawPeer struct {
	transport.Endpoint
	next uint64
}

// send sends rank 0 a numbered frame of kind with body, carrying ack.
func (p *rawPeer) send(kind string, body []byte, ack, epoch uint64) {
	p.next++
	p.Endpoint.Send(0, kind, appendHeader(append([]byte(nil), body...), linkHeader{Seq: p.next, Ack: ack, Epoch: epoch}))
}

// ack sends rank 0 a pure ack.
func (p *rawPeer) ack(ack, epoch uint64) {
	p.Endpoint.Send(0, kindAcks, appendHeader(nil, linkHeader{Seq: p.next, Ack: ack, Epoch: epoch}))
}

// rawPeers is a locality at rank 0 whose peers, ranks 1 and 2, are bare
// endpoints the test speaks for. It returns the locality, the peers, the
// headers of the requests rank 1 receives, and probe: a one-way frame
// from a peer whose handler runs only after rank 0 has dispatched every
// frame that peer sent before it (one inbox, delivered in order).
func rawPeers(t *testing.T) (*Locality, []*rawPeer, <-chan linkHeader, func(from int, epoch uint64)) {
	t.Helper()
	fab := transport.NewFabric(3)
	l := NewLocality(fab.Endpoint(0))
	probed := make(chan struct{})
	l.HandleOneWay("probe", func(int, []byte) { probed <- struct{}{} })
	reqs := make(chan linkHeader, 4)
	peers := []*rawPeer{nil, {Endpoint: fab.Endpoint(1)}, {Endpoint: fab.Endpoint(2)}}
	peers[1].SetHandler(func(msg transport.Message) {
		if h, _, ok := readHeader(msg.Payload); ok && msg.Kind == kindRequest {
			reqs <- h
		}
	})
	peers[2].SetHandler(func(transport.Message) {})
	fab.Start()
	t.Cleanup(func() { l.Close(); fab.Close() })
	probe := func(from int, epoch uint64) {
		t.Helper()
		peers[from].send(kindOneWay, mustEncode(t, &oneWayMsg{Method: "probe"}), 0, epoch)
		<-probed
	}
	return l, peers, reqs, probe
}

// TestAckFromAnotherRankIsIgnored: an ack counts only on the link it
// came in on. Rank 2 acking the number of a call to rank 1 resolves
// nothing; rank 1's ack of the same number resolves it.
func TestAckFromAnotherRankIsIgnored(t *testing.T) {
	l, peers, reqs, probe := rawPeers(t)
	fut := l.CallAsync(1, "m", nil, AckOnly())
	req := <-reqs
	if !req.AckOnly {
		t.Fatal("an AckOnly call's request does not ask for a bare ack")
	}
	peers[2].ack(req.Seq, 0)
	probe(2, 0)
	if fut.Done() {
		t.Fatal("rank 2's ack resolved a call to rank 1")
	}
	peers[1].ack(req.Seq, 0)
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("rank 1's ack: %v", err)
	}
}

// TestStaleAckFrameIsFenced: an rpc.acks frame stamped with an epoch
// older than the sender's fence is dropped and counted in
// rpc.fenced_frames; the same ack under the current epoch resolves the
// call.
func TestStaleAckFrameIsFenced(t *testing.T) {
	l, peers, reqs, probe := rawPeers(t)
	l.SetPeer(1, Latent, 0)
	l.SetPeer(1, Member, 5)
	fut := l.CallAsync(1, "m", nil, AckOnly())
	req := <-reqs
	fenced := l.Metrics().Counter(MetricRPCFencedFrames)
	before := fenced.Value()
	peers[1].ack(req.Seq, 4)
	probe(1, 5)
	if fut.Done() {
		t.Fatal("an ack from a fenced incarnation resolved the call")
	}
	if d := fenced.Value() - before; d != 1 {
		t.Fatalf("rpc.fenced_frames went up by %d, want 1", d)
	}
	peers[1].ack(req.Seq, 5)
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("current-epoch ack: %v", err)
	}
}

// TestAckFrameArrivesWithoutReturnTraffic: with nothing else going back
// to the caller, the owed ack leaves in one rpc.acks frame and resolves
// the call. The serving rank sends that frame and no reply. The call is
// not a round trip: rpc.roundtrip observes nothing, and its rpc.call
// span ended when the request was handed to the transport.
func TestAckFrameArrivesWithoutReturnTraffic(t *testing.T) {
	s := newTestSystem(t, 2)
	var ran atomic.Int64
	s.Locality(1).Handle("m", func(int, []byte) ([]byte, error) { ran.Add(1); return nil, nil })
	tr := trace.New(0, 16)
	s.Locality(0).SetTracer(tr)
	s.Start()
	fut := s.Locality(0).CallAsync(1, "m", nil, AckOnly())
	if spans := tr.Snapshot(); len(spans) != 1 || spans[0].Name != "rpc.call" {
		t.Fatalf("spans archived when CallAsync returned: %+v, want the rpc.call span", spans)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	reg := s.Locality(1).Metrics()
	if sent, frames := reg.CounterValue(transport.MetricMsgsSent), reg.CounterValue(MetricRPCAckFrames); sent != 1 || frames != 1 {
		t.Fatalf("serving rank sent %d frames, %d of them rpc.acks; want the one rpc.acks frame", sent, frames)
	}
	if n := s.Locality(0).Metrics().Histogram(MetricRPCRoundtrip).Snapshot().Count; n != 0 {
		t.Fatalf("rpc.roundtrip observed %d ack-only calls, want 0", n)
	}
	if ran.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", ran.Load())
	}
}

// TestAcksRideOnReplies: an ack owed to a rank rides in the trailer of
// the next reply sent there, and no rpc.acks frame is sent.
func TestAcksRideOnReplies(t *testing.T) {
	s := newTestSystem(t, 2)
	release := make(chan struct{})
	s.Locality(1).Handle("m", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Locality(1).Handle("wait", func(int, []byte) ([]byte, error) { <-release; return nil, nil })
	s.Locality(1).freezeLink(0)
	s.Start()
	slow := s.Locality(0).CallAsync(1, "wait", nil)
	fut := s.Locality(0).CallAsync(1, "m", nil, AckOnly())
	for s.Locality(1).owed(0) < 2 {
		goruntime.Gosched()
	}
	close(release)
	if _, err := slow.Wait(); err != nil {
		t.Fatal(err)
	}
	if !fut.Done() {
		t.Fatal("the reply that went back after the ack-only call did not carry its ack")
	}
	if n := s.Locality(1).Metrics().CounterValue(MetricRPCAckFrames); n != 0 {
		t.Fatalf("%d rpc.acks frames sent, want the ack in the reply", n)
	}
}

// TestAckWaitsForTheHandler: the ack of an ack-only call is its answer,
// so it passes the request only once the handler has returned — while
// the handler runs, frames delivered after the request are not acked
// either — and a handler's error comes back as a reply that fails the
// call before any ack could cover it.
func TestAckWaitsForTheHandler(t *testing.T) {
	s := newTestSystem(t, 2)
	release := make(chan struct{})
	s.Locality(1).Handle("slow", func(int, []byte) ([]byte, error) { <-release; return nil, nil })
	s.Locality(1).Handle("fail", func(int, []byte) ([]byte, error) { return nil, errors.New("refused") })
	got := make(chan struct{}, 1)
	s.Locality(1).HandleOneWay("tick", func(int, []byte) { got <- struct{}{} })
	s.Start()
	l0, l1 := s.Locality(0), s.Locality(1)
	slow := l0.CallAsync(1, "slow", nil, AckOnly())
	if err := l0.Send(1, "tick", nil); err != nil {
		t.Fatal(err)
	}
	<-got
	if l1.owes(0) || slow.Done() {
		t.Fatal("an ack passed an ack-only request whose handler still runs")
	}
	if out, _, _, busy := l1.linkHolds(0); busy != 1 || out != 0 {
		t.Fatalf("rank 1 holds %d running handlers and %d frames, want 1 and 0", busy, out)
	}
	close(release)
	if _, err := slow.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := l0.CallAsync(1, "fail", nil, AckOnly()).Wait(); err == nil || err.Error() != "refused" {
		t.Fatalf("failed ack-only call: err = %v, want the handler's error", err)
	}
}

// TestLostAckFrameIsAnsweredByTheLink: under the chaos fabric the frame
// carrying an ack is lost. The caller's link resends the request, the
// serving rank drops the duplicate and acks again, and the handler ran
// once.
func TestLostAckFrameIsAnsweredByTheLink(t *testing.T) {
	fab := transport.NewFabric(2)
	ctl := chaos.NewController()
	ep1 := chaos.Wrap(fab.Endpoint(1), ctl, chaos.Config{Seed: 1})
	s := NewSystemOver([]transport.Endpoint{fab.Endpoint(0), ep1})
	t.Cleanup(func() { s.Close(); fab.Close() })
	var ran, lostAcks atomic.Int64
	s.Locality(1).Handle("m", func(int, []byte) ([]byte, error) { ran.Add(1); return nil, nil })
	// Everything rank 1 sends is lost until a frame carrying the ack is.
	ctl.Block(1, 0)
	ep1.OnFault(func(f chaos.Fault) {
		if f.Kind == kindAcks {
			lostAcks.Add(1)
			ctl.Heal(1, 0)
		}
	})
	fab.Start()
	if err := s.Locality(0).Call(1, "m", nil, nil, AckOnly()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 || lostAcks.Load() == 0 {
		t.Fatalf("handler ran %d times, %d ack frames lost; want 1 and at least 1", ran.Load(), lostAcks.Load())
	}
	if s.Locality(0).Metrics().CounterValue(MetricRPCRetries) == 0 || s.Locality(1).Metrics().CounterValue(MetricRPCDuplicates) == 0 {
		t.Fatal("the lost ack was not answered by a resend and a dropped duplicate")
	}
}

// closingEndpoint loses every frame sent after Close, as a TCP endpoint
// does, where the in-process one would still deliver it.
type closingEndpoint struct {
	transport.Endpoint
	closed atomic.Bool
}

func (e *closingEndpoint) Send(to int, kind string, payload []byte) error {
	if e.closed.Load() {
		return errors.New("endpoint closed")
	}
	return e.Endpoint.Send(to, kind, payload)
}

func (e *closingEndpoint) Close() error {
	e.closed.Store(true)
	return e.Endpoint.Close()
}

// TestCloseSendsOwedAcks: a rank that ran an ack-only call and then
// closes gracefully sends the ack on its way out — the caller's future
// resolves with nil. For a ship an error there would make the origin
// run tasks that were already delivered a second time, locally.
func TestCloseSendsOwedAcks(t *testing.T) {
	fab := transport.NewFabric(2)
	ep1 := &closingEndpoint{Endpoint: fab.Endpoint(1)}
	s := NewSystemOver([]transport.Endpoint{fab.Endpoint(0), ep1})
	t.Cleanup(func() { s.Close(); fab.Close() })
	s.Locality(1).Handle("m", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Locality(1).freezeLink(0)
	fab.Start()
	fut := s.Locality(0).CallAsync(1, "m", nil, AckOnly())
	for !s.Locality(1).owes(0) {
		goruntime.Gosched()
	}
	s.Locality(1).Close()
	if err := waitErr(t, fut, 5*time.Second); err != nil {
		t.Fatalf("ack-only call to a rank that closed gracefully: %v", err)
	}
}

// TestDeferringAnAckAllocatesNothing: a frame's trailer — its number,
// the ack it carries and its epoch — is written into the frame's own
// buffer and read in place, and an owed ack rides on the next frame of
// any kind: a one-way sent after an ack-only call ran answers the call.
func TestDeferringAnAckAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	h := linkHeader{Seq: 1 << 40, Ack: 1 << 41, Epoch: 3, AckOnly: true}
	allocs := testing.AllocsPerRun(100, func() {
		frame := appendHeader(buf[:0], h)
		if got, _, ok := readHeader(frame); !ok || got != h {
			t.Fatalf("trailer read back as %+v (%v), want %+v", got, ok, h)
		}
	})
	if allocs != 0 {
		t.Fatalf("writing and reading a trailer allocated %.0f objects, want 0", allocs)
	}
	s := newTestSystem(t, 2)
	s.Locality(1).Handle("m", func(int, []byte) ([]byte, error) { return nil, nil })
	got := make(chan struct{}, 1)
	s.Locality(0).HandleOneWay("tick", func(int, []byte) { got <- struct{}{} })
	s.Locality(1).freezeLink(0)
	s.Start()
	fut := s.Locality(0).CallAsync(1, "m", nil, AckOnly())
	for !s.Locality(1).owes(0) {
		goruntime.Gosched()
	}
	if err := s.Locality(1).Send(0, "tick", nil); err != nil {
		t.Fatal(err)
	}
	<-got
	if !fut.Done() || s.Locality(1).owes(0) {
		t.Fatal("the one-way sent after the call ran did not carry its ack")
	}
}

// rpcRequest, oneWayMsg and the Marshaler side of a fulfilment and a
// link header give the envelopes the runtime writes and reads in place
// a value form, for the round-trip and fuzz tests; each goes through the
// runtime's own append and read functions.
type rpcRequest struct {
	Method string
	Body   []byte
	Span   uint64
}

func (r *rpcRequest) AppendWire(buf []byte) ([]byte, error) {
	return append(appendRequest(buf, r.Method, r.Span), r.Body...), nil
}

func (r *rpcRequest) UnmarshalWire(d *wire.Decoder) error {
	var method []byte
	method, r.Span, r.Body = readRequest(d)
	r.Method = string(method)
	return nil
}

type oneWayMsg struct {
	Method string
	Body   []byte
}

func (m *oneWayMsg) AppendWire(buf []byte) ([]byte, error) {
	return append(wire.AppendString(buf, m.Method), m.Body...), nil
}

func (m *oneWayMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Method, m.Body = d.String(), d.Rest()
	return nil
}

func (m *fulfillMsg) AppendWire(buf []byte) ([]byte, error) {
	return append(appendFulfill(buf, m.Seq, m.Err), m.Value...), nil
}

func (h *linkHeader) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendBytes(buf, appendHeader(nil, *h)), nil
}

func (h *linkHeader) UnmarshalWire(d *wire.Decoder) error {
	var body []byte
	var ok bool
	if *h, body, ok = readHeader(d.Bytes()); d.Err() == nil && (!ok || len(body) != 0) {
		d.Failf("malformed link header")
	}
	return nil
}

// envelope lets one fuzz target cover every RPC envelope: its first
// byte names the type, the rest is that type's form.
type envelope struct {
	v interface {
		wire.Marshaler
		wire.Unmarshaler
	}
}

func (e *envelope) AppendWire(buf []byte) ([]byte, error) {
	var kind byte
	switch e.v.(type) {
	case *rpcResponse:
		kind = 1
	case *oneWayMsg:
		kind = 2
	case *fulfillMsg:
		kind = 3
	case *linkHeader:
		kind = 4
	}
	return e.v.AppendWire(append(buf, kind))
}

func (e *envelope) UnmarshalWire(d *wire.Decoder) error {
	switch d.Byte() {
	case 0:
		e.v = new(rpcRequest)
	case 1:
		e.v = new(rpcResponse)
	case 2:
		e.v = new(oneWayMsg)
	case 3:
		e.v = new(fulfillMsg)
	case 4:
		e.v = new(linkHeader)
	default:
		d.Failf("unknown envelope")
		return nil
	}
	return e.v.UnmarshalWire(d)
}

func envelopeSeeds() []*envelope {
	return []*envelope{
		{&rpcRequest{Method: "dim.unpin", Body: []byte{1, 2}, Span: 9}},
		{&rpcRequest{}},
		{&rpcResponse{ID: 8, Body: []byte{3}, Err: "boom"}},
		{&rpcResponse{}},
		{&oneWayMsg{Method: "sched.steal", Body: []byte{4}}},
		{&fulfillMsg{Seq: 5, Value: []byte{5}, Err: "e"}},
		{&linkHeader{Seq: 300, Ack: 1 << 40, Epoch: 4, AckOnly: true}},
		{&linkHeader{}},
	}
}

// TestRPCEnvelopeWireRoundTrip: every envelope round-trips. A request,
// reply, one-way or fulfilment ends in its unprefixed body, so only the
// link header is refused truncated or padded.
func TestRPCEnvelopeWireRoundTrip(t *testing.T) {
	for _, in := range envelopeSeeds() {
		var out envelope
		var data []byte
		switch in.v.(type) {
		case *linkHeader:
			data = wiretest.RoundTrip(t, in, &out)
		default:
			data = mustEncode(t, in)
			if err := wire.Decode(data, &out); err != nil {
				t.Fatalf("%T: %v", in.v, err)
			}
		}
		again, err := wire.Encode(&out)
		if err != nil || string(again) != string(data) {
			t.Errorf("%T: re-encoding gave %x (%v), want %x", in.v, again, err, data)
		}
	}
}

// TestAckListIsBoundedByTheFrame: a frame's ack trailer is bounded by
// the frame — a trailer cannot claim more bytes than the frame holds, or
// fewer than its three numbers need — and every number in it must be a
// whole uvarint that ends where the trailer does.
func TestAckListIsBoundedByTheFrame(t *testing.T) {
	for name, frame := range map[string][]byte{
		"longer than the frame":  {1, 2, 3, 9},
		"too short for three":    {1, 2, 2},
		"ends inside a number":   {1, 2, 0x80, 3},
		"a byte after the three": {1, 2, 3, 4, 4},
		"empty":                  {},
	} {
		if _, _, ok := readHeader(frame); ok {
			t.Errorf("a trailer %s was accepted", name)
		}
	}
	if h, body, ok := readHeader([]byte{7, 1, 2, 3, 3}); !ok || len(body) != 1 || h != (linkHeader{Seq: 1, Ack: 2, Epoch: 3}) {
		t.Errorf("a well-formed trailer read as %+v, body %x, ok %v", h, body, ok)
	}
}

// FuzzRPCEnvelopeUnmarshal: a malformed request, reply, one-way,
// fulfilment or link header from a peer is an error, never a panic.
func FuzzRPCEnvelopeUnmarshal(f *testing.F) {
	wiretest.FuzzUnmarshal(f, envelopeSeeds()...)
}

// FuzzLinkHeader: dispatch reads the trailer of every frame a peer
// sends before anything else. Any bytes are refused or read as a
// header that, written again, reads back the same, with the body left
// untouched before it.
func FuzzLinkHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendHeader([]byte{1, 5}, linkHeader{Seq: 7, Ack: 6, Epoch: 2, AckOnly: true}))
	f.Add(appendHeader(nil, linkHeader{Seq: 1 << 63, Ack: 1<<64 - 1}))
	f.Add([]byte{0x80, 0x80, 1, 0, 0, 0x84})
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, body, ok := readHeader(frame)
		if !ok {
			return
		}
		again := appendHeader(append([]byte(nil), body...), h)
		h2, body2, ok := readHeader(again)
		if !ok || h2 != h || string(body2) != string(body) {
			t.Fatalf("%x read as %+v; written again and read: %+v (%v)", frame, h, h2, ok)
		}
	})
}

// watched is an endpoint whose arriving frames are shown to seen before
// the locality's handler gets them.
type watched struct {
	transport.Endpoint
	seen func(transport.Message)
}

func (w *watched) SetHandler(h transport.Handler) {
	w.Endpoint.SetHandler(func(m transport.Message) { w.seen(m); h(m) })
}

// TestSendCountersLeadTheirFrames: a sender counts a frame before it
// hands it off, so that whoever sees the frame arrive also sees its
// count. Rank 1 sends rank 0 one-ways, and the rpc.acks frames of rank
// 0's ack-only calls; as each frame arrives, before rank 0 dispatches
// it, rank 1's transport.msgs_sent and rpc.ack_frames must each count at
// least the frames of their kind that have arrived.
func TestSendCountersLeadTheirFrames(t *testing.T) {
	const oneWays, calls = 2000, 40
	fab := transport.NewFabric(2)
	w := &watched{Endpoint: fab.Endpoint(0)}
	sys := NewSystemOver([]transport.Endpoint{w, fab.Endpoint(1)})
	l0, l1 := sys.Locality(0), sys.Locality(1)
	var frames, ackFrames, behind atomic.Int64
	w.seen = func(m transport.Message) {
		if m.From != 1 {
			return
		}
		n, a := frames.Add(1), int64(0)
		if m.Kind == kindAcks {
			a = ackFrames.Add(1)
		}
		if sent := l1.Metrics().CounterValue(transport.MetricMsgsSent); int64(sent) < n {
			behind.Add(1)
		}
		if sent := l1.Metrics().CounterValue(MetricRPCAckFrames); int64(sent) < a {
			behind.Add(1)
		}
	}
	got := make(chan struct{}, oneWays)
	l0.HandleOneWay("tick", func(int, []byte) { got <- struct{}{} })
	l1.Handle("nop", func(int, []byte) ([]byte, error) { return nil, nil })
	fab.Start()
	t.Cleanup(func() { sys.Close(); fab.Close() })
	for range calls {
		// Nothing else goes to rank 0 meanwhile: the ack leaves in an
		// rpc.acks frame of its own.
		l0.CallAsync(1, "nop", &struct{}{}, AckOnly())
		deadline := time.Now().Add(5 * time.Second)
		for l0.PendingCalls() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("an ack-only call is still pending")
			}
			goruntime.Gosched()
		}
	}
	for range oneWays {
		if err := l1.Send(0, "tick", &struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	for range oneWays {
		<-got
	}
	if ackFrames.Load() == 0 {
		t.Fatal("no rpc.acks frame arrived")
	}
	if n := behind.Load(); n != 0 {
		t.Errorf("%d of %d arriving frames found a send counter behind them", n, frames.Load())
	}
}

// cutEndpoint stands for a connection that breaks and is redialed: while
// cut, every frame it is given vanishes, as frames queued on a dying
// connection do, and the cut itself is reported as a link failure.
type cutEndpoint struct {
	transport.Endpoint
	cut     atomic.Bool
	failure transport.FailureHandler
}

func (e *cutEndpoint) SetFailureHandler(h transport.FailureHandler) {
	e.failure = h
	e.Endpoint.SetFailureHandler(h)
}

func (e *cutEndpoint) Send(to int, kind string, payload []byte) error {
	if e.cut.Load() {
		return nil
	}
	return e.Endpoint.Send(to, kind, payload)
}

func (e *cutEndpoint) sever(peer int) {
	e.cut.Store(true)
	e.failure(peer, errors.New("connection reset"))
}

// TestRedialResendsUnacked: frames lost with a broken connection are
// resent once it is redialed. The calls waiting when the break is
// reported fail with ErrPeerFailed, as a broken link's calls do, and do
// not run later; the frames sent while it is down wait in the link, and
// after the redial every one is delivered once — each call's handler
// runs exactly once and the later calls succeed — and the link ends
// empty.
func TestRedialResendsUnacked(t *testing.T) {
	fab := transport.NewFabric(2)
	ep0 := &cutEndpoint{Endpoint: fab.Endpoint(0)}
	s := NewSystemOver([]transport.Endpoint{ep0, fab.Endpoint(1)})
	t.Cleanup(func() { s.Close(); fab.Close() })
	var mu sync.Mutex
	ran := map[int]int{}
	s.Locality(1).Handle("count", func(_ int, body []byte) ([]byte, error) {
		var i int
		if err := wire.Decode(body, &i); err != nil {
			return nil, err
		}
		mu.Lock()
		ran[i]++
		mu.Unlock()
		return body, nil
	})
	fab.Start()
	l0 := s.Locality(0)
	if err := l0.Call(1, "count", 0, nil); err != nil {
		t.Fatal(err)
	}
	// A call whose frame is lost with the connection fails when the break
	// is reported, and does not run after the redial either: its number
	// goes as a blank frame.
	ep0.cut.Store(true)
	lost := l0.CallAsync(1, "count", -1)
	ep0.sever(1)
	if err := waitErr(t, lost, 5*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("the call lost with the connection: err = %v, want ErrPeerFailed", err)
	}
	const calls = 20
	futs := make([]*Future, calls)
	for i := range futs {
		opt := AckOnly()
		if i%2 == 0 {
			opt = WithParent(0)
		}
		futs[i] = l0.CallAsync(1, "count", i+1, opt)
	}
	if out, _, _, _ := l0.linkHolds(1); out != calls+1 {
		t.Fatalf("the link keeps %d frames sent while cut, want %d and the blanked one", out, calls)
	}
	ep0.cut.Store(false) // the redial
	for i, fut := range futs {
		if err := waitErr(t, fut, 10*time.Second); err != nil {
			t.Fatalf("call %d sent while cut: %v", i+1, err)
		}
	}
	quiesce(t, s)
	mu.Lock()
	for i := 0; i <= calls; i++ {
		if ran[i] != 1 {
			t.Errorf("call %d ran %d times, want once", i, ran[i])
		}
	}
	if ran[-1] != 0 {
		t.Errorf("the call that failed with the connection ran %d times, want 0", ran[-1])
	}
	mu.Unlock()
	if l0.Metrics().CounterValue(MetricRPCRetries) == 0 {
		t.Fatal("no frame was resent after the redial")
	}
	quiesce(t, s)
}

// quiesce waits until both halves of every link of s hold nothing: no
// unacked frame, awaited call, early frame or running ack-only handler.
func quiesce(t *testing.T, s *System) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, l := range s.Localities() {
		for r := range s.Size() {
			for {
				out, calls, held, busy := l.linkHolds(r)
				if out+calls+held+busy == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("rank %d's link to rank %d holds %d frames, %d calls, %d early frames, %d handlers",
						l.Rank(), r, out, calls, held, busy)
				}
				goruntime.Gosched()
			}
		}
	}
}
