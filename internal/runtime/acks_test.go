package runtime

import (
	"encoding/binary"
	"errors"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/trace"
	"allscale/internal/transport"
	"allscale/internal/wire"
	"allscale/internal/wire/wiretest"
)

// owes reports whether acks owed to rank to are queued here.
func (l *Locality) owes(to int) bool {
	q := &l.owed[to]
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ids) > 0
}

// holdAcks keeps the acks owed to rank to from leaving on their own:
// the timer that would flush them runs nothing. Call it before traffic.
func (l *Locality) holdAcks(to int) { l.owed[to].timer = time.NewTimer(time.Hour) }

func packIDs(ids ...uint64) ackIDs {
	var out ackIDs
	for _, id := range ids {
		out = binary.AppendUvarint(out, id)
	}
	return out
}

func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := wire.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawPeers is a locality at rank 0 whose peers, ranks 1 and 2, are bare
// endpoints the test speaks for. It returns the locality, the peers'
// endpoints, the requests rank 1 receives, and probe: a one-way frame
// from a peer whose handler runs only after rank 0 has dispatched every
// frame that peer sent before it (one inbox, delivered in order).
func rawPeers(t *testing.T) (*Locality, []transport.Endpoint, <-chan rpcRequest, func(from int, epoch uint64)) {
	t.Helper()
	fab := transport.NewFabric(3)
	l := NewLocality(fab.Endpoint(0))
	probed := make(chan struct{})
	l.HandleOneWay("probe", func(int, []byte) { probed <- struct{}{} })
	reqs := make(chan rpcRequest, 4)
	eps := []transport.Endpoint{nil, fab.Endpoint(1), fab.Endpoint(2)}
	eps[1].SetHandler(func(msg transport.Message) {
		var req rpcRequest
		if msg.Kind == kindRequest && wire.Decode(msg.Payload, &req) == nil {
			reqs <- req
		}
	})
	eps[2].SetHandler(func(transport.Message) {})
	fab.Start()
	t.Cleanup(func() { l.Close(); fab.Close() })
	probe := func(from int, epoch uint64) {
		t.Helper()
		eps[from].Send(0, kindOneWay, mustEncode(t, &oneWayMsg{Method: "probe", Epoch: epoch}))
		<-probed
	}
	return l, eps, reqs, probe
}

// TestAckFromAnotherRankIsIgnored: an ack counts only from the rank the
// call went to. Rank 2 acking the ID of a call to rank 1 resolves
// nothing; rank 1's ack of the same ID resolves it.
func TestAckFromAnotherRankIsIgnored(t *testing.T) {
	l, eps, reqs, probe := rawPeers(t)
	fut := l.CallAsync(1, "m", nil, AckOnly())
	req := <-reqs
	if !req.AckOnly {
		t.Fatal("an AckOnly call's request does not ask for a bare ack")
	}
	eps[2].Send(0, kindAcks, mustEncode(t, &ackFrame{IDs: packIDs(req.ID)}))
	probe(2, 0)
	if fut.Done() {
		t.Fatal("rank 2's ack resolved a call to rank 1")
	}
	eps[1].Send(0, kindAcks, mustEncode(t, &ackFrame{IDs: packIDs(req.ID)}))
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("rank 1's ack: %v", err)
	}
}

// TestStaleAckFrameIsFenced: an rpc.acks frame stamped with an epoch
// older than the sender's fence is dropped and counted in
// rpc.fenced_frames; the same ack under the current epoch resolves the
// call.
func TestStaleAckFrameIsFenced(t *testing.T) {
	l, eps, reqs, probe := rawPeers(t)
	l.SetPeer(1, Latent, 0)
	l.SetPeer(1, Member, 5)
	fut := l.CallAsync(1, "m", nil, AckOnly())
	req := <-reqs
	fenced := l.Metrics().Counter(MetricRPCFencedFrames)
	before := fenced.Value()
	eps[1].Send(0, kindAcks, mustEncode(t, &ackFrame{Epoch: 4, IDs: packIDs(req.ID)}))
	probe(1, 5)
	if fut.Done() {
		t.Fatal("an ack from a fenced incarnation resolved the call")
	}
	if d := fenced.Value() - before; d != 1 {
		t.Fatalf("rpc.fenced_frames went up by %d, want 1", d)
	}
	eps[1].Send(0, kindAcks, mustEncode(t, &ackFrame{Epoch: 5, IDs: packIDs(req.ID)}))
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
	s.Locality(1).holdAcks(0)
	s.Start()
	slow := s.Locality(0).CallAsync(1, "wait", nil)
	fut := s.Locality(0).CallAsync(1, "m", nil, AckOnly())
	for !s.Locality(1).owes(0) {
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

// TestLostAckFrameIsAnsweredByTheDedupWindow: under the chaos fabric the
// frame carrying an ack is lost. The call is resent, the dedup window
// answers the resend at once, and the handler ran once.
func TestLostAckFrameIsAnsweredByTheDedupWindow(t *testing.T) {
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
	err := s.Locality(0).Call(1, "m", nil, nil, WithRetries(100, 5*time.Millisecond), WithMaxBackoff(20*time.Millisecond), AckOnly())
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 || lostAcks.Load() == 0 {
		t.Fatalf("handler ran %d times, %d ack frames lost; want 1 and at least 1", ran.Load(), lostAcks.Load())
	}
	if s.Locality(0).Metrics().CounterValue(MetricRPCRetries) == 0 || s.Locality(1).Metrics().CounterValue(MetricRPCDedupReplays) == 0 {
		t.Fatal("the lost ack was not answered by a resend and a dedup replay")
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
// resolves with nil. For a ship an error there would make confirmShip
// run tasks that were already delivered a second time, locally.
func TestCloseSendsOwedAcks(t *testing.T) {
	fab := transport.NewFabric(2)
	ep1 := &closingEndpoint{Endpoint: fab.Endpoint(1)}
	s := NewSystemOver([]transport.Endpoint{fab.Endpoint(0), ep1})
	t.Cleanup(func() { s.Close(); fab.Close() })
	s.Locality(1).Handle("m", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Locality(1).holdAcks(0)
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

// TestDeferringAnAckAllocatesNothing: owing an ack allocates nothing
// once the queue has grown, and the next envelope carries it.
func TestDeferringAnAckAllocatesNothing(t *testing.T) {
	s := newTestSystem(t, 2)
	l := s.Locality(1)
	l.holdAcks(0)
	q := &l.owed[0]
	allocs := testing.AllocsPerRun(100, func() {
		l.owe(0, 1<<40)
		l.owe(0, 1<<41)
		q.mu.Lock()
		q.ids = q.ids[:0]
		q.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("owing two acks allocated %.0f objects, want 0", allocs)
	}
	l.owe(0, 1<<40)
	req := rpcRequest{Method: "m"}
	payload, err := l.stamp(0, &req, &req.Acks)
	if err != nil {
		t.Fatal(err)
	}
	var out rpcRequest
	if err := wire.Decode(payload, &out); err != nil || string(out.Acks) != string(packIDs(1<<40)) {
		t.Fatalf("stamped acks %x (%v), want %x", out.Acks, err, packIDs(1<<40))
	}
	if l.owes(0) {
		t.Fatal("stamped acks are still owed")
	}
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
	case *ackFrame:
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
		e.v = new(ackFrame)
	default:
		d.Failf("unknown envelope")
		return nil
	}
	return e.v.UnmarshalWire(d)
}

func envelopeSeeds() []*envelope {
	acks := packIDs(1, 300, 1<<40)
	return []*envelope{
		{&rpcRequest{ID: 7, Method: "dim.unpin", Body: []byte{1, 2}, Span: 9, Epoch: 2, Ack: 6, AckOnly: true, Acks: acks}},
		{&rpcRequest{}},
		{&rpcResponse{ID: 8, Body: []byte{3}, Err: "boom", Epoch: 1, Acks: acks}},
		{&rpcResponse{}},
		{&oneWayMsg{Method: "sched.steal", Body: []byte{4}, Epoch: 3}},
		{&fulfillMsg{Seq: 5, Value: []byte{5}, Err: "e"}},
		{&ackFrame{Epoch: 4, IDs: acks}},
		{&ackFrame{}},
	}
}

// TestRPCEnvelopeWireRoundTrip: every envelope round-trips, and a
// truncated or padded one is refused.
func TestRPCEnvelopeWireRoundTrip(t *testing.T) {
	for _, in := range envelopeSeeds() {
		var out envelope
		data := wiretest.RoundTrip(t, in, &out)
		again, err := wire.Encode(&out)
		if err != nil || string(again) != string(data) {
			t.Errorf("%T: re-encoding gave %x (%v), want %x", in.v, again, err, data)
		}
	}
}

// TestAckListIsBoundedByTheFrame: the ID run of an ack list is bounded
// by the bytes left in the frame — a 5-byte frame cannot claim a
// million IDs — and every ID in it must be a whole uvarint.
func TestAckListIsBoundedByTheFrame(t *testing.T) {
	claim := wire.AppendUvarint([]byte{wire.FormatBinary, 0}, 1<<20)
	if len(claim) != 5 {
		t.Fatalf("test frame is %d bytes", len(claim))
	}
	if err := wire.Decode(claim, &ackFrame{}); err == nil {
		t.Error("a 5-byte ack frame claiming a million IDs was accepted")
	}
	cut := wire.AppendBytes([]byte{wire.FormatBinary, 0}, []byte{0x80})
	if err := wire.Decode(cut, &ackFrame{}); err == nil {
		t.Error("an ack list ending inside an ID was accepted")
	}
}

// FuzzRPCEnvelopeUnmarshal: a malformed request, reply, one-way,
// fulfilment or ack frame from a peer is an error, never a panic.
func FuzzRPCEnvelopeUnmarshal(f *testing.F) {
	wiretest.FuzzUnmarshal(f, envelopeSeeds()...)
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
			time.Sleep(50 * time.Microsecond)
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
