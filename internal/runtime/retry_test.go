package runtime

import (
	"bytes"
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/transport"
	"allscale/internal/wire"
)

// filterEndpoint wraps a fabric endpoint with a programmable outbound
// filter: sends for which drop returns true vanish (the sender still
// sees success, like a lossy link).
type filterEndpoint struct {
	transport.Endpoint
	drop func(to int, kind string, payload []byte) bool
}

func (f *filterEndpoint) Send(to int, kind string, payload []byte) error {
	if f.drop != nil && f.drop(to, kind, payload) {
		return nil
	}
	return f.Endpoint.Send(to, kind, payload)
}

// lossySystem builds a 2-locality system where rank 1's outbound
// frames pass through drop. Returns the system and the underlying
// fabric (started by the caller after handler registration — via
// sys.Start, which is a no-op for provided endpoints, plus fab.Start).
func lossySystem(t *testing.T, drop func(to int, kind string, payload []byte) bool) (*System, func()) {
	t.Helper()
	fab := transport.NewFabric(2)
	s := NewSystemOver([]transport.Endpoint{
		fab.Endpoint(0),
		&filterEndpoint{Endpoint: fab.Endpoint(1), drop: drop},
	})
	start := func() { fab.Start() }
	t.Cleanup(func() {
		s.Close()
		fab.Close()
	})
	return s, start
}

// TestRetryReplaysLostReply is the core exactly-once contract: the
// server executes a counting handler once and loses the reply frame; its
// link resends the kept reply, and the caller's resent request is
// dropped as a duplicate instead of running the handler again.
func TestRetryReplaysLostReply(t *testing.T) {
	var lostReplies atomic.Int64
	dropFirstReply := func(to int, kind string, _ []byte) bool {
		return kind == kindResponse && lostReplies.Add(1) == 1
	}
	s, start := lossySystem(t, dropFirstReply)
	var executions atomic.Int64
	s.Locality(1).Handle("count", func(int, []byte) ([]byte, error) {
		return wire.Encode(int(executions.Add(1)))
	})
	start()

	var got int
	if err := s.Locality(0).Call(1, "count", nil, &got, WithDeadline(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("reply = %d, want 1 (the first and only execution)", got)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want exactly 1", n)
	}
	if v := s.Locality(1).Metrics().Counter(MetricRPCRetries).Value(); v == 0 {
		t.Fatal("the server's link did not resend the lost reply")
	}
	if n := s.Locality(0).PendingCalls(); n != 0 {
		t.Fatalf("%d calls stranded after completion", n)
	}
	quiesce(t, s)
}

// TestReplayIsByteIdentical intercepts the response frames themselves:
// the resent frame must equal the original byte for byte — the link
// keeps the frame, it does not build it again.
func TestReplayIsByteIdentical(t *testing.T) {
	var mu sync.Mutex
	var replies [][]byte
	var dropped bool
	tap := func(to int, kind string, payload []byte) bool {
		if kind != kindResponse {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		replies = append(replies, append([]byte(nil), payload...))
		if !dropped {
			dropped = true
			return true // lose the first reply; the link resends it
		}
		return false
	}
	s, start := lossySystem(t, tap)
	s.Locality(1).Handle("echo", func(_ int, body []byte) ([]byte, error) {
		return body, nil
	})
	start()

	var out string
	err := s.Locality(0).Call(1, "echo", "payload", &out, WithDeadline(5*time.Second))
	if err != nil || out != "payload" {
		t.Fatalf("call: %v, out=%q", err, out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(replies) < 2 {
		t.Fatalf("captured %d reply frames, want >= 2", len(replies))
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("resent reply differs from original:\n%x\n%x", replies[0], replies[1])
	}
}

// TestLinksHoldNothingAtQuiescence: after a burst of awaited calls,
// ack-only calls and one-ways in both directions, both halves of every
// link end empty — no unacked frame, awaited call, early frame or
// running handler — however many frames went through.
func TestLinksHoldNothingAtQuiescence(t *testing.T) {
	s := newTestSystem(t, 3)
	var oneWays atomic.Int64
	for _, l := range s.Localities() {
		l.Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
		l.HandleOneWay("tick", func(int, []byte) { oneWays.Add(1) })
	}
	s.Start()
	var wg sync.WaitGroup
	for _, l := range s.Localities() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				dst := (l.Rank() + 1 + i%2) % s.Size()
				switch i % 3 {
				case 0:
					if err := l.Call(dst, "noop", nil, nil, WithDeadline(5*time.Second)); err != nil {
						t.Error(err)
					}
				case 1:
					l.CallAsync(dst, "noop", nil, AckOnly())
				default:
					if err := l.Send(dst, "tick", nil); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	quiesce(t, s)
	// A one-way is acked once delivered; its handler runs on a goroutine
	// of its own and may still be on its way.
	for deadline := time.Now().Add(5 * time.Second); oneWays.Load() != 3*20; goruntime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d one-ways delivered, want 60", oneWays.Load())
		}
	}
	for _, l := range s.Localities() {
		if n := l.PendingCalls(); n != 0 {
			t.Fatalf("rank %d: %d calls pending at quiescence", l.Rank(), n)
		}
	}
}

// TestDuplicateBehindWatermarkIsDropped: a link delivers its frames in
// number order, once. A frame that arrives early waits for the gap
// before it; a copy of a frame already delivered — behind the link's
// watermark — or of one already waiting is dropped and counted.
func TestDuplicateBehindWatermarkIsDropped(t *testing.T) {
	l, peers, _, probe := rawPeers(t)
	got := make(chan string, 8)
	l.HandleOneWay("rec", func(_ int, body []byte) {
		var s string
		wire.Decode(body, &s)
		got <- s
	})
	frame := func(seq uint64, s string) []byte {
		body := mustEncode(t, &oneWayMsg{Method: "rec", Body: mustEncode(t, s)})
		return appendHeader(body, linkHeader{Seq: seq})
	}
	p := peers[1]
	p.Endpoint.Send(0, kindOneWay, frame(2, "second"))
	p.Endpoint.Send(0, kindOneWay, frame(2, "second again"))
	p.Endpoint.Send(0, kindOneWay, frame(1, "first"))
	p.Endpoint.Send(0, kindOneWay, frame(1, "first again"))
	p.next = 2
	probe(1, 0)
	// One-way handlers run on goroutines of their own: the two frames
	// were handed to theirs before the probe was dispatched.
	seen := map[string]int{}
	for range 2 {
		seen[<-got]++
	}
	select {
	case s := <-got:
		seen[s]++
	default:
	}
	if len(seen) != 2 || seen["first"] != 1 || seen["second"] != 1 {
		t.Fatalf("delivered %v, want first and second once each", seen)
	}
	if d := l.Metrics().CounterValue(MetricRPCDuplicates); d != 2 {
		t.Fatalf("rpc.duplicates = %d, want 2", d)
	}
}

// TestConcurrentDuplicatesExecuteOnce hammers a counting handler
// through a duplicating link under -race: every request frame is sent
// twice, yet each call's handler must run exactly once.
func TestConcurrentDuplicatesExecuteOnce(t *testing.T) {
	fab := transport.NewFabric(2)
	dup := chaos.Wrap(fab.Endpoint(0), nil, chaos.Config{Seed: 7, Dup: 1})
	s := NewSystemOver([]transport.Endpoint{dup, fab.Endpoint(1)})
	t.Cleanup(func() {
		s.Close()
		fab.Close()
	})
	var executions atomic.Int64
	s.Locality(1).Handle("count", func(int, []byte) ([]byte, error) {
		executions.Add(1)
		return nil, nil
	})
	fab.Start()

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := WithDeadline(10 * time.Second)
			if i%2 == 1 {
				opt = AckOnly()
			}
			if err := s.Locality(0).Call(1, "count", nil, nil, opt); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := executions.Load(); n != calls {
		t.Fatalf("handler executed %d times for %d calls", n, calls)
	}
	if s.Locality(1).Metrics().Counter(MetricRPCDuplicates).Value() == 0 {
		t.Fatal("no duplicate was dropped — dup link ineffective?")
	}
}

// TestCallTimeoutOnBlackHole: a destination that never receives the
// request fails the call with ErrCallTimeout once the budget is spent,
// leaving no stranded entry behind.
func TestCallTimeoutOnBlackHole(t *testing.T) {
	fab := transport.NewFabric(2)
	blackhole := &filterEndpoint{Endpoint: fab.Endpoint(0),
		drop: func(_ int, kind string, _ []byte) bool { return kind == kindRequest }}
	s := NewSystemOver([]transport.Endpoint{blackhole, fab.Endpoint(1)})
	t.Cleanup(func() {
		s.Close()
		fab.Close()
	})
	s.Locality(1).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
	fab.Start()

	start := time.Now()
	err := s.Locality(0).Call(1, "noop", nil, nil, WithDeadline(300*time.Millisecond))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline was 300ms", elapsed)
	}
	if n := s.Locality(0).PendingCalls(); n != 0 {
		t.Fatalf("%d calls stranded after timeout", n)
	}
	if v := s.Locality(0).Metrics().Counter(MetricRPCTimeouts).Value(); v != 1 {
		t.Fatalf("timeout counter = %d, want 1", v)
	}
	if v := s.Locality(0).Metrics().Counter(MetricRPCRetries).Value(); v == 0 {
		t.Fatal("no retries recorded before the timeout")
	}
}

// TestSendErrorAccounting: every one-way failure path must count into
// rpc.errors (historically only calls did).
func TestSendErrorAccounting(t *testing.T) {
	s := newTestSystem(t, 2)
	s.Locality(1).HandleOneWay("ow", func(int, []byte) {})
	s.Start()
	loc := s.Locality(0)
	errsBefore := loc.Metrics().Counter(MetricRPCErrors).Value()

	if err := loc.Send(1, "ow", "x"); err != nil {
		t.Fatal(err)
	}
	if v := loc.Metrics().Counter(MetricRPCOneWays).Value(); v != 1 {
		t.Fatalf("oneway counter = %d, want 1", v)
	}
	if v := loc.Metrics().Counter(MetricRPCErrors).Value(); v != errsBefore {
		t.Fatalf("successful send bumped rpc.errors to %d", v)
	}

	// Missing local handler.
	if err := loc.Send(0, "missing", "x"); err == nil {
		t.Fatal("send to unregistered one-way must fail")
	}
	// Dead destination.
	loc.SetPeer(1, Dead, 0)
	if err := loc.Send(1, "ow", "x"); err == nil {
		t.Fatal("send to dead rank must fail")
	}
	if v := loc.Metrics().Counter(MetricRPCErrors).Value(); v != errsBefore+2 {
		t.Fatalf("rpc.errors = %d, want %d (both failures counted)", v, errsBefore+2)
	}
}

// TestFencingRejectsStaleEpoch: after a rank is fenced, frames it sent
// under its old incarnation epoch are rejected at dispatch and counted.
func TestFencingRejectsStaleEpoch(t *testing.T) {
	s := newTestSystem(t, 3)
	var served atomic.Int64
	s.Locality(1).Handle("noop", func(int, []byte) ([]byte, error) {
		served.Add(1)
		return nil, nil
	})
	s.Start()

	// Sanity: rank 2 can reach rank 1.
	if err := s.Locality(2).Call(1, "noop", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Rank 1 fences rank 2 (as the recovery coordinator would after
	// ping exhaustion). Rank 2 itself never learns — a partitioned
	// survivor — and keeps sending under its stale epoch.
	s.Locality(1).SetPeer(2, Dead, s.Locality(1).Epoch()+1)
	fut := s.Locality(2).CallAsync(1, "noop", nil)
	time.Sleep(50 * time.Millisecond)
	if n := served.Load(); n != 1 {
		t.Fatalf("handler served %d requests, want 1 (fenced frame rejected)", n)
	}
	if v := s.Locality(1).Metrics().Counter(MetricRPCFencedFrames).Value(); v == 0 {
		t.Fatal("no fenced frame counted")
	}
	// The fenced rank's call must not hang forever when bounded.
	err := s.Locality(2).Call(1, "noop", nil, nil, WithRetries(1, 100*time.Millisecond))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("bounded call through fence: err = %v, want ErrCallTimeout", err)
	}
	_ = fut
}

// TestSuspectLifecycle: suspicion is reversible and independent of
// death; death clears it.
func TestSuspectLifecycle(t *testing.T) {
	s := newTestSystem(t, 3)
	s.Start()
	loc := s.Locality(0)
	if loc.Peer(1) == Suspect {
		t.Fatal("fresh rank already suspect")
	}
	loc.SetPeer(1, Suspect, 0)
	if loc.Peer(1) != Suspect {
		t.Fatal("SetPeer(Suspect) had no effect")
	}
	loc.SetPeer(1, Member, 0)
	if loc.Peer(1) == Suspect {
		t.Fatal("SetPeer(Member) had no effect")
	}
	loc.SetPeer(2, Suspect, 0)
	loc.SetPeer(2, Dead, 0)
	if loc.Peer(2) == Suspect {
		t.Fatal("death must clear suspicion (dead beats suspect)")
	}
	if loc.Peer(2) != Dead {
		t.Fatal("SetPeer(Dead) had no effect")
	}
	// Self-suspicion is ignored.
	loc.SetPeer(0, Suspect, 0)
	if loc.Peer(0) == Suspect {
		t.Fatal("a rank must not suspect itself")
	}
}
